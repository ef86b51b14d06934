"""Cell-level regression for the stale-victim double dirty ack.

At scale 4, trns under the stateless baseline directory probes a line
twice while its dirty victim is still in flight: a ``PrbInv`` answered
from the victim buffer, then (after another L2 filled the line in M) a
second probe for a GPU write-through.  Before ``_act_probe_vic`` cleared
the buffer's dirty flag on a ``PrbInv``, both L2s acked dirty and the
directory raised ``ProtocolError: two dirty probe acks``.  The scale-1
golden pins never reach this interleaving.
"""

from __future__ import annotations

from repro.coherence.policies import PRESETS
from repro.runner import Cell, run_cell_inline
from repro.system.config import SystemConfig


def test_trns_baseline_scale4_completes_verified():
    result = run_cell_inline(Cell(
        workload="trns",
        config=SystemConfig.benchmark(policy=PRESETS["baseline"]),
        scale=4,
        verify=True,
    ))
    assert result.ok, result.check_errors
    assert result.stats["verify.invariant_checks"] > 0
