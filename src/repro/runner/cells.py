"""Cell specification: one independent (workload, config) simulation.

The evaluation matrix — figures, tables, ablations, design-space sweeps —
decomposes into *cells*: a workload run on one fully-specified
:class:`SystemConfig`.  Cells are deterministic and independent, which is
what lets the executor fan them out over a process pool and the store key
them content-addressed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.config import SystemConfig
from repro.workloads.base import Workload


@dataclass
class Cell:
    """One simulation to run: workload x config x run parameters.

    ``workload`` is either a registered benchmark name (dispatched to
    workers by name) or a :class:`Workload` instance (pickled across the
    process boundary; must be picklable, which all bundled workloads are).
    ``label`` is only for progress lines and error messages.
    """

    workload: str | Workload
    config: SystemConfig
    scale: float = 1.0
    verify: bool = False
    seed: int = 0
    label: str = ""

    @property
    def workload_name(self) -> str:
        return self.workload if isinstance(self.workload, str) else self.workload.name

    @property
    def display(self) -> str:
        return self.label or self.workload_name
