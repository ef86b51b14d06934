"""Global coherence invariant monitoring.

A :class:`CoherenceMonitor` is a
:class:`~repro.coherence.engine.TransitionHook` attached to every directory
bank: whenever a Figure-2 transaction FSM transitions back to the unblocked
``"U"`` state (a transaction completing), it checks the *whole system's*
state for the affected line:

MOESI invariants over the CorePair L2 arrays:

- at most one cache holds the line in M or E;
- an M or E holder excludes every other readable copy;
- at most one cache holds the line in O (the designated owner).

Precise-directory consistency (when the system runs a §IV directory):

- ``I`` at the directory implies no L2 and no TCC holds the line;
- ``S`` implies no L2 holds it in M/O/E;
- ``O`` implies the tracked owner really holds it (in M/O/E, or has a
  victim in flight — the in-flight case the protocol resolves by capturing
  data through the probe ack);
- under sharer tracking, every L2 holding the line is tracked (owner,
  sharer, or covered by a limited-pointer overflow).

Transaction completions are the protocol's consistent points, which is why
checks run on transitions into ``"U"`` and not at arbitrary times.  (The
directory FSM hooks also fire Table I transitions, whose states are
:class:`~repro.protocol.types.DirState` members and never the string
``"U"``, so those do not trigger checks.)  The monitor assumes
``dma_updates_dir_state`` (the default); with it disabled the directory
intentionally keeps stale entries and the directory checks would misfire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.coherence.engine import TransitionHook
from repro.coherence.precise import PreciseDirectory
from repro.mem.address import LINE_BYTES
from repro.protocol.types import DirState, MoesiState
from repro.sim.event_queue import SimulationError

if TYPE_CHECKING:
    from repro.system.apu import ApuSystem


class InvariantViolation(SimulationError):
    pass


class CoherenceMonitor(TransitionHook):
    """Attach with ``CoherenceMonitor(system)``; violations raise by default."""

    def __init__(self, system: "ApuSystem", raise_on_violation: bool = True) -> None:
        self.system = system
        self.raise_on_violation = raise_on_violation
        self.checks_run = 0
        self.violations: list[str] = []
        # the topology is fixed once built: resolve it here, not per check
        self._banks = list(getattr(system, "directories", [system.directory]))
        self._precise = [isinstance(bank, PreciseDirectory) for bank in self._banks]
        self._corepairs = list(system.corepairs)
        self._tccs = list(getattr(system, "tccs", [system.tcc]))
        for directory in self._banks:
            directory.add_fsm_hook(self)

    # -- hooks ------------------------------------------------------------------

    def on_transition(self, controller, addr, state, event, next_state,
                      table=None) -> None:
        if next_state == "U":  # a Figure-2 transaction reaching its commit point
            self.check_line(addr)

    # -- checks ------------------------------------------------------------------

    def check_line(self, addr: int) -> list[str]:
        """Run every invariant for one line; returns (and records) failures."""
        self.checks_run += 1
        states = {corepair.name: corepair.peek_state(addr)
                  for corepair in self._corepairs}
        problems = self._check_moesi(states)
        bank = (addr // LINE_BYTES) % len(self._banks)
        if self._precise[bank]:
            problems.extend(self._check_directory(addr, self._banks[bank], states))
        if problems:
            self.violations.extend(problems)
            if self.raise_on_violation:
                raise InvariantViolation(
                    f"line {addr:#x} at t={self.system.sim.now}: " + "; ".join(problems)
                )
        return problems

    def check_all_tracked(self) -> list[str]:
        """End-of-run sweep over every line any cache or the directory holds."""
        lines: set[int] = set()
        for corepair in self._corepairs:
            lines.update(line.addr for line in corepair.l2.iter_valid())
        for tcc in self._tccs:
            lines.update(line.addr for line in tcc.array.iter_valid())
        for directory, precise in zip(self._banks, self._precise):
            if precise:
                lines.update(
                    line.addr for line in directory.dir_cache.iter_valid()
                )
        problems: list[str] = []
        for addr in sorted(lines):
            problems.extend(self.check_line(addr))
        return problems

    # -- invariant bodies ------------------------------------------------------------

    @staticmethod
    def _check_moesi(states: dict[str, MoesiState]) -> list[str]:
        problems = []
        holders = {name: s for name, s in states.items() if s is not MoesiState.I}
        exclusive = [n for n, s in holders.items() if s in (MoesiState.M, MoesiState.E)]
        owners = [n for n, s in holders.items() if s is MoesiState.O]
        if len(exclusive) > 1:
            problems.append(f"multiple M/E holders: {exclusive}")
        if exclusive and len(holders) > 1:
            problems.append(
                f"M/E holder {exclusive[0]} coexists with other copies: {sorted(holders)}"
            )
        if len(owners) > 1:
            problems.append(f"multiple O owners: {owners}")
        if owners and exclusive:
            problems.append(f"O owner {owners[0]} coexists with M/E {exclusive[0]}")
        return problems

    def _check_directory(self, addr: int, directory: PreciseDirectory,
                         states: dict[str, MoesiState]) -> list[str]:
        state, entry = directory.snapshot_entry(addr)
        if state is DirState.B:
            return []  # mid-eviction; nothing stable to assert
        holders = {n: s for n, s in states.items() if s is not MoesiState.I}
        tcc_holds = any(
            tcc.array.lookup(addr, touch=False) is not None
            for tcc in self._tccs
        )
        problems = []
        if state is DirState.I:
            if holders:
                problems.append(f"dir=I but L2 copies exist: {sorted(holders)}")
            if tcc_holds:
                problems.append("dir=I but the TCC holds the line")
        elif state is DirState.S:
            bad = [n for n, s in holders.items() if s is not MoesiState.S]
            if bad:
                problems.append(f"dir=S but non-shared L2 copies: {bad}")
        elif state is DirState.O:
            assert entry is not None
            owner = entry.owner
            if owner is None:
                problems.append("dir=O without a tracked owner")
            else:
                owner_state = states.get(owner)
                owner_pair = self._corepair(owner)
                vic_in_flight = (
                    owner_pair is not None and addr in owner_pair._vic_pending
                )
                if owner_state not in (MoesiState.M, MoesiState.O, MoesiState.E) and not vic_in_flight:
                    problems.append(
                        f"dir=O owner {owner} holds {owner_state} with no victim in flight"
                    )
            extra_exclusive = [
                n for n, s in holders.items()
                if s in (MoesiState.M, MoesiState.E) and n != owner
            ]
            if extra_exclusive:
                problems.append(f"dir=O but non-owner M/E copies: {extra_exclusive}")
        if state in (DirState.S, DirState.O) and entry is not None:
            problems.extend(self._check_tracking(addr, entry, holders))
        return problems

    def _check_tracking(self, addr: int, entry, holders: dict[str, MoesiState]) -> list[str]:
        if entry.sharers is None or entry.overflow:
            return []  # owner-only mode / overflow: identities unknown
        tracked = set(entry.sharers)
        if entry.owner is not None:
            tracked.add(entry.owner)
        untracked = [name for name in holders if name not in tracked]
        if untracked:
            return [f"untracked L2 holders {untracked} (tracked: {sorted(tracked)})"]
        return []

    def _corepair(self, name: str):
        for corepair in self._corepairs:
            if corepair.name == name:
                return corepair
        return None
