"""Declarative protocol engine: tables, per-line FSMs, and transition hooks.

The paper specifies its protocols as explicit state tables — Figure 2 for
the stateless directory's transaction states, Table I for the precise
directory — and gem5's SLICC (the paper's substrate) compiles exactly such
tables into controllers.  This module is the reproduction's analogue: each
controller *declares* its protocol as a :class:`TransitionTable`
(``state × event -> guard / action / next-states``) and dispatches every
protocol event through a :class:`ProtocolFSM`, which

- looks up the declared transitions for ``(state, event)`` and picks the
  first whose guard passes,
- runs the action (the same imperative code as before the refactor, now
  addressable per transition),
- **verifies the resulting state is one of the declared next-states** —
  undeclared drift raises :class:`ProtocolError` instead of silently
  diverging from the paper's tables,
- and feeds ``(state, event, next_state)`` to any attached
  :class:`TransitionHook` (tracing, invariant checking, counters).

Because the tables are data, they can be *linted* statically
(:meth:`TransitionTable.unhandled_pairs`,
:meth:`TransitionTable.unreachable_states`,
:meth:`TransitionTable.dead_transitions` — surfaced by the
``repro lint-protocol`` CLI) and enumerated by tests, so the code and the
paper's tables cannot drift apart.

Policy variants (§III A/B/B1/C, §VII) are expressed as *overlays*: a table
is copied and select transitions are added or replaced under an overlay
name, so ``repro lint-protocol --describe`` shows exactly which rows a
policy changes.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Iterator

from repro.sim.event_queue import SimulationError
from repro.sim.stats import StatGroup


class ProtocolError(SimulationError):
    """An illegal message or transition reached a protocol controller."""


def state_label(state: object) -> str:
    """Human-readable label for a table state (enum member or string)."""
    return state.value if isinstance(state, enum.Enum) else str(state)


#: ``action(controller, ctx) -> next_state | None`` — None means "take the
#: single declared next state" (only legal when exactly one is declared).
Action = Callable[[object, object], object]
#: ``guard(controller, ctx) -> bool`` — declaration order decides priority.
Guard = Callable[[object, object], bool]


class Transition:
    """One declared ``(state, event)`` row of a protocol table."""

    __slots__ = ("state", "event", "next_states", "action", "guard",
                 "kind", "note", "overlay")

    def __init__(
        self,
        state: object,
        event: str,
        next_states: tuple,
        action: Action | None,
        guard: Guard | None,
        kind: str,
        note: str,
        overlay: str | None,
    ) -> None:
        self.state = state
        self.event = event
        self.next_states = next_states
        self.action = action
        self.guard = guard
        self.kind = kind  # "handled" | "illegal"
        self.note = note
        self.overlay = overlay

    def __repr__(self) -> str:
        nexts = ",".join(state_label(s) for s in self.next_states) or "-"
        return (
            f"Transition({state_label(self.state)} x {self.event} -> {nexts}"
            f"{' [illegal]' if self.kind == 'illegal' else ''})"
        )


def _as_tuple(value) -> tuple:
    if isinstance(value, (tuple, list, set, frozenset)):
        return tuple(value)
    return (value,)


class TransitionTable:
    """A declarative ``state × event`` protocol table.

    States and events are hashable labels (enum members or strings).  Every
    pair must be either handled (:meth:`on`) or explicitly declared illegal
    (:meth:`illegal`) for the table to lint clean — "unhandled" means the
    protocol author never thought about the pair.
    """

    def __init__(self, name: str, states: Iterable, events: Iterable[str],
                 initial: object) -> None:
        self.name = name
        self.states = tuple(states)
        self.events = tuple(events)
        self.initial = initial
        if initial not in self.states:
            raise ValueError(f"{name}: initial state {initial!r} not in states")
        self._map: dict[tuple, tuple[Transition, ...]] = {}

    # -- declaration ----------------------------------------------------------

    def on(
        self,
        states,
        events,
        next_states,
        action: Action | None = None,
        guard: Guard | None = None,
        note: str = "",
        overlay: str | None = None,
    ) -> "TransitionTable":
        """Declare handled transition(s); accepts single labels or iterables."""
        nexts = _as_tuple(next_states)
        for state in _as_tuple(states):
            for event in _as_tuple(events):
                self._check_labels(state, event, nexts)
                transition = Transition(
                    state, event, nexts, action, guard, "handled", note, overlay
                )
                self._add(transition)
        return self

    def illegal(self, states, events, note: str = "",
                overlay: str | None = None) -> "TransitionTable":
        """Declare that ``(state, event)`` must never fire (raises if it does)."""
        for state in _as_tuple(states):
            for event in _as_tuple(events):
                self._check_labels(state, event, ())
                self._add(Transition(state, event, (), self._raise_illegal,
                                     None, "illegal", note, overlay))
        return self

    def replace(self, states, events, next_states, action: Action | None = None,
                guard: Guard | None = None, note: str = "",
                overlay: str | None = None) -> "TransitionTable":
        """Overlay helper: drop existing rows for the pair(s), then declare."""
        for state in _as_tuple(states):
            for event in _as_tuple(events):
                self._map.pop((state, event), None)
        return self.on(next_states=next_states, states=states, events=events,
                       action=action, guard=guard, note=note, overlay=overlay)

    def copy(self, name: str | None = None) -> "TransitionTable":
        """A shallow copy for building policy overlays."""
        table = TransitionTable(name or self.name, self.states, self.events,
                                self.initial)
        table._map = dict(self._map)
        return table

    def _check_labels(self, state, event, nexts: tuple) -> None:
        if state not in self.states:
            raise ValueError(f"{self.name}: unknown state {state!r}")
        if event not in self.events:
            raise ValueError(f"{self.name}: unknown event {event!r}")
        for nxt in nexts:
            if nxt not in self.states:
                raise ValueError(f"{self.name}: unknown next state {nxt!r}")

    def _add(self, transition: Transition) -> None:
        key = (transition.state, transition.event)
        existing = self._map.get(key, ())
        if existing and existing[-1].guard is None:
            # a row after an unguarded row could never fire
            raise ValueError(
                f"{self.name}: {state_label(transition.state)} x "
                f"{transition.event} already has an unguarded transition"
            )
        self._map[key] = existing + (transition,)

    @staticmethod
    def _raise_illegal(controller, ctx):  # pragma: no cover - via ProtocolFSM
        raise AssertionError("illegal transitions are raised by ProtocolFSM")

    # -- queries ---------------------------------------------------------------

    def lookup(self, state, event) -> tuple[Transition, ...]:
        return self._map.get((state, event), ())

    def transitions(self, include_illegal: bool = False) -> Iterator[Transition]:
        for entries in self._map.values():
            for transition in entries:
                if include_illegal or transition.kind == "handled":
                    yield transition

    def declared_nexts(self, state, event) -> tuple:
        """Union of next-states over all handled rows of ``(state, event)``."""
        nexts: list = []
        for transition in self.lookup(state, event):
            for nxt in transition.next_states:
                if nxt not in nexts:
                    nexts.append(nxt)
        return tuple(nexts)

    # -- lint ------------------------------------------------------------------

    def unhandled_pairs(self) -> list[tuple]:
        """(state, event) pairs neither handled nor declared illegal."""
        return [
            (state, event)
            for state in self.states
            for event in self.events
            if (state, event) not in self._map
        ]

    def reachable_states(self) -> set:
        """States reachable from ``initial`` via declared next-states."""
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for event in self.events:
                for transition in self.lookup(state, event):
                    if transition.kind != "handled":
                        continue
                    for nxt in transition.next_states:
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
        return seen

    def unreachable_states(self) -> list:
        reachable = self.reachable_states()
        return [state for state in self.states if state not in reachable]

    def dead_transitions(self) -> list[Transition]:
        """Handled transitions that can never fire (source state unreachable)."""
        reachable = self.reachable_states()
        return [
            transition for transition in self.transitions()
            if transition.state not in reachable
        ]

    def lint(self) -> dict:
        """All three static checks, as a report dict (see lint-protocol CLI)."""
        return {
            "unhandled": self.unhandled_pairs(),
            "unreachable": self.unreachable_states(),
            "dead": self.dead_transitions(),
        }

    # -- rendering -------------------------------------------------------------

    def describe(self) -> str:
        """Aligned text rendering of the declared (handled) transitions."""
        rows = []
        for state in self.states:
            for event in self.events:
                for transition in self.lookup(state, event):
                    if transition.kind != "handled":
                        continue
                    nexts = ",".join(state_label(s) for s in transition.next_states)
                    tag = f" [{transition.overlay}]" if transition.overlay else ""
                    note = f"  # {transition.note}" if transition.note else ""
                    rows.append(
                        f"  {state_label(state):<6} x {event:<10} -> "
                        f"{nexts:<14}{tag}{note}"
                    )
        header = (
            f"{self.name}: {len(self.states)} states, {len(self.events)} events, "
            f"{sum(1 for _ in self.transitions())} transitions"
        )
        return "\n".join([header] + rows)

    def __repr__(self) -> str:
        return f"TransitionTable({self.name!r}, {len(self._map)} pairs)"


class ProtocolFSM:
    """Per-line protocol state machine dispatching through a table.

    Sits on the per-event hot path (one instance per in-flight directory
    transaction / per resident cache line), hence ``__slots__``.
    """

    __slots__ = ("table", "state")

    def __init__(self, table: TransitionTable, state: object) -> None:
        self.table = table
        self.state = state

    def fire(self, event: str, owner, addr: int, ctx=None):
        """Dispatch ``event``: guard-select a transition, run its action,
        enforce the declared next-states, advance, and notify hooks.

        ``owner`` is the controller the action methods are bound to; it must
        expose an ``fsm_hooks`` tuple (possibly empty).
        """
        state = self.state
        table = self.table
        transitions = table._map.get((state, event))
        if not transitions:
            raise ProtocolError(
                f"{table.name}: unhandled event {event!r} in state "
                f"{state_label(state)} (addr={addr:#x})"
            )
        for transition in transitions:
            guard = transition.guard
            if guard is None or guard(owner, ctx):
                break
        else:
            raise ProtocolError(
                f"{self.table.name}: no guard matched for {event!r} in state "
                f"{state_label(state)} (addr={addr:#x})"
            )
        if transition.kind == "illegal":
            raise ProtocolError(
                f"{self.table.name}: illegal event {event!r} in state "
                f"{state_label(state)} (addr={addr:#x})"
                + (f": {transition.note}" if transition.note else "")
            )
        action = transition.action
        next_state = action(owner, ctx) if action is not None else None
        declared = transition.next_states
        if next_state is None:
            if len(declared) != 1:
                raise ProtocolError(
                    f"{self.table.name}: {state_label(state)} x {event} has "
                    f"{len(declared)} declared next states; the action must "
                    "return one"
                )
            next_state = declared[0]
        elif next_state not in declared:
            raise ProtocolError(
                f"{self.table.name}: {state_label(state)} x {event} reached "
                f"undeclared state {state_label(next_state)} (declared: "
                f"{[state_label(s) for s in declared]}, addr={addr:#x})"
            )
        self.state = next_state
        hooks = owner.fsm_hooks
        if hooks:
            for hook in hooks:
                hook.on_transition(owner, addr, state, event, next_state, table)
        return next_state

    def __repr__(self) -> str:
        return f"ProtocolFSM({self.table.name}, {state_label(self.state)})"


class TransitionHook:
    """Observer interface for protocol transitions (tracing, invariants,
    counters).  Attach with ``controller.add_fsm_hook(hook)``.

    ``table`` is the :class:`TransitionTable` the transition fired through
    — one controller may dispatch through several (a precise directory
    runs both the Fig. 2 transaction table and the Table I entry table),
    so hooks that aggregate per-table (coverage) get the identity for
    free instead of guessing from state vocabulary.
    """

    __slots__ = ()

    def on_transition(self, controller, addr: int, state, event: str,
                      next_state, table=None) -> None:
        raise NotImplementedError


class RecordingHook(TransitionHook):
    """Test/debug hook: appends ``(controller_name, addr, state, event,
    next_state)`` tuples to :attr:`records`."""

    __slots__ = ("records",)

    def __init__(self) -> None:
        self.records: list[tuple] = []

    def on_transition(self, controller, addr, state, event, next_state,
                      table=None) -> None:
        self.records.append((controller.name, addr, state, event, next_state))

    def sequence(self, addr: int | None = None) -> list[tuple]:
        """The (state, event, next_state) triples, optionally per-address."""
        return [
            (state_label(state), event, state_label(next_state))
            for name, a, state, event, next_state in self.records
            if addr is None or a == addr
        ]


class TransitionStats(TransitionHook):
    """Per-``(state, event)`` transition counters in a standalone StatGroup.

    The group is deliberately *not* registered with the simulator, so
    attaching this hook never changes ``ApuSystem.all_stats()`` (and thus
    cannot perturb the golden-stats snapshot); read :attr:`stats` directly.
    """

    __slots__ = ("stats",)

    def __init__(self, name: str = "fsm") -> None:
        self.stats = StatGroup(name)

    def on_transition(self, controller, addr, state, event, next_state,
                      table=None) -> None:
        self.stats.inc(
            f"{controller.name}.{state_label(state)}.{event}"
        )


class TransitionCoverage(TransitionHook):
    """Set-valued sibling of :class:`TransitionStats`: which table *rows*
    fired, not how often.

    Every transition adds one ``(table_name, state, event)`` triple —
    exactly the key the static lint enumerates rows by — so the coverage a
    run achieved can be diffed directly against
    :meth:`TransitionTable.lint`: a handled row that is reachable per lint
    but absent from :attr:`seen` was never exercised.  This is the feedback
    signal the litmus fuzzer (``repro fuzz``) steers by.
    """

    __slots__ = ("_raw",)

    def __init__(self) -> None:
        # ``(table name, raw state, event)``: labelling is deferred to
        # :attr:`seen`, off the per-transition path
        self._raw: set[tuple] = set()

    def on_transition(self, controller, addr, state, event, next_state,
                      table=None) -> None:
        self._raw.add((table.name if table is not None
                       else type(controller).__name__, state, event))

    @property
    def seen(self) -> set[tuple[str, str, str]]:
        """The covered ``(table_name, state, event)`` rows."""
        return {(name, state_label(state), event)
                for name, state, event in self._raw}

    def attach(self, *controllers) -> "TransitionCoverage":
        for controller in controllers:
            controller.add_fsm_hook(self)
        return self

    def attach_system(self, system) -> "TransitionCoverage":
        """Observe every table-driven controller (the passive LLC slices
        have no transition table, hence no rows to cover)."""
        return self.attach(*system.directories, *system.corepairs,
                           *system.tccs)

    def triples(self) -> list[tuple[str, str, str]]:
        """The covered rows as a sorted, JSON-stable list."""
        return sorted(self.seen)
