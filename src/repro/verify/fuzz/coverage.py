"""Table-coverage accounting: universes, state, reports, baselines.

Coverage is counted over ``(table, state, event)`` triples — the exact
vocabulary of the declared :class:`TransitionTable` rows, recorded at the
engine's single dispatch point by :class:`TransitionCoverage`.  The
*universe* for a policy is every handled row of every table a system built
for that policy dispatches through, restricted to rows whose source state
is statically reachable (the same reachability ``repro lint-protocol``
computes) — so the dynamic coverage report and the static lint speak the
same language:

- a universe row the fuzzer never hit is a **missing litmus shape**
  (statically reachable per lint, dynamically unexercised);
- a statically-dead row the fuzzer also never hit is a **dead-entry
  candidate** (shipped tables lint clean, so this list being empty *is*
  the agreement with lint the acceptance criteria demand).
"""

from __future__ import annotations

import json
from functools import lru_cache

from repro.coherence.engine import state_label

Triple = tuple[str, str, str]


@lru_cache(maxsize=None)
def _policy_tables(policy_name: str):
    """Every distinct table a litmus system under this policy dispatches
    through, keyed by table name (unique within one policy)."""
    from repro.system.builder import build_system
    from repro.verify.litmus.harness import POLICY_VARIANTS, litmus_config

    system = build_system(litmus_config(POLICY_VARIANTS[policy_name]))
    tables = {}
    for controller in (*system.directories, *system.corepairs, *system.tccs):
        for table in controller.fsm_tables():
            tables.setdefault(table.name, table)
    return tables


@lru_cache(maxsize=None)
def policy_universe(policy_name: str) -> frozenset[Triple]:
    """Statically reachable handled rows of every table under a policy."""
    triples: set[Triple] = set()
    for name, table in _policy_tables(policy_name).items():
        reachable = table.reachable_states()
        for transition in table.transitions():
            if transition.state in reachable:
                triples.add((name, state_label(transition.state),
                             transition.event))
    return frozenset(triples)


@lru_cache(maxsize=None)
def policy_dead_rows(policy_name: str) -> frozenset[Triple]:
    """Statically-dead handled rows (lint's ``dead_transitions``)."""
    triples: set[Triple] = set()
    for name, table in _policy_tables(policy_name).items():
        for transition in table.dead_transitions():
            triples.add((name, state_label(transition.state),
                         transition.event))
    return frozenset(triples)


class CoverageState:
    """Accumulated per-policy transition coverage, JSON round-trippable."""

    FORMAT = "repro-fuzz-coverage/1"

    def __init__(self) -> None:
        self.hits: dict[str, set[Triple]] = {}

    def policy_hits(self, policy: str) -> set[Triple]:
        return self.hits.get(policy, set())

    def add(self, policy: str, triples) -> set[Triple]:
        """Merge triples for a policy; returns the genuinely new ones."""
        seen = self.hits.setdefault(policy, set())
        fresh = {tuple(triple) for triple in triples} - seen
        seen.update(fresh)
        return fresh

    def total(self) -> int:
        return sum(len(seen) for seen in self.hits.values())

    def to_json(self) -> dict:
        return {
            "format": self.FORMAT,
            "policies": {
                policy: [list(triple) for triple in sorted(seen)]
                for policy, seen in sorted(self.hits.items())
            },
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoverageState":
        if data.get("format") != cls.FORMAT:
            raise ValueError(
                f"not a fuzz coverage state (format {data.get('format')!r})"
            )
        state = cls()
        for policy, triples in data.get("policies", {}).items():
            state.add(policy, (tuple(triple) for triple in triples))
        return state

    def save(self, path: str) -> None:
        self.write(path, self.to_json())

    @staticmethod
    def write(path: str, data: dict) -> None:
        """Write a :meth:`to_json` snapshot, possibly of an earlier state."""
        with open(path, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CoverageState":
        with open(path) as handle:
            return cls.from_json(json.load(handle))


def coverage_report(
    state: CoverageState, policies=None
) -> tuple[str, dict]:
    """Per-policy table-coverage report as ``(text, data)``.

    ``data`` is stable (sorted keys and rows), so serializing it is the
    byte-identical artifact the determinism tests and the CI baseline
    gate consume.
    """
    policies = sorted(policies) if policies is not None else sorted(state.hits)
    data: dict = {"format": "repro-fuzz-report/1", "policies": {}}
    lines = ["policy                            covered/universe   %   unhit"]
    for policy in policies:
        universe = policy_universe(policy)
        hits = state.policy_hits(policy) & universe
        missing = sorted(universe - hits)
        dead = sorted(policy_dead_rows(policy) - state.policy_hits(policy))
        percent = 100.0 * len(hits) / len(universe) if universe else 100.0
        data["policies"][policy] = {
            "universe": len(universe),
            "covered": len(hits),
            "percent": round(percent, 2),
            "reachable_unhit": [list(triple) for triple in missing],
            "dead_candidates": [list(triple) for triple in dead],
        }
        lines.append(
            f"{policy:<32} {len(hits):>6}/{len(universe):<8} {percent:6.2f} "
            f"{len(missing):>5}"
        )
    covered = sum(entry["covered"] for entry in data["policies"].values())
    total = sum(entry["universe"] for entry in data["policies"].values())
    lines.append(
        f"overall: {covered}/{total} reachable rows covered over "
        f"{len(policies)} policies"
    )
    return "\n".join(lines), data


def report_json(data: dict) -> str:
    """The canonical (byte-stable) serialization of a report dict."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def unhit_detail(data: dict, policy: str) -> str:
    """Human-readable reachable-but-unhit rows for one policy."""
    entry = data["policies"][policy]
    lines = [f"{policy}: {len(entry['reachable_unhit'])} reachable rows unhit"]
    lines.extend(
        f"  {table:<20} {state:<8} x {event}"
        for table, state, event in entry["reachable_unhit"]
    )
    for table, state, event in entry["dead_candidates"]:
        lines.append(f"  DEAD-CANDIDATE {table:<20} {state:<8} x {event}")
    return "\n".join(lines)


def check_baseline(data: dict, baseline: dict) -> list[str]:
    """Regressions of a report against a committed baseline.

    The baseline maps policy names to ``{"min_percent": float}`` floors
    (plus an optional ``"min_overall_rows"`` total-coverage floor); a
    report below any floor is a regression CI fails on.
    """
    problems: list[str] = []
    for policy, floor in sorted(baseline.get("policies", {}).items()):
        entry = data["policies"].get(policy)
        if entry is None:
            problems.append(f"{policy}: missing from the coverage report")
            continue
        if entry["percent"] < floor["min_percent"]:
            problems.append(
                f"{policy}: coverage {entry['percent']:.2f}% below the "
                f"baseline floor {floor['min_percent']:.2f}%"
            )
    floor_rows = baseline.get("min_overall_rows")
    if floor_rows is not None:
        covered = sum(e["covered"] for e in data["policies"].values())
        if covered < floor_rows:
            problems.append(
                f"overall covered rows {covered} below baseline {floor_rows}"
            )
    return problems
