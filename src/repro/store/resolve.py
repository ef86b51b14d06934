"""``resolve_cells`` / ``resolve_litmus`` — turning work items into results.

Every consumer (figures, sweeps, benchmarks, the litmus fan-out, the fuzz
campaign, the CLI) resolves its items here instead of carrying private
caching logic.  Every entry point (including :func:`submit_entries`,
which shrinks a fuzz campaign's new corpus entries) runs the same loop
over a small per-kind description (:class:`_Kind`):

1. **store lookup** — a :class:`repro.store.ResultStore` answers warm
   items without simulating;
2. **in-batch dedup** — items with the same content-addressed key are
   simulated once, with or without a store;
3. **execution** — the rest runs inline (``jobs=1`` or a single item), on
   a one-shot local process pool, or — for :func:`submit_litmus` and
   :func:`submit_entries` — is queued on a caller-owned
   :class:`~repro.runner.executor.WorkerPool`, and the call returns a
   pending :class:`Resolution` at once; an item whose payload cannot cross
   the process boundary runs inline instead;
4. **store put** — every fresh result is written back once it is in
   (:meth:`Resolution.result`).

Results round-trip exactly through :mod:`repro.system.serialize`, and the
simulator is deterministic, so every path is bit-identical.

The executor, key and harness functions are looked up on their modules at
call time, so a patched binding (tracing, test tripwires) is the one run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.runner import executor
from repro.runner.cells import Cell
from repro.store.keys import cell_key
from repro.store.store import KIND_LITMUS
from repro.system.apu import SimulationResult
from repro.system.serialize import policy_to_dict


@dataclass(frozen=True)
class _Kind:
    """How one kind of item is keyed, stored, run and labelled."""

    #: content-addressed key of an item
    key: Callable[[object], str]
    #: stored result for ``(store, key)``, or None on a miss
    lookup: Callable[[object, str], object | None]
    #: persist ``(store, key, item, result)``
    put: Callable[[object, str, object, object], None]
    #: serial runner: ``(items, pending, results, emit)``
    run_inline: Callable[[Sequence, Sequence[int], list, Callable], None]
    #: pool payload for ``(item, timeout_s)``, or None to run it inline
    payload: Callable[[object, float | None], dict | None]
    #: pool worker entry point (module-level, so it pickles)
    worker: Callable[[dict], dict]
    #: worker answer -> result
    decode: Callable[[dict], object]
    #: progress label of an item
    label: Callable[[object], str]
    #: ``(items, results) -> results`` as handed back to the caller
    finish: Callable[[Sequence, list], list] = lambda _items, results: results


class Resolution:
    """The results of one resolve call, in input order, from :meth:`result`.

    Without a caller-owned pool every miss has already run by the time
    this exists.  On a caller-owned :class:`~repro.runner.executor.WorkerPool`
    the misses are still queued there: :meth:`result` waits for them, then
    writes them back to the store.
    """

    def __init__(self, kind: _Kind, items: Sequence, store, keys: list,
                 results: list, pending: list[int],
                 duplicates: list[tuple[int, int]], batch) -> None:
        self._kind = kind
        self._items = items
        self._store = store
        self._keys = keys
        self._results = results
        self._pending = pending
        self._duplicates = duplicates
        self._batch = batch

    def result(self) -> list:
        results = self._results
        if self._batch is not None:
            self._batch.wait(results)
        if self._store is not None:
            for index in self._pending:
                self._kind.put(self._store, self._keys[index],
                               self._items[index], results[index])
        for index, source in self._duplicates:
            results[index] = results[source]
        return self._kind.finish(self._items, results)


def _resolve(
    kind: _Kind,
    items: Sequence,
    store,
    jobs: int | None,
    timeout_s: float | None,
    retries: int | None,
    emit: Callable[[str], None],
    pool=None,
) -> Resolution:
    """The one resolution loop: lookup, dedup, execute (or queue on
    ``pool``); :meth:`Resolution.result` puts and copies."""
    total = len(items)
    results: list = [None] * total
    keys = [kind.key(item) for item in items]

    pending: list[int] = []
    first_by_key: dict[str, int] = {}
    duplicates: list[tuple[int, int]] = []
    for index, key in enumerate(keys):
        if store is not None:
            stored = kind.lookup(store, key)
            if stored is not None:
                results[index] = stored
                emit(f"[runner] {index + 1}/{total} "
                     f"{kind.label(items[index])}: store hit")
                continue
        if key in first_by_key:
            duplicates.append((index, first_by_key[key]))
            continue
        first_by_key[key] = index
        pending.append(index)

    batch = None
    if pending:
        batch = _execute(
            kind, items, pending, results, executor.effective_jobs(jobs),
            timeout_s,
            executor.DEFAULT_RETRIES if retries is None else retries,
            emit, pool)
    return Resolution(kind, items, store, keys, results, pending, duplicates,
                      batch)


def _execute(
    kind: _Kind,
    items: Sequence,
    pending: list[int],
    results: list,
    jobs: int,
    timeout_s: float | None,
    retries: int,
    emit: Callable[[str], None],
    pool=None,
):
    """Run ``pending`` inline or over a one-shot pool, or queue it on the
    caller's ``pool`` and return the batch to wait for.  Items that cannot
    cross the process boundary run inline either way."""
    if pool is None and (jobs <= 1 or len(pending) == 1):
        kind.run_inline(items, pending, results, emit)
        return None
    payloads: dict[int, dict] = {}
    for index in pending:
        payload = kind.payload(items[index], timeout_s)
        if payload is None:
            emit(f"[runner] {kind.label(items[index])}: cannot cross the "
                 "process boundary, running inline")
            kind.run_inline(items, [index], results, emit)
        else:
            payloads[index] = payload
    labels = {index: kind.label(items[index]) for index in payloads}
    if pool is not None:
        return pool.submit(kind.worker, payloads, labels, kind.decode,
                           timeout_s, retries, emit)
    executor.pool_map(kind.worker, payloads, labels, list(payloads), results,
                      kind.decode, jobs, timeout_s, retries, emit)
    return None


# -- cells ----------------------------------------------------------------------


_CELLS = _Kind(
    key=lambda cell: cell_key(cell),
    lookup=lambda store, key: store.get(key),
    put=lambda store, key, cell, result: store.put(key, cell, result),
    run_inline=lambda *args: executor.run_inline(*args),
    payload=lambda cell, timeout_s: executor.cell_payload(cell, timeout_s),
    worker=executor.cell_worker,
    decode=lambda data: executor.result_from_dict(data),
    label=lambda cell: cell.display,
)


def resolve_cells(
    cells: Sequence[Cell],
    store=None,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[SimulationResult]:
    """Resolve every cell, in input order, returning one result per cell.

    ``store`` (a :class:`repro.store.ResultStore`) serves warm cells and
    receives every fresh result; identical cells in one batch simulate
    once; the rest fans out over ``jobs`` local workers.
    """
    return _resolve(_CELLS, cells, store, jobs, timeout_s, retries,
                    progress or (lambda line: None)).result()


# -- litmus runs ----------------------------------------------------------------


def _litmus_kind(max_events: int, coverage: bool, mutate_system) -> _Kind:
    """The :class:`_Kind` of ``(test, policy_name, schedule)`` triples."""
    from repro.verify.litmus import harness

    def key(run) -> str:
        test, policy_name, schedule = run
        return harness.litmus_key(test, harness.POLICY_VARIANTS[policy_name],
                                  schedule, max_events, coverage)

    def lookup(store, key: str):
        row = store.get_row(key, KIND_LITMUS)
        if row is None:
            return None
        try:
            return harness.outcome_from_dict(row)
        except (KeyError, ValueError, TypeError):
            return None  # unreadable payload: re-run

    def put(store, key: str, run, outcome) -> None:
        test, policy_name, schedule = run
        store.put_row(
            key, KIND_LITMUS,
            workload=test.name,
            config={"policy": policy_to_dict(harness.POLICY_VARIANTS[policy_name]),
                    "schedule": schedule.to_json(),
                    "max_events": max_events},
            result=harness.outcome_to_dict(outcome),
            verify=True,
            seed=schedule.seed,
        )

    def run_inline(runs, pending, results, emit) -> None:
        for position, index in enumerate(pending):
            test, policy_name, schedule = runs[index]
            results[index] = harness.run_litmus(
                test, policy_name=policy_name, schedule=schedule,
                max_events=max_events, coverage=coverage,
                mutate_system=mutate_system,
            )
            emit(f"[runner] {position + 1}/{len(pending)} "
                 f"{executor.litmus_run_label(*runs[index])}: simulated inline")

    def payload(run, timeout_s):
        return executor.litmus_payload(*run, max_events, coverage, timeout_s)

    return _Kind(
        key=key,
        lookup=lookup,
        put=put,
        run_inline=run_inline,
        payload=payload,
        worker=executor.litmus_worker,
        decode=lambda data: harness.outcome_from_dict(data),
        label=lambda run: executor.litmus_run_label(*run),
        finish=_named,
    )


def resolve_litmus(
    runs: Sequence[tuple],
    store=None,
    jobs: int | None = None,
    timeout_s: float | None = None,
    retries: int | None = None,
    progress: Callable[[str], None] | None = None,
    max_events: int | None = None,
    coverage: bool = False,
    mutate_system=None,
) -> list:
    """Resolve litmus runs the way :func:`resolve_cells` resolves cells.

    ``runs`` is a sequence of ``(test, policy_name, schedule)`` triples
    (policies by :data:`POLICY_VARIANTS` name, so they can cross the
    process boundary).  Outcomes come back in input order: warm triples
    are store lookups (:data:`KIND_LITMUS` rows keyed by
    :func:`litmus_key`), identical in-batch triples simulate once, and
    the rest fans out over ``jobs`` local workers.

    ``mutate_system`` (fault injection) forces everything inline with the
    store bypassed — mutation hooks are closures that neither cross the
    process boundary nor belong in content-addressed rows.
    """
    from repro.verify.litmus import harness

    if max_events is None:
        max_events = harness.LITMUS_MAX_EVENTS
    emit = progress or (lambda line: None)

    kind = _litmus_kind(max_events, coverage, mutate_system)
    if mutate_system is not None:
        results = [None] * len(runs)
        kind.run_inline(runs, range(len(runs)), results, emit)
        return results
    return _resolve(kind, runs, store, jobs, timeout_s, retries,
                    emit).result()


def submit_litmus(
    runs: Sequence[tuple],
    pool,
    store=None,
    timeout_s: float | None = None,
    retries: int | None = None,
    progress: Callable[[str], None] | None = None,
    max_events: int | None = None,
    coverage: bool = False,
) -> Resolution:
    """:func:`resolve_litmus` on a caller-owned
    :class:`~repro.runner.executor.WorkerPool`: the misses are queued there
    and this returns at once; ``.result()`` gives the outcomes."""
    from repro.verify.litmus import harness

    if max_events is None:
        max_events = harness.LITMUS_MAX_EVENTS
    return _resolve(_litmus_kind(max_events, coverage, None), runs, store,
                    None, timeout_s, retries, progress or (lambda line: None),
                    pool)


def _named(runs: Sequence[tuple], results: list) -> list:
    """Two policy *names* can map to one key (one policy dict): share the
    data, but report the name each caller asked for."""
    return [
        outcome if outcome.policy == policy_name
        else dataclasses.replace(outcome, policy=policy_name)
        for outcome, (_test, policy_name, _schedule) in zip(results, runs)
    ]


# -- fuzz corpus entries ----------------------------------------------------------


def _entry_kind(max_runs: int) -> _Kind:
    """The :class:`_Kind` of fuzz corpus entries awaiting minimization.

    Entries are never stored (the corpus directory is where they live),
    and a shrink gets no per-item alarm: ``max_runs`` already bounds it.
    """
    from repro.verify.fuzz import campaign, corpus

    def run_inline(entries, pending, results, emit) -> None:
        for position, index in enumerate(pending):
            results[index] = campaign.minimize_entry(entries[index],
                                                     max_runs=max_runs)
            emit(f"[runner] {position + 1}/{len(pending)} "
                 f"{_entry_label(entries[index])}: minimized inline")

    return _Kind(
        key=lambda entry: entry.digest(),
        lookup=lambda store, key: None,
        put=lambda store, key, entry, result: None,
        run_inline=run_inline,
        payload=lambda entry, _timeout_s: {"entry": entry.to_json(),
                                           "max_runs": max_runs},
        worker=corpus.minimize_worker,
        decode=corpus.CorpusEntry.from_json,
        label=_entry_label,
    )


def _entry_label(entry) -> str:
    return f"shrink {entry.test.get('name', '?')}@{entry.policy}"


def submit_entries(
    entries: Sequence,
    max_runs: int,
    pool=None,
    progress: Callable[[str], None] | None = None,
) -> Resolution:
    """Shrink fuzz corpus entries; ``.result()`` gives the shrunk entries
    in input order.

    Without ``pool`` the shrinks run inline; on a caller-owned
    :class:`~repro.runner.executor.WorkerPool` they are queued there and
    this returns at once.  Each shrink is a pure function of its entry, so
    the results do not depend on where they ran.
    """
    return _resolve(_entry_kind(max_runs), entries, None, 1, None, None,
                    progress or (lambda line: None), pool)


__all__ = ["Resolution", "resolve_cells", "resolve_litmus", "submit_entries",
           "submit_litmus"]
