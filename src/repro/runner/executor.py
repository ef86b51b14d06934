"""Process-pool execution primitives for cells and litmus runs.

:func:`repro.store.resolve.resolve_cells` and ``resolve_litmus`` decide
*what* to run; this module runs it:

- :func:`run_cell_inline` / :func:`run_inline` — the serial in-process
  reference path;
- :class:`WorkerPool` — a :class:`ProcessPoolExecutor` that outlives one
  batch, with a per-item timeout (SIGALRM inside the worker, where
  available) and bounded retries for crashed *or* timed-out items;
  :func:`pool_map` is its one-shot form;
- :func:`cell_payload` / :func:`litmus_payload` and their worker entry
  points — what crosses the process boundary.

Workers rebuild the system from the serialized config and return the
result as a plain dict (see :mod:`repro.system.serialize`), so nothing
simulator-internal crosses the process boundary and parallel results are
bit-identical to serial ones.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Callable, Sequence

from repro.runner.cells import Cell
from repro.system.apu import SimulationResult
from repro.system.serialize import config_from_dict, config_to_dict, result_from_dict

#: how many times a crashed or timed-out cell is resubmitted before giving up
DEFAULT_RETRIES = 1


class CellError(RuntimeError):
    """A cell failed to execute (crash, timeout, or worker exception)."""


class CellTimeout(CellError):
    """A cell exceeded its per-cell wall-clock timeout."""


def effective_jobs(jobs: int | None) -> int:
    """Resolve a ``--jobs`` value: None means one worker per CPU."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _alarm_handler(_signum, _frame):  # pragma: no cover - fires in workers
    raise CellTimeout("cell exceeded its wall-clock timeout")


@contextmanager
def _alarm(timeout_s: float | None):
    """Raise :class:`CellTimeout` in this worker after ``timeout_s``."""
    use_alarm = timeout_s is not None and hasattr(signal, "SIGALRM")
    if use_alarm:
        signal.signal(signal.SIGALRM, _alarm_handler)
        signal.alarm(max(1, int(timeout_s)))
    try:
        yield
    finally:
        if use_alarm:
            signal.alarm(0)


def cell_payload(cell: Cell, timeout_s: float | None) -> dict | None:
    """Serialize one cell for the pool, or None if it cannot cross the
    process boundary (an unpicklable workload instance)."""
    payload = {
        "workload": cell.workload,  # name, or pickled Workload instance
        "config": config_to_dict(cell.config),
        "scale": cell.scale,
        "verify": cell.verify,
        "seed": cell.seed,
        "timeout_s": timeout_s,
    }
    try:
        pickle.dumps(payload)
    except Exception:
        return None
    return payload


def cell_worker(payload: dict) -> dict:
    """Worker entry point: rebuild, simulate, return a result dict."""
    from repro.system.serialize import result_to_dict

    cell = Cell(
        workload=payload["workload"],
        config=config_from_dict(payload["config"]),
        scale=payload["scale"],
        verify=payload["verify"],
        seed=payload["seed"],
    )
    with _alarm(payload.get("timeout_s")):
        return result_to_dict(run_cell_inline(cell))


def run_cell_inline(cell: Cell) -> SimulationResult:
    """Run one cell in this process (the serial reference path)."""
    from repro.system.builder import build_system
    from repro.workloads.registry import get_workload

    workload = cell.workload
    if isinstance(workload, str):
        workload = get_workload(workload)
    system = build_system(cell.config)
    return system.run_workload(
        workload, seed=cell.seed, scale=cell.scale, verify=cell.verify
    )


def run_inline(
    cells: Sequence[Cell],
    pending: Sequence[int],
    results: list,
    emit: Callable[[str], None],
) -> None:
    """Serial execution of ``pending`` into ``results`` (reference path)."""
    for position, index in enumerate(pending):
        start = time.perf_counter()
        results[index] = run_cell_inline(cells[index])
        emit(
            f"[runner] {position + 1}/{len(pending)} {cells[index].display}: "
            f"simulated inline in {time.perf_counter() - start:.2f}s"
        )


class _Task:
    """One item on a :class:`WorkerPool`: its payload, live future and
    attempt count."""

    __slots__ = ("batch", "index", "payload", "future", "seq", "attempts")

    def __init__(self, batch: "PoolBatch", index: int, payload: dict) -> None:
        self.batch = batch
        self.index = index
        self.payload = payload
        self.future = None
        self.seq = 0
        self.attempts = 0


class PoolBatch:
    """Items submitted together to a :class:`WorkerPool`.

    :meth:`wait` collects them in submission order.  Each unique item
    reports one ``done/total`` line, however often it was retried.
    """

    def __init__(self, pool: "WorkerPool", worker: Callable[[dict], dict],
                 labels: dict, decode: Callable[[dict], object],
                 timeout_s: float | None, retries: int,
                 emit: Callable[[str], None]) -> None:
        self.pool = pool
        self.worker = worker
        self.labels = labels
        self.decode = decode
        self.timeout_s = timeout_s
        self.retries = retries
        self.emit = emit
        self.tasks: list[_Task] = []

    def wait(self, results: list) -> None:
        """Block until every item is done, decoding each answer into
        ``results[index]``; raises :class:`CellError` for an item that
        used up its retries."""
        total = len(self.tasks)
        for done, task in enumerate(self.tasks, 1):
            results[task.index] = self.decode(self.pool._settle(task))
            self.emit(f"[runner] {done}/{total} {self.labels[task.index]}: "
                      "simulated on pool")
        # tasks point back at their batch: break the cycle, so the
        # payloads and answers are freed now, not at the next GC pass
        self.tasks.clear()


class WorkerPool:
    """A process pool that outlives one batch, with retry on crash/timeout.

    :meth:`submit` queues a batch and returns at once, so a caller can
    keep the workers busy with later batches while it consumes earlier
    ones.  An item whose worker raises (including :class:`CellTimeout`)
    is charged one attempt and resubmitted.  A worker that *dies* breaks
    the whole executor, failing every item still on it: the executor is
    replaced and every such item resubmitted, but only the oldest
    ``jobs`` of them can have been running (workers take items in
    submission order), so only those are charged an attempt.  Each charge
    emits one ``retry`` line; an item charged more than ``retries`` times
    raises :class:`CellError`.

    The executor is built through this module's ``ProcessPoolExecutor``
    attribute at first use, so a patched constructor is the one called.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._executor = None
        self._seq = 0
        self._inflight: set[_Task] = set()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down, dropping queued items."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def submit(self, worker: Callable[[dict], dict], payloads: dict,
               labels: dict, decode: Callable[[dict], object],
               timeout_s: float | None, retries: int,
               emit: Callable[[str], None]) -> PoolBatch:
        """Queue ``payloads`` (index -> worker payload) behind everything
        already submitted; ``batch.wait(results)`` collects them."""
        batch = PoolBatch(self, worker, labels, decode, timeout_s, retries,
                          emit)
        for index, payload in payloads.items():
            task = _Task(batch, index, payload)
            batch.tasks.append(task)
            self._start(task)
        return batch

    def _start(self, task: _Task) -> None:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        try:
            future = self._executor.submit(task.batch.worker, task.payload)
        except BrokenProcessPool:  # broke since the last look
            self._restart()
            future = self._executor.submit(task.batch.worker, task.payload)
        self._seq += 1
        task.seq = self._seq
        task.future = future
        self._inflight.add(task)

    def _settle(self, task: _Task) -> dict:
        """The worker's answer for ``task``, retrying it as needed."""
        while True:
            try:
                answer = task.future.result()
            except BrokenProcessPool:
                self._restart()
            except Exception as exc:  # the worker raised (or timed out)
                self._charge(task, exc)
                self._start(task)
            else:
                self._inflight.discard(task)
                task.future = task.payload = None
                return answer

    def _restart(self) -> None:
        """Replace a broken executor and resubmit what it failed."""
        if self._executor is not None:
            # joins the executor's manager thread: every item still on
            # the broken executor has failed once this returns
            self._executor.shutdown(wait=True)
            self._executor = None
        failed = sorted(
            (task for task in self._inflight
             if task.future.done() and not task.future.cancelled()
             and isinstance(task.future.exception(), BrokenProcessPool)),
            key=lambda task: task.seq,
        )
        # off the books first: should the new executor break during the
        # resubmission, its suspects are the items already on it
        self._inflight.difference_update(failed)
        for task in failed[:self.jobs]:
            self._charge(task, task.future.exception())
        for task in failed:
            self._start(task)

    def _charge(self, task: _Task, exc: BaseException) -> None:
        """Count one failed attempt; raise once retries are used up."""
        batch = task.batch
        label = batch.labels[task.index]
        task.attempts += 1
        timed_out = isinstance(exc, CellTimeout)
        if task.attempts > batch.retries:
            if timed_out:
                raise CellError(
                    f"cell {label} timed out after "
                    f"{batch.timeout_s}s ({task.attempts} attempt(s))"
                ) from exc
            raise CellError(
                f"cell {label} failed after "
                f"{task.attempts} attempt(s): {exc}"
            ) from exc
        reason = "timed out" if timed_out else f"crashed ({type(exc).__name__})"
        batch.emit(f"[runner] {label}: {reason}, "
                   f"retry {task.attempts}/{batch.retries}")


def pool_map(
    worker: Callable[[dict], dict],
    payloads: dict,
    labels: dict,
    pending: Sequence[int],
    results: list,
    decode: Callable[[dict], object],
    jobs: int,
    timeout_s: float | None,
    retries: int,
    emit: Callable[[str], None],
) -> None:
    """One-shot fan-out of ``pending`` over a private :class:`WorkerPool`.

    ``payloads``/``labels`` map each pending index to the worker payload
    and its progress label; ``decode`` turns each worker answer back into
    the caller's result type.
    """
    with WorkerPool(min(jobs, len(pending))) as pool:
        pool.submit(worker, {index: payloads[index] for index in pending},
                    labels, decode, timeout_s, retries, emit).wait(results)


# -- litmus fan-out -------------------------------------------------------------
#
# The litmus analogue of the cell worker: a (test, policy, schedule)
# triple crosses the process boundary as JSON (the DSL is JSON-able by
# design), the worker rebuilds everything from names, and the outcome
# comes back as a plain dict.  Postconditions are code and cannot cross;
# registry tests reattach theirs by name, anything else runs inline.


def litmus_run_label(test, policy_name: str, schedule) -> str:
    return f"{test.name}@{policy_name}@{schedule.label()}"


def litmus_payload(test, policy_name: str, schedule, max_events: int,
                   coverage: bool, timeout_s: float | None) -> dict | None:
    """Serialize one litmus run for the pool, or None if it cannot cross
    the process boundary (a non-registry postcondition closure)."""
    registry_post = False
    if test.postcondition is not None:
        from repro.verify.litmus.registry import REGISTRY

        registered = REGISTRY.get(test.name)
        if registered is not None and registered.to_json() == test.to_json():
            registry_post = True
        else:
            return None
    return {
        "test": test.to_json(),
        "registry_postcondition": registry_post,
        "policy": policy_name,
        "schedule": schedule.to_json(),
        "max_events": max_events,
        "coverage": coverage,
        "timeout_s": timeout_s,
    }


def litmus_worker(payload: dict) -> dict:
    """Worker entry point: rebuild the litmus run, execute, return a dict."""
    from repro.verify.litmus.dsl import LitmusTest
    from repro.verify.litmus.harness import outcome_to_dict, run_litmus
    from repro.verify.litmus.schedule import Schedule

    test = LitmusTest.from_json(payload["test"])
    if payload.get("registry_postcondition"):
        from repro.verify.litmus.registry import get_litmus

        test = get_litmus(test.name)
    with _alarm(payload.get("timeout_s")):
        outcome = run_litmus(
            test,
            policy_name=payload["policy"],
            schedule=Schedule.from_json(payload["schedule"]),
            max_events=payload["max_events"],
            coverage=payload["coverage"],
        )
    return outcome_to_dict(outcome)


def default_progress(line: str) -> None:
    """A ready-made progress sink: one line per event on stderr."""
    print(line, file=sys.stderr, flush=True)
