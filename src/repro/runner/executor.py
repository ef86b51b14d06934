"""Process-pool execution primitives for cells and litmus runs.

:func:`repro.store.resolve.resolve_cells` and ``resolve_litmus`` decide
*what* to run; this module runs it:

- :func:`run_cell_inline` / :func:`run_inline` — the serial in-process
  reference path;
- :func:`pool_map` — fan-out over a :class:`ProcessPoolExecutor` with a
  per-item timeout (SIGALRM inside the worker, where available) and
  bounded retries for crashed *or* timed-out items;
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
from concurrent.futures import ProcessPoolExecutor, as_completed
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
    """Generic process-pool fan-out with retry on crash/timeout.

    ``payloads``/``labels`` map each pending index to the worker payload
    and its progress label; ``decode`` turns each worker answer back into
    the caller's result type.  Progress accounting counts each *unique*
    item exactly once: an item that times out or crashes and then
    succeeds on retry contributes one ``done/total`` line, and ``total``
    never inflates with re-attempts.
    """
    attempts = dict.fromkeys(pending, 0)
    done = 0
    total = len(pending)
    queue = list(pending)
    while queue:
        # A fresh pool per round also recovers from BrokenProcessPool.
        with ProcessPoolExecutor(max_workers=min(jobs, len(queue))) as pool:
            futures = {pool.submit(worker, payloads[i]): i for i in queue}
            queue = []
            for future in as_completed(futures):
                index = futures[future]
                label = labels[index]
                try:
                    results[index] = decode(future.result())
                except Exception as exc:  # timeout, crash, BrokenProcessPool
                    attempts[index] += 1
                    timed_out = isinstance(exc, CellTimeout)
                    if attempts[index] > retries:
                        if timed_out:
                            raise CellError(
                                f"cell {label} timed out after "
                                f"{timeout_s}s ({attempts[index]} attempt(s))"
                            ) from exc
                        raise CellError(
                            f"cell {label} failed after "
                            f"{attempts[index]} attempt(s): {exc}"
                        ) from exc
                    reason = (
                        "timed out" if timed_out
                        else f"crashed ({type(exc).__name__})"
                    )
                    emit(
                        f"[runner] {label}: {reason}, "
                        f"retry {attempts[index]}/{retries}"
                    )
                    queue.append(index)
                else:
                    done += 1
                    emit(f"[runner] {done}/{total} {label}: simulated on pool")


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
