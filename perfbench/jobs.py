"""The benchmark's four workloads: the user job each one runs, and how
its output is checked.

Every workload follows one cycle, driven by ``run.py``:

- :meth:`Job.setup` builds the inputs from the seed (set-up time);
- :meth:`Job.fresh` makes the per-repetition state that must start empty,
  such as a store or a corpus directory (not timed);
- :meth:`Job.run` is one repetition of the job, checks included (timed);
- :meth:`Job.check` runs the checks that need more than one repetition.

A repetition returns a :class:`Rep`: how many operations it attempted
(figure cells, litmus runs or fuzz runs), how many failed, what went
wrong, and a fingerprint over every simulated statistic it produced, so
a change meant to alter speed only can show that no simulated number
moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

from repro.analysis.experiments import (
    FIG4_POLICIES,
    FIG5_POLICIES,
    FIGURE6_BENCHMARKS,
    TRACKING_POLICIES,
    ExperimentMatrix,
    figure5_reduction,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
)
from repro.coherence.policies import PRESETS
from repro.runner import Cell
from repro.store import ResultStore, resolve_cells, resolve_litmus
from repro.system.apu import SimulationResult
from repro.system.config import SystemConfig
from repro.system.serialize import result_to_dict
from repro.verify.fuzz.campaign import DEFAULT_POLICIES, run_campaign
from repro.verify.fuzz.coverage import report_json
from repro.verify.litmus import (
    POLICY_VARIANTS,
    REGISTRY,
    get_litmus,
    run_differential,
)
from repro.verify.litmus.harness import outcome_to_dict
from repro.verify.litmus.schedule import SCHEDULE_VARIANTS, Schedule, variant_of
from repro.workloads.registry import available_workloads

#: pool workers for the jobs that fan out: 2, the core count of the
#: measurement host, and never more workers than cores
JOBS = min(2, os.cpu_count() or 1)

#: the paper's gem5 averages the figures workload is scored against
PAPER = {"fig4": 1.68, "fig5": 50.4, "fig6": 14.4, "fig7": 80.3}


@dataclass
class Rep:
    """What one repetition of a job did."""

    ops: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: JSON-able rows holding every simulated statistic the job produced;
    #: :meth:`seal` folds them into ``fingerprint`` outside the timed part
    rows: list = field(default_factory=list)
    fingerprint: str = ""
    #: workload-specific results (fidelity, coverage, corpus size)
    extras: dict[str, float] = field(default_factory=dict)

    def seal(self) -> "Rep":
        """Fingerprint the rows, then drop them."""
        if self.rows:
            self.fingerprint = digest(self.rows)
            self.rows = []
        return self


def digest(rows) -> str:
    """sha256 over canonical JSON rows (litmus outcomes as their stored
    dict): the simulated-statistics fingerprint of a repetition."""
    hasher = hashlib.sha256()
    for row in rows:
        hasher.update(
            json.dumps(row, sort_keys=True, default=outcome_to_dict).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


class Job:
    """One workload.  ``tiny`` shrinks every dimension for the tests."""

    name = ""
    #: whether the job fans out over a process pool (its per-layer
    #: figures then come from an extra in-process repetition)
    pooled = False

    def __init__(self, seed: int, scratch: str, tiny: bool = False) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tiny = tiny
        self.retries = 0

    def setup(self) -> None:
        raise NotImplementedError

    def fresh(self):
        return None

    def release(self, ctx) -> None:
        pass

    def run(self, ctx, jobs: int, tracer=None) -> Rep:
        raise NotImplementedError

    def check(self) -> Rep:
        return Rep(ops=0)

    def close(self) -> None:
        """Release what :meth:`setup` holds open."""

    def progress(self, line: str) -> None:
        """Progress sink for the runner: counts pool retries."""
        if ", retry " in line:
            self.retries += 1

    def _tempdir(self) -> str:
        return tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)


# -- figures: the paper reproduction, cold -------------------------------------


def figure_pairs(tiny: bool) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """Benchmarks of Figures 4/5 and 6/7 and every unique (workload,
    policy) cell behind them."""
    fig45 = ["tq"] if tiny else available_workloads()
    fig67 = ["tq"] if tiny else list(FIGURE6_BENCHMARKS)
    pairs = [(bench, policy) for bench in fig45
             for policy in ["baseline"] + FIG4_POLICIES + FIG5_POLICIES]
    pairs += [(bench, policy) for bench in fig67
              for policy in ["baseline"] + TRACKING_POLICIES]
    return fig45, fig67, list(dict.fromkeys(pairs))


def figure_cells(seed: int, tiny: bool) -> list[Cell]:
    _fig45, _fig67, pairs = figure_pairs(tiny)
    return [
        Cell(workload=bench,
             config=SystemConfig.benchmark(policy=PRESETS[policy]),
             scale=0.25 if tiny else 1.0, seed=seed,
             label=f"{bench}/{policy}")
        for bench, policy in pairs
    ]


def figure_errors(cells: list[Cell], results, tiny: bool) -> dict[str, float]:
    """|measured - paper| in percentage points, computed the way
    ``analysis/validate.py`` scores Figures 4-7."""
    fig45, fig67, pairs = figure_pairs(tiny)
    matrix = ExperimentMatrix(scale=cells[0].scale,
                              _cache=dict(zip(pairs, results)))
    fig4 = run_figure4(matrix, fig45)
    fig5 = run_figure5(matrix, fig45)
    fig6 = run_figure6(matrix, fig67)
    fig7 = run_figure7(matrix, fig67)
    measured = {
        "fig4": max(fig4.average("noWBcleanVic"), fig4.average("llcWB")),
        "fig5": figure5_reduction(fig5),
        "fig6": fig6.average("sharers"),
        "fig7": fig7.average("sharers"),
    }
    return {f"analysis.{fig}_err_pp": abs(measured[fig] - PAPER[fig])
            for fig in PAPER}


def _open_store(directory: str) -> ResultStore:
    store = ResultStore(os.path.join(directory, "store.sqlite"))
    len(store)  # open the database and create its schema
    return store


def _drop_store(store: ResultStore) -> None:
    store.close()
    shutil.rmtree(os.path.dirname(store.path), ignore_errors=True)


def _cell_rows(cells, results):
    return [[cell.display, result.stats] for cell, result in zip(cells, results)]


class Figures(Job):
    """Every Figure 4-7 cell resolved cold through ``resolve_cells``."""

    name = "figures"
    pooled = True

    def setup(self) -> None:
        self.cells = figure_cells(self.seed, self.tiny)
        self.release(self.fresh())

    def fresh(self) -> ResultStore:
        return _open_store(self._tempdir())

    def release(self, store: ResultStore) -> None:
        _drop_store(store)

    def run(self, store, jobs: int, tracer=None) -> Rep:
        results = resolve_cells(self.cells, store=store, jobs=jobs,
                                progress=self.progress)
        rep = Rep(ops=len(results))
        for cell, result in zip(self.cells, results):
            if not result.ok:
                rep.failed += 1
                rep.errors.append(f"{cell.display}: {result.check_errors[:2]}")
        if not rep.failed:
            rep.extras.update(figure_errors(self.cells, results, self.tiny))
        rep.rows = _cell_rows(self.cells, results)
        return rep


# -- litmus: the differential sweep, serial ----------------------------------------


def litmus_schedules(seed: int) -> list[Schedule]:
    """The canonical schedule plus one seeded jitter+tie-break schedule
    (rotation slot 0, so every seed lands on the same perturbation
    shape)."""
    perturbed = len(SCHEDULE_VARIANTS) * (seed + 1)
    return [Schedule(0), variant_of(perturbed).schedule(perturbed)]


class Litmus(Job):
    """``run_differential`` over the registry, as ``repro litmus`` runs it."""

    name = "litmus"

    def setup(self) -> None:
        names = sorted(REGISTRY)[:2] if self.tiny else sorted(REGISTRY)
        self.tests = [get_litmus(name) for name in names]
        self.policies = (
            {name: POLICY_VARIANTS[name] for name in DEFAULT_POLICIES}
            if self.tiny else dict(POLICY_VARIANTS)
        )
        self.schedules = litmus_schedules(self.seed)

    def run(self, ctx, jobs: int, tracer=None) -> Rep:
        rep = Rep(ops=0)
        for test in self.tests:
            report = run_differential(test, policies=self.policies,
                                      schedules=self.schedules)
            rep.ops += len(report.outcomes)
            rep.failed += len(report.failures) + len(report.mismatches)
            if not report.ok:
                rep.errors.append(report.describe())
            rep.rows.extend(report.outcomes)
        return rep


# -- fuzz: one coverage-guided campaign ----------------------------------------------

#: (litmus, policy, schedule) runs per measured campaign
FUZZ_BUDGET = 1000
#: runs per campaign of the 1-job vs 2-job determinism check
CHECK_BUDGET = 15


class Fuzz(Job):
    """``run_campaign`` with the default policies, no store, fresh corpus."""

    name = "fuzz"
    pooled = True

    def setup(self) -> None:
        self.budget = 2 * len(DEFAULT_POLICIES) if self.tiny else FUZZ_BUDGET
        self.release(self.fresh())

    def fresh(self) -> str:
        return self._tempdir()

    def release(self, corpus_dir: str) -> None:
        shutil.rmtree(corpus_dir, ignore_errors=True)

    def campaign(self, corpus_dir: str, budget: int, jobs: int):
        return run_campaign(self.seed, budget, corpus_dir,
                            policies=DEFAULT_POLICIES, jobs=jobs,
                            progress=self.progress)

    def run(self, corpus_dir: str, jobs: int, tracer=None) -> Rep:
        span = tracer.span("fuzz.campaign") if tracer else contextlib.nullcontext()
        with span:
            result = self.campaign(corpus_dir, self.budget, jobs)
        rep = Rep(ops=result.runs, failed=len(result.failures))
        if result.failures:
            rep.errors.append(f"campaign failures: {result.failures}")
        percents = [entry["percent"]
                    for entry in result.report_data["policies"].values()]
        rep.extras["fuzz.coverage_pct"] = sum(percents) / len(percents)
        rep.extras["fuzz.entries"] = result.new_entries
        rep.rows = [result.corpus_digest, report_json(result.report_data)]
        return rep

    def check(self) -> Rep:
        """The same seed gives the same corpus at 1 and at 2 jobs."""
        digests = []
        rep = Rep(ops=0)
        for jobs in (1, JOBS):
            corpus_dir = self.fresh()
            try:
                result = self.campaign(corpus_dir, CHECK_BUDGET, jobs)
            finally:
                self.release(corpus_dir)
            rep.ops += result.runs
            rep.failed += len(result.failures)
            digests.append(result.corpus_digest)
        if len(set(digests)) != 1:
            rep.errors.append(f"corpus digest differs between 1 and {JOBS} "
                              f"jobs: {digests}")
        return rep


# -- warm: re-query a filled store -----------------------------------------------------


class Warm(Job):
    """The figures cells and a litmus slice, answered from a store filled
    during set-up: zero simulations.

    Each timed pass compares its answers to the cold results by value;
    :meth:`check` makes one more pass and compares the serialized bytes,
    which costs twice the re-query itself and would otherwise dominate
    ``job_s``."""

    name = "warm"

    store: ResultStore | None = None

    def setup(self) -> None:
        self.close()
        self.cells = figure_cells(self.seed, self.tiny)
        names = sorted(REGISTRY)[:2] if self.tiny else sorted(REGISTRY)
        self.runs = [(get_litmus(name), policy, Schedule(0))
                     for name in names for policy in DEFAULT_POLICIES]
        self.store = _open_store(self._tempdir())
        cold = resolve_cells(self.cells, store=self.store, jobs=JOBS)
        outcomes = resolve_litmus(self.runs, store=self.store, jobs=JOBS)
        bad = [cell.display for cell, result in zip(self.cells, cold)
               if not result.ok]
        bad += [f"{outcome.test}@{outcome.policy}" for outcome in outcomes
                if not outcome.ok]
        if bad:
            raise RuntimeError(f"cold fill failed: {bad}")
        self.cold = cold + outcomes

    def close(self) -> None:
        if self.store is not None:
            _drop_store(self.store)
            self.store = None

    def requery(self, jobs: int) -> tuple[list, int]:
        """One warm pass: its answers and the systems it built."""
        with _count_builds() as builds:
            results = resolve_cells(self.cells, store=self.store, jobs=jobs,
                                    progress=self.progress)
            outcomes = resolve_litmus(self.runs, store=self.store, jobs=jobs)
        return results + outcomes, builds[0]

    def run(self, ctx, jobs: int, tracer=None) -> Rep:
        answers, builds = self.requery(jobs)
        rep = Rep(ops=len(answers))
        rep.failed = sum(1 for hot, cold in zip(answers, self.cold)
                         if hot != cold)
        if rep.failed:
            rep.errors.append(f"{rep.failed} warm result(s) differ from cold")
        if builds:
            rep.errors.append(f"warm pass built {builds} system(s)")
        rep.rows = (_cell_rows(self.cells, answers)
                    + answers[len(self.cells):])
        return rep

    def check(self) -> Rep:
        """Warm answers serialize byte-identically to the cold ones."""
        answers, _builds = self.requery(JOBS)
        rep = Rep(ops=len(answers))
        rep.failed = sum(1 for hot, cold in zip(answers, self.cold)
                         if _serialized(hot) != _serialized(cold))
        if rep.failed:
            rep.errors.append(f"{rep.failed} warm result(s) serialize "
                              "differently from cold")
        return rep


def _serialized(answer) -> str:
    data = (result_to_dict(answer) if isinstance(answer, SimulationResult)
            else outcome_to_dict(answer))
    return json.dumps(data, sort_keys=True)


@contextlib.contextmanager
def _count_builds():
    """Count ``build_system`` calls at every site that looks it up."""
    import repro.system.builder as builder
    import repro.verify.litmus.harness as harness

    count = [0]
    originals = [(module, module.build_system) for module in (builder, harness)]

    def counting(original):
        def build_system(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)
        return build_system

    for module, original in originals:
        module.build_system = counting(original)
    try:
        yield count
    finally:
        for module, original in originals:
            module.build_system = original


WORKLOADS = {job.name: job for job in (Figures, Litmus, Fuzz, Warm)}
