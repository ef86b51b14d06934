"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Workloads: ``figures`` (cold paper reproduction), ``litmus`` (serial
differential sweep), ``fuzz`` (coverage-guided campaign) and ``warm``
(store re-queries); README.md says what each one stresses and why.

The run imports the program and sets the workload up three times each
and reports the median set-up time, then repeats the job in a closed loop
for ``--seconds`` and reports the median over blocks of back-to-back jobs
(see ``BLOCK_S``) of the mean job time.  With ``--trace 1`` it alternates
untraced and traced repetitions and prints the per-layer metrics
instead; for the pooled workloads one extra traced repetition runs in-process with one
job, so that the work done inside pool workers is visible.  Spans of the
traced run are written to ``.perfbench_out/``.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only if the run completed; ``correct`` says whether
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("figures", "litmus", "fuzz", "warm")

#: set-ups per run; ``setup_s`` is their median (plus the import time)
SETUPS = 3

#: a block repeats the job back to back until it has run this long;
#: ``job_s`` is the median over blocks of the mean job time in a block,
#: so a job much shorter than the host's bursts of slowdown (seconds
#: long) is still timed over several of them
BLOCK_S = 1.5

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

#: per-layer metric -> unit, in the order README.md documents them
PER_LAYER = {
    "system.build.count": "count",
    "system.build.s": "s",
    "system.build.ms_p50": "ms",
    "system.build.ms_p90": "ms",
    "workloads.gen.s": "s",
    "workloads.gen.ms_p50": "ms",
    "sim.run.s": "s",
    "sim.run.ms_p50": "ms",
    "sim.run.ms_p90": "ms",
    "sim.events_per_s": "1/s",
    "sim.events": "count",
    "sim.net_messages": "count",
    "coherence.dir_probes": "count",
    "mem.dir_accesses": "count",
    "mem.llc_hit_ratio": "ratio",
    "verify.invariant_checks": "count",
    "verify.loads_checked": "count",
    "verify.collect.s": "s",
    "serialize.calls": "count",
    "serialize.s": "s",
    "store.key.s": "s",
    "store.get.s": "s",
    "store.get.ms_p50": "ms",
    "store.put.s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.hit_ratio": "ratio",
    "runner.pools_started": "count",
    "runner.pool.s": "s",
    "runner.inline.s": "s",
    "runner.retries": "count",
    "runner.pool_overhead_s": "s",
    "litmus.run.count": "count",
    "litmus.run.ms_p50": "ms",
    "litmus.run.ms_p95": "ms",
    "litmus.build_share": "ratio",
    "fuzz.gen.s": "s",
    "fuzz.search.s": "s",
    "fuzz.minimize.s": "s",
    "fuzz.failure_minimize.s": "s",
    "fuzz.orchestration.s": "s",
    "fuzz.shrink_runs": "count",
    "fuzz.shrink_accept_ratio": "ratio",
    "fuzz.novel_run_ratio": "ratio",
    "fuzz.entries": "count",
    "fuzz.coverage_pct": "%",
    "analysis.fig4_err_pp": "pp",
    "analysis.fig5_err_pp": "pp",
    "analysis.fig6_err_pp": "pp",
    "analysis.fig7_err_pp": "pp",
    "trace.overhead_ratio": "ratio",
}

#: per-layer metrics a pooled workload takes from its pooled traced
#: repetitions rather than from the in-process one
POOL_SIDE = ("runner.pools_started", "runner.pool.s", "runner.retries")

#: per-layer metrics that are results of the job (``Rep.extras``), not
#: span measurements; 0 on workloads that do not produce them
RESULTS = (
    "analysis.fig4_err_pp",
    "analysis.fig5_err_pp",
    "analysis.fig6_err_pp",
    "analysis.fig7_err_pp",
    "fuzz.coverage_pct",
    "fuzz.entries",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: run in a fresh interpreter to time one more import of the program
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; "
    "started = time.perf_counter(); import jobs; "
    "print(time.perf_counter() - started)"
)


def load_jobs():
    """Import the program (timed: imports are part of set-up)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    started = time.perf_counter()
    import jobs

    return jobs, time.perf_counter() - started


def import_seconds(first: float) -> float:
    """Median import time over this process and ``SETUPS - 1`` fresh
    interpreters, each waited for."""
    samples = [first]
    for _ in range(SETUPS - 1):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
             str(ROOT / "perfbench")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


class Runner:
    """One benchmark run: set-up, the closed loop, checks and metrics."""

    def __init__(self, jobs_module, workload: str, seed: int, seconds: float,
                 trace: bool, scratch: str, tiny: bool = False) -> None:
        self.jobs = jobs_module
        self.job = jobs_module.WORKLOADS[workload](seed, scratch, tiny)
        self.seconds = seconds
        self.trace = trace
        self.reps = []          # (seconds, Rep) of untraced repetitions
        self.blocks = []        # mean seconds per job of each block
        self.traced = []        # (seconds, Rep, Tracer) of traced ones
        self.inline = None      # (seconds, Rep, Tracer) of the 1-job one
        self.extra = None       # Rep of Job.check()

    def setup(self) -> float:
        times = []
        for _ in range(SETUPS):
            started = time.perf_counter()
            self.job.setup()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    def repetition(self, jobs: int, tracer=None):
        ctx = self.job.fresh()
        retries_before = self.job.retries
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            rep = self.job.run(ctx, jobs, tracer)
            elapsed = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
            self.job.release(ctx)
        if tracer is not None:
            tracer.counters["runner.retries"] += self.job.retries - retries_before
        return elapsed, rep.seal()

    def loop(self) -> None:
        from spans import Tracer

        jobs = self.jobs.JOBS
        deadline = time.perf_counter() + self.seconds
        while True:
            started = time.perf_counter()
            block = [self.repetition(jobs)]
            while sum(t for t, _rep in block) < BLOCK_S:
                block.append(self.repetition(jobs))
            self.reps += block
            self.blocks.append(statistics.fmean(t for t, _rep in block))
            if self.trace:
                tracer = Tracer()
                self.traced.append((*self.repetition(jobs, tracer), tracer))
            lap = time.perf_counter() - started
            if time.perf_counter() + lap > deadline:
                break
        if self.trace and self.job.pooled:
            tracer = Tracer()
            self.inline = (*self.repetition(1, tracer), tracer)
        self.extra = self.job.check()
        # read before any other child process (the import probes) exists
        self.peak_rss_mb = sum(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0

    def all_reps(self):
        reps = [rep for _t, rep in self.reps]
        reps += [rep for _t, rep, _tr in self.traced]
        if self.inline is not None:
            reps.append(self.inline[1])
        return reps

    def errors(self) -> list[str]:
        reps = self.all_reps()
        errors = [error for rep in reps + [self.extra] for error in rep.errors]
        fingerprints = {rep.fingerprint for rep in reps}
        if len(fingerprints) != 1:
            errors.append(f"simulated statistics differ between repetitions: "
                          f"{sorted(fingerprints)}")
        return errors

    def end_to_end(self, setup_s: float, attempted: int, failed: int) -> dict:
        return {
            "setup_s": setup_s,
            "job_s": statistics.median(self.blocks),
            "peak_rss_mb": self.peak_rss_mb,
            "ok_ratio": (attempted - failed) / attempted,
        }

    def per_layer(self) -> dict:
        import spans

        pooled = spans.median_metrics(
            [spans.layer_metrics(tracer) for _t, _rep, tracer in self.traced]
        )
        if self.inline is not None:
            metrics = spans.layer_metrics(self.inline[2])
            metrics.update({key: pooled[key] for key in POOL_SIDE})
            op_s = spans.pooled_op_s(self.inline[2])
            metrics["runner.pool_overhead_s"] = (
                pooled["runner.pool.s"] - op_s / self.jobs.JOBS
            )
        else:
            metrics = pooled
            metrics["runner.pool_overhead_s"] = 0.0
        extras = self.reps[0][1].extras
        metrics.update({name: float(extras.get(name, 0.0)) for name in RESULTS})
        metrics["trace.overhead_ratio"] = (
            statistics.median(t for t, _rep, _tr in self.traced)
            / statistics.median(self.blocks)
        )
        return metrics

    def spans_tracer(self):
        return self.inline[2] if self.inline is not None else self.traced[-1][2]


def run(jobs_module, workload: str, seed: int, seconds: float, trace: bool,
        import_s, tiny: bool = False) -> tuple[dict, list[str]]:
    """One full benchmark run; returns the result object and the
    human-readable summary lines.  ``import_s()`` gives the import time;
    it is called after the measured part."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    runner = Runner(jobs_module, workload, seed, seconds, trace, scratch, tiny)
    try:
        setup_s = runner.setup()
        runner.loop()
    finally:
        runner.job.close()
        shutil.rmtree(scratch, ignore_errors=True)

    reps = runner.all_reps() + [runner.extra]
    attempted = sum(rep.ops for rep in reps)
    failed = sum(rep.failed for rep in reps)
    errors = runner.errors()
    if trace:
        import spans

        values = runner.per_layer()
        units = PER_LAYER
        path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        spans.write_spans(runner.spans_tracer(), str(path),
                          {"workload": workload, "seed": seed})
    else:
        values = runner.end_to_end(setup_s + import_s(), attempted, failed)
        units = END_TO_END
    rep = runner.reps[0][1]
    lines = [
        f"[perfbench] {workload} seed={seed}: {len(runner.reps)} untraced + "
        f"{len(runner.traced)} traced repetition(s), {attempted} operations, "
        f"{failed} failed",
        f"[perfbench] fingerprint {rep.fingerprint}",
        f"[perfbench] job seconds per block ({len(runner.reps)} jobs): "
        + " ".join(f"{t:.4f}" for t in runner.blocks),
    ]
    lines += [f"[perfbench] {key} = {value:.4f}"
              for key, value in sorted(rep.extras.items())]
    lines += [f"[perfbench] CHECK FAILED: {error}" for error in errors]
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs_module, import_s = load_jobs()
    result, lines = run(jobs_module, args.workload, args.seed, args.seconds,
                        bool(args.trace), lambda: import_seconds(import_s))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
