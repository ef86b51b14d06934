"""Tests of the benchmark itself, at tiny size.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans

ROOT = Path(__file__).resolve().parent.parent
JOBS, _IMPORT_S = run.load_jobs()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def traced_rep(job, jobs=1):
    """One traced repetition of a tiny job, after its set-up."""
    job.setup()
    tracer = spans.Tracer()
    ctx = job.fresh()
    tracer.install()
    try:
        started = time.perf_counter()
        rep = job.run(ctx, jobs, tracer)
        wall = time.perf_counter() - started
    finally:
        tracer.uninstall()
        job.release(ctx)
        job.close()
    return rep, tracer, wall


@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_end_to_end(workload, trace):
    result, lines = run.run(JOBS, workload, seed=0, seconds=0.01,
                            trace=trace, import_s=lambda: 0.0, tiny=True)
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    if not trace:
        assert all(result["metrics"][name]["value"] > 0
                   for name in run.END_TO_END)
    # the result is the last line and parses on its own
    assert json.loads(json.dumps(result)) == result


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert spec["paths"] == ["perfbench"]


def test_self_times_are_non_negative_and_fit_in_the_wall_time(scratch):
    job = JOBS.WORKLOADS["litmus"](0, scratch, tiny=True)
    _rep, tracer, wall = traced_rep(job)
    index = spans.SpanIndex(tracer.spans)
    assert index.spans and all(t >= 0 for t in index.self_time)
    assert index.self_total() <= wall


def test_litmus_wrappers_see_every_run(scratch):
    job = JOBS.WORKLOADS["litmus"](0, scratch, tiny=True)
    rep, tracer, _wall = traced_rep(job)
    metrics = spans.layer_metrics(tracer)
    # harness imports build_system by name: a missed binding reads 0 here
    assert metrics["system.build.count"] == rep.ops
    assert metrics["litmus.run.count"] == rep.ops
    assert metrics["verify.invariant_checks"] > 0
    assert metrics["verify.loads_checked"] > 0
    assert 0 < metrics["litmus.build_share"] < 1
    assert metrics["sim.events"] > 0 and metrics["sim.run.s"] > 0


def test_figures_wrappers_see_every_cell_in_process(scratch):
    job = JOBS.WORKLOADS["figures"](0, scratch, tiny=True)
    rep, tracer, _wall = traced_rep(job, jobs=1)
    metrics = spans.layer_metrics(tracer)
    index = spans.SpanIndex(tracer.spans)
    assert index.count("runner.cell") == rep.ops
    assert metrics["system.build.count"] == rep.ops
    assert index.count("workloads.gen") == rep.ops
    assert metrics["store.misses"] == rep.ops
    assert index.count("store.put") == rep.ops
    assert metrics["runner.inline.s"] > 0 and metrics["runner.pool.s"] == 0
    assert metrics["sim.events"] > 0 and metrics["coherence.dir_probes"] > 0
    assert spans.pooled_op_s(tracer) > 0


def test_figures_pool_is_counted(scratch):
    job = JOBS.WORKLOADS["figures"](0, scratch, tiny=True)
    _rep, tracer, _wall = traced_rep(job, jobs=2)
    metrics = spans.layer_metrics(tracer)
    assert metrics["runner.pools_started"] >= 1
    assert metrics["runner.pool.s"] > 0
    assert metrics["system.build.count"] == 0  # builds ran in the workers


def test_warm_pass_reads_the_store_and_builds_nothing(scratch):
    job = JOBS.WORKLOADS["warm"](0, scratch, tiny=True)
    rep, tracer, _wall = traced_rep(job)
    metrics = spans.layer_metrics(tracer)
    assert not rep.errors
    assert metrics["store.hits"] == rep.ops and metrics["store.misses"] == 0
    assert metrics["system.build.count"] == 0
    assert metrics["serialize.calls"] == rep.ops
    assert spans.SpanIndex(tracer.spans).count("store.key") == rep.ops


def test_fuzz_wrappers_split_the_campaign(scratch):
    job = JOBS.WORKLOADS["fuzz"](0, scratch, tiny=True)
    rep, tracer, _wall = traced_rep(job)
    metrics = spans.layer_metrics(tracer)
    index = spans.SpanIndex(tracer.spans)
    programs = job.budget // 3
    assert index.count("fuzz.gen") == programs
    assert rep.extras["fuzz.entries"] >= 1
    assert metrics["fuzz.search.s"] > 0 and metrics["fuzz.minimize.s"] > 0
    assert metrics["fuzz.orchestration.s"] >= 0
    assert metrics["fuzz.shrink_runs"] > 0
    assert 0 < metrics["fuzz.shrink_accept_ratio"] <= 1
    assert 0 < metrics["fuzz.novel_run_ratio"] <= 1
    # search runs + shrink runs are every litmus run the campaign made
    assert metrics["litmus.run.count"] == rep.ops + metrics["fuzz.shrink_runs"]


def test_uninstall_restores_every_binding():
    import repro.system.builder as builder
    import repro.verify.litmus.harness as harness
    from repro.runner import executor
    from repro.system.apu import ApuSystem

    before = (builder.build_system, harness.build_system,
              ApuSystem.run_workload, executor.ProcessPoolExecutor)
    tracer = spans.Tracer().install()
    assert harness.build_system is not before[1]
    tracer.uninstall()
    after = (builder.build_system, harness.build_system,
             ApuSystem.run_workload, executor.ProcessPoolExecutor)
    assert after == before


def test_same_seed_same_fingerprint_other_seed_other_inputs(scratch):
    first = JOBS.WORKLOADS["litmus"](0, scratch, tiny=True)
    second = JOBS.WORKLOADS["litmus"](0, scratch, tiny=True)
    other = JOBS.WORKLOADS["litmus"](1, scratch, tiny=True)
    for job in (first, second, other):
        job.setup()
    prints = [job.run(None, 1).seal().fingerprint
              for job in (first, second, other)]
    assert prints[0] == prints[1] != prints[2]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figures",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
