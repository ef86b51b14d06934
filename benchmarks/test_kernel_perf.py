"""Kernel microbenchmark suite (perf trajectory).

Times the simulation kernel — raw event-queue dispatch, the fabric
message path (flat and contended), one real figure-pipeline cell — plus
system construction (``system_build``) and a 2-job fuzz campaign
(``fuzz_campaign``), and emits
``BENCH_kernel.json`` at the repo root (override with ``$REPRO_BENCH_OUT``).
The committed ``BENCH_kernel.json`` is the perf-trajectory baseline; the CI
perf-smoke job re-runs this suite and fails on a >30% calibrated
events/sec (builds/sec for ``system_build``, runs/sec for
``fuzz_campaign``) regression (see
``benchmarks/kernel_perf.py --gate``).

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workloads but
exercises the same code paths.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from kernel_perf import REPO_ROOT, gate, rate_of, run_suite  # noqa: E402

_QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))


@pytest.fixture(scope="module")
def report() -> dict:
    result = run_suite(quick=_QUICK, repeats=2 if _QUICK else 3)
    out = pathlib.Path(os.environ.get("REPRO_BENCH_OUT",
                                      REPO_ROOT / "BENCH_kernel.json"))
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"\nkernel perf report written to {out}")
    for name, bench in result["benchmarks"].items():
        print(f"  {name:<20} {rate_of(name, bench):>12,.1f}/s "
              f"(calibrated {bench['calibrated_score']:.4g})")
    return result


def test_event_queue_throughput_is_sane(report):
    bench = report["benchmarks"]["event_queue"]
    assert bench["events"] > 0
    # even a slow CI box dispatches well over 100k closure events/sec
    assert bench["events_per_sec"] > 100_000


def test_network_path_throughput_is_sane(report):
    bench = report["benchmarks"]["network"]
    assert bench["messages"] > 0
    assert bench["messages_per_sec"] > 10_000
    # every message costs exactly two events: delivery + serialized handling
    assert bench["events"] == pytest.approx(2 * bench["messages"], rel=0.01)


def test_contended_network_path_throughput_is_sane(report):
    bench = report["benchmarks"]["network_contended"]
    assert bench["messages"] > 0
    assert bench["messages_per_sec"] > 5_000
    # port serialization + WRR arbitration add events per message
    # (arrival, grant-completion, delivery, handling) on the dir-bound leg
    assert bench["events"] > 2 * bench["messages"]


def test_figure_slice_runs_and_reports_events(report):
    bench = report["benchmarks"]["figure_slice"]
    assert bench["ok"], "figure-pipeline cell failed its functional checks"
    assert bench["events"] > 1_000
    assert bench["simulated_ticks"] > 0
    assert bench["network_messages"] > 0


def test_system_build_rate_is_sane(report):
    bench = report["benchmarks"]["system_build"]
    rates = bench["per_config_builds_per_sec"]
    assert set(rates) == {"small", "ryzen_2200g"}
    assert bench["builds"] > 0
    # the small config builds in a few ms, far faster than Table II's
    assert rates["small"] > rates["ryzen_2200g"] > 0
    assert min(rates.values()) <= bench["builds_per_sec"] <= max(rates.values())
    assert bench["calibrated_score"] == pytest.approx(
        bench["builds_per_sec"] / report["calibration_ops_per_sec"]
    )


def test_fuzz_campaign_row_is_sane(report):
    bench = report["benchmarks"]["fuzz_campaign"]
    assert bench["runs"] == bench["budget"] == 150
    assert bench["failures"] == 0 and bench["entries"] > 0
    assert bench["runs_per_sec"] > 0


def test_calibration_is_the_median_of_its_blocks(report):
    blocks = report["calibration_blocks"]
    # one block before the first benchmark and one after each
    assert len(blocks) == len(report["benchmarks"]) + 1
    assert min(blocks) <= report["calibration_ops_per_sec"] <= max(blocks)


def test_report_is_gateable(report):
    """The emitted report must round-trip through the CI perf gate."""
    assert gate(report, report) == []  # identical report always passes
    slower = json.loads(json.dumps(report))
    for bench in slower["benchmarks"].values():
        bench["calibrated_score"] *= 0.5  # a 2x regression must fail
    assert gate(slower, report) != []
