"""Simulation-kernel microbenchmarks (the perf-trajectory suite).

Timed benchmarks plus a machine-speed calibration score:

- ``event_queue`` — raw :class:`~repro.sim.event_queue.EventQueue`
  throughput: self-rescheduling callbacks through the inner ``run()`` loop.
- ``event_queue_calendar`` — the workload shape the calendar queue is built
  for: many lanes colliding on the same quantized ticks (deep same-tick
  buckets) plus standing far-future timers exercising the overflow heap.
- ``alloc_pooling`` — steady-state banked-memory churn through the pooled
  access/commit records and bound stat counters (the allocation-audit
  test pins that this path allocates ~nothing per access).
- ``network`` — two controllers ping-ponging messages across the star
  fabric, exercising ``Network.send``, route accounting, and delivery.
- ``network_contended`` — the same ping-pong on a finite-bandwidth fabric
  (8 bytes/cycle, WRR arbitration at the directory port), exercising the
  output-port serialization and input-arbitration paths.
- ``figure_slice`` — one real figure-pipeline cell (cedd on the baseline
  policy) timed end-to-end, events/sec taken from the event queue itself.
- ``system_build`` — ``build_system`` for the ``small`` and ``ryzen_2200g``
  configs with the sharer-tracking directory (262,144 entries in Table II);
  its score is the geometric mean of the two builds/sec rates.
- ``fuzz_campaign`` — one coverage-guided fuzz campaign (seed 0, budget
  150, the default policies) on 2 worker processes; its score is search
  runs/sec, so it covers the worker pool, pool start-up and corpus
  shrinking as well as the simulator.
- ``calibration`` — a fixed pure-Python integer loop, used to normalize
  events/sec across machines of different speeds (the CI perf gate
  compares *calibrated* ratios, not absolute numbers).  One block runs
  before the first benchmark and one after each, and the report keeps
  their median: a single block swung by up to ±20% between back-to-back
  suites, more than the rates it normalizes.

``run_suite`` returns a JSON-serializable report; ``main`` writes it to
``BENCH_kernel.json`` (or ``--output``).  The committed ``BENCH_kernel.json``
at the repo root is the perf-trajectory baseline that CI gates against.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.coherence.policies import PRESETS, SHARER_TRACKING  # noqa: E402
from repro.mem.main_memory import MainMemory  # noqa: E402
from repro.sim.clock import ClockDomain  # noqa: E402
from repro.sim.component import Controller  # noqa: E402
from repro.sim.event_queue import EventQueue, Simulator  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.system.builder import build_system  # noqa: E402
from repro.system.config import SystemConfig  # noqa: E402
from repro.verify.fuzz.campaign import run_campaign  # noqa: E402
from repro.workloads.registry import get_workload  # noqa: E402

#: bump when a benchmark's definition changes (invalidates old baselines).
#: v2: network_contended added; Network.send gained the shared accounting
#: helper, re-seeding every baseline.
#: v3: calendar event queue became the production kernel;
#: event_queue_calendar (clustered ticks + far-future timers) and
#: alloc_pooling (pooled banked-memory churn) added.
#: v4: system_build (small + ryzen_2200g with sharer tracking) added; cache
#: line views and directory entry slots became lazily allocated.
#: v5: calibration became the median of interleaved blocks; fuzz_campaign
#: (budget 150 at 2 jobs on one shared worker pool) added.
SUITE_VERSION = 5


# -- calibration -----------------------------------------------------------


def calibration_score(loops: int = 2_000_000) -> float:
    """Machine-speed proxy: fixed integer-arithmetic loop, ops/sec (one
    calibration block)."""
    start = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i & 0xFFFF
    elapsed = time.perf_counter() - start
    assert acc >= 0
    return loops / elapsed


# -- raw event-queue throughput -------------------------------------------


def bench_event_queue(num_events: int = 200_000) -> dict:
    """Self-rescheduling callbacks through ``EventQueue.run``."""
    queue = EventQueue()
    remaining = [num_events]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            queue.schedule_after(7, tick)

    # A modest standing population keeps the heap realistically deep.
    for lane in range(64):
        queue.schedule(lane + 1, tick)
    start = time.perf_counter()
    queue.run()
    elapsed = time.perf_counter() - start
    executed = queue.executed_events
    return {
        "events": executed,
        "seconds": elapsed,
        "events_per_sec": executed / elapsed,
    }


def bench_event_queue_calendar(num_events: int = 200_000) -> dict:
    """Clustered same-tick scheduling plus standing far-future timers.

    Route tables and clock periods quantize real-system delays onto a small
    set of tick offsets, so protocol bursts pile many events onto the same
    tick.  Here 64 lanes all reschedule with the same delay, keeping every
    bucket 64 deep (one dict probe + list append per event), while 8 timers
    parked beyond ``FAR_HORIZON`` keep the overflow heap exercised.
    """
    queue = EventQueue()
    remaining = [num_events]
    far_delay = EventQueue.FAR_HORIZON + 1

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            queue.schedule_after(8, tick)

    def far_timer() -> None:
        if remaining[0] > 0:
            queue.schedule_after(far_delay, far_timer)

    for _ in range(64):
        queue.schedule(8, tick)
    for _ in range(8):
        queue.schedule_after(far_delay, far_timer)
    start = time.perf_counter()
    queue.run()
    elapsed = time.perf_counter() - start
    executed = queue.executed_events
    return {
        "events": executed,
        "seconds": elapsed,
        "events_per_sec": executed / elapsed,
    }


# -- pooled banked-memory churn ---------------------------------------------


def bench_alloc_pooling(num_accesses: int = 60_000) -> dict:
    """Steady-state banked-memory read/write churn through the free lists.

    Four independent streams (two traffic classes across four banks) chase
    their own reads and writes back-to-back, so every access reuses a pooled
    ``_Access`` record, a pooled commit record, and bound stat counters.
    """
    sim = Simulator()
    clock = ClockDomain("bench", 1e9)
    memory = MainMemory(
        sim, clock, latency_cycles=20.0, gap_cycles=2.0,
        num_banks=4, row_bytes=256,
        arb_weights={"cpu": 4, "gpu": 2},
    )
    memory.set_classifier(lambda name: "cpu" if name.startswith("c") else "gpu")
    remaining = [num_accesses]

    def make_stream(source: str, base: int):
        addr = [base]

        def next_access(_data=None) -> None:
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            addr[0] = base + (addr[0] + 64) % 8192
            if remaining[0] % 3:
                memory.read(addr[0], next_access, source=source)
            else:
                memory.write(addr[0], None, source=source)
                memory.read(addr[0], next_access, source=source)

        return next_access

    streams = [make_stream(src, base) for src, base in
               [("c0", 0), ("c1", 1 << 20), ("g0", 2 << 20), ("g1", 3 << 20)]]
    start = time.perf_counter()
    for stream in streams:
        stream()
    sim.events.run()
    elapsed = time.perf_counter() - start
    events = sim.events.executed_events
    return {
        "accesses": num_accesses - remaining[0],
        "events": events,
        "seconds": elapsed,
        "events_per_sec": events / elapsed,
    }


# -- network send/deliver path --------------------------------------------


class _PingPong(Controller):
    """Echoes every message back to its source until the budget runs out."""

    def __init__(self, sim, name, clock, network):
        super().__init__(sim, name, clock, service_cycles=1.0)
        self.network = network
        self.budget = 0

    def handle_message(self, msg) -> None:
        if self.budget <= 0:
            return
        self.budget -= 1
        msg.src, msg.dst = msg.dst, msg.src
        self.network.send(msg)


class _BenchMsg:
    """Minimal duck-typed fabric message (src/dst/category/size_bytes)."""

    __slots__ = ("src", "dst", "category", "size_bytes")

    def __init__(self, src: str, dst: str) -> None:
        self.src = src
        self.dst = dst
        self.category = "request"
        self.size_bytes = 8


def _run_ping_pong(num_messages: int, link_bytes_per_cycle: int = 0) -> dict:
    sim = Simulator()
    clock = ClockDomain("bench", 1e9)
    network = Network(
        sim, clock, default_latency_cycles=10.0,
        link_bytes_per_cycle=link_bytes_per_cycle,
        arb_weights={"cpu": 4, "gpu": 2, "dma": 1},
    )
    a = _PingPong(sim, "a", clock, network)
    b = _PingPong(sim, "b", clock, network)
    network.attach(a, "l2")
    network.attach(b, "dir")
    network.set_latency("l2", "dir", 6.0)
    a.budget = num_messages // 2
    b.budget = num_messages - num_messages // 2
    start = time.perf_counter()
    network.send(_BenchMsg("a", "b"))
    sim.events.run()
    elapsed = time.perf_counter() - start
    sent = int(network.stats["messages"])
    return {
        "messages": sent,
        "events": sim.events.executed_events,
        "seconds": elapsed,
        "messages_per_sec": sent / elapsed,
        "events_per_sec": sim.events.executed_events / elapsed,
    }


def bench_network(num_messages: int = 100_000) -> dict:
    """Ping-pong messages across the fabric between two controllers."""
    return _run_ping_pong(num_messages)


def bench_network_contended(num_messages: int = 100_000) -> dict:
    """The same ping-pong on a finite-bandwidth, WRR-arbitrated fabric.

    Every message crosses the sender's serializing output port and the
    directory-side message additionally crosses the WRR input port — the
    hot path of the contention model."""
    return _run_ping_pong(num_messages, link_bytes_per_cycle=8)


# -- a real figure-pipeline slice -----------------------------------------


def bench_figure_slice(workload: str = "cedd", policy: str = "baseline",
                       scale: float = 1.0) -> dict:
    """One evaluation-matrix cell, timed end-to-end (build excluded)."""
    system = build_system(SystemConfig.benchmark(policy=PRESETS[policy]))
    wl = get_workload(workload)
    start = time.perf_counter()
    result = system.run_workload(wl, seed=0, scale=scale)
    elapsed = time.perf_counter() - start
    events = system.sim.events.executed_events
    return {
        "workload": workload,
        "policy": policy,
        "scale": scale,
        "ok": result.ok,
        "simulated_ticks": result.ticks,
        "events": events,
        "seconds": elapsed,
        "events_per_sec": events / elapsed,
        "network_messages": result.network_messages,
    }


# -- system build -----------------------------------------------------------


def bench_system_build(builds: int = 10) -> dict:
    """``build_system`` for a small and a Table II sharer-tracking config.

    Each config is built ``builds`` times; the score (``builds_per_sec``)
    is the geometric mean of the per-config rates, so the small config's
    build counts as much as the 262,144-entry directory's.
    """
    configs = {
        "small": SystemConfig.small(policy=SHARER_TRACKING),
        "ryzen_2200g": SystemConfig.ryzen_2200g(policy=SHARER_TRACKING),
    }
    rates: dict[str, float] = {}
    total = 0.0
    for name, config in configs.items():
        start = time.perf_counter()
        for _ in range(builds):
            build_system(config)
        elapsed = time.perf_counter() - start
        total += elapsed
        rates[name] = builds / elapsed
    return {
        "builds": builds * len(configs),
        "seconds": total,
        "per_config_builds_per_sec": rates,
        "builds_per_sec": statistics.geometric_mean(rates.values()),
    }


# -- fuzz campaign ----------------------------------------------------------


def bench_fuzz_campaign(budget: int = 150, jobs: int = 2) -> dict:
    """One fuzz campaign into a fresh corpus, timed end to end."""
    corpus_dir = tempfile.mkdtemp(prefix="kernel-perf-fuzz-")
    try:
        start = time.perf_counter()
        result = run_campaign(0, budget, corpus_dir, jobs=jobs)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    return {
        "budget": budget,
        "jobs": jobs,
        "runs": result.runs,
        "entries": result.new_entries,
        "failures": len(result.failures),
        "corpus_digest": result.corpus_digest,
        "seconds": elapsed,
        "runs_per_sec": result.runs / elapsed,
    }


# -- suite ------------------------------------------------------------------

#: the throughput each benchmark is scored (and gated) on
_RATE_KEY = {"system_build": "builds_per_sec",
             "fuzz_campaign": "runs_per_sec"}


def rate_of(name: str, bench: dict) -> float:
    return bench[_RATE_KEY.get(name, "events_per_sec")]


def run_suite(quick: bool = False, repeats: int = 3) -> dict:
    """Run every benchmark ``repeats`` times and keep the best run.

    Best-of-N damps scheduler noise; ``quick`` shrinks the workloads for
    smoke runs (CI, pytest) without changing what is exercised.
    """
    eq_n = 40_000 if quick else 200_000
    net_n = 20_000 if quick else 100_000
    mem_n = 12_000 if quick else 60_000
    build_n = 3 if quick else 10
    # the slice runs full-scale even in quick mode: events/sec at 0.25
    # scale sits systematically ~30% below full scale (fixed warmup
    # amortized over fewer events), which made the quick-mode CI gate
    # borderline against the committed full-mode baseline.
    slice_scale = 1.0

    blocks = [calibration_score()]

    def best(fn, *args, key: str):
        runs = [fn(*args) for _ in range(repeats)]
        blocks.append(calibration_score())
        return max(runs, key=lambda r: r[key])

    benchmarks = {
        "event_queue": best(bench_event_queue, eq_n, key="events_per_sec"),
        "event_queue_calendar": best(
            bench_event_queue_calendar, eq_n, key="events_per_sec",
        ),
        "alloc_pooling": best(
            bench_alloc_pooling, mem_n, key="events_per_sec",
        ),
        "network": best(bench_network, net_n, key="messages_per_sec"),
        "network_contended": best(
            bench_network_contended, net_n, key="messages_per_sec",
        ),
        "figure_slice": best(
            bench_figure_slice, "cedd", "baseline", slice_scale,
            key="events_per_sec",
        ),
        "system_build": best(
            bench_system_build, build_n, key="builds_per_sec",
        ),
        # full budget even in quick mode: pool start-up is amortized over
        # the campaign, so a smaller one would score systematically lower
        "fuzz_campaign": best(bench_fuzz_campaign, key="runs_per_sec"),
    }
    report = {
        "suite_version": SUITE_VERSION,
        "quick": quick,
        "repeats": repeats,
        "python": sys.version.split()[0],
        "calibration_ops_per_sec": statistics.median(blocks),
        "calibration_blocks": blocks,
        "benchmarks": benchmarks,
    }
    cal = report["calibration_ops_per_sec"]
    for name, bench in report["benchmarks"].items():
        bench["calibrated_score"] = rate_of(name, bench) / cal
    return report


def gate(fresh: dict, baseline: dict, tolerance: float = 0.30) -> list[str]:
    """Compare a fresh report against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  Scores are
    calibration-normalized so a slower CI machine does not trip the gate;
    a benchmark fails when its calibrated rate (events/sec; builds/sec for
    ``system_build``, runs/sec for ``fuzz_campaign``) drops more than
    ``tolerance`` below the baseline's.
    """
    failures: list[str] = []
    if baseline.get("suite_version") != fresh.get("suite_version"):
        return [
            "suite_version mismatch "
            f"(baseline {baseline.get('suite_version')} vs "
            f"fresh {fresh.get('suite_version')}); re-seed BENCH_kernel.json"
        ]
    for name, base in baseline["benchmarks"].items():
        now = fresh["benchmarks"].get(name)
        if now is None:
            failures.append(f"{name}: missing from fresh report")
            continue
        floor = base["calibrated_score"] * (1.0 - tolerance)
        if now["calibrated_score"] < floor:
            failures.append(
                f"{name}: calibrated score {now['calibrated_score']:.4g} "
                f"< floor {floor:.4g} "
                f"(baseline {base['calibrated_score']:.4g}, "
                f"tolerance {tolerance:.0%})"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(REPO_ROOT / "BENCH_kernel.json"),
                        help="where to write the report")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads (CI smoke)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--gate", metavar="BASELINE_JSON", default=None,
                        help="compare against a committed baseline report "
                             "and exit non-zero on >30%% regression")
    parser.add_argument("--tolerance", type=float, default=0.30)
    args = parser.parse_args(argv)

    report = run_suite(quick=args.quick, repeats=args.repeats)
    pathlib.Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    for name, bench in report["benchmarks"].items():
        print(f"{name:<20} {rate_of(name, bench):>12,.1f}/s "
              f"(calibrated {bench['calibrated_score']:.4g})")
    print(f"report written to {args.output}")

    if args.gate:
        baseline = json.loads(pathlib.Path(args.gate).read_text())
        failures = gate(report, baseline, tolerance=args.tolerance)
        if failures:
            print("\nPERF GATE FAILED:")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
