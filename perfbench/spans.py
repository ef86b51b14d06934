"""In-memory span tracing around calls into the simulator's layers.

A :class:`Tracer` replaces a fixed set of public functions and methods
with thin wrappers that record one span per call: name, start, end, the
enclosing span, and the id of the operation (a figure cell or a litmus
run) the call belongs to.  Nothing is patched until :meth:`Tracer.install`
and everything is restored by :meth:`Tracer.uninstall`, so an untraced
run executes the program exactly as shipped.

Each wrapper is installed where its caller looks the name up.  Modules
that did ``from repro.system.builder import build_system`` hold their own
reference, so patching ``repro.system.builder`` alone would miss them;
:data:`_BINDINGS` lists every such site.

:func:`layer_metrics` turns a finished trace into the per-layer metrics.
Time metrics ending in ``.s``/``.ms_*`` are *self* time (a span's
duration minus the part its child spans cover) unless the metric table in
README.md says "inclusive".
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

#: where each traced name is looked up at call time:
#: (module, attribute-or-"Class.method", span name, starts an operation)
_BINDINGS = (
    ("repro.system.builder", "build_system", "system.build", False),
    ("repro.verify.litmus.harness", "build_system", "system.build", False),
    ("repro.system.apu", "ApuSystem.run_workload", "system.run", False),
    ("repro.system.apu", "ApuSystem.start_build", "sim.run", False),
    ("repro.sim.event_queue", "Simulator.run", "sim.run", False),
    ("repro.system.apu", "ApuSystem.collect_result", "verify.collect", False),
    ("repro.verify.invariants", "CoherenceMonitor.check_all_tracked",
     "verify.collect", False),
    ("repro.store.store", "result_to_dict", "serialize", False),
    ("repro.store.store", "result_from_dict", "serialize", False),
    ("repro.runner.executor", "result_from_dict", "serialize", False),
    ("repro.system.serialize", "result_to_dict", "serialize", False),
    ("repro.verify.litmus.harness", "outcome_to_dict", "serialize", False),
    ("repro.verify.litmus.harness", "outcome_from_dict", "serialize", False),
    ("repro.store.resolve", "cell_key", "store.key", False),
    ("repro.verify.litmus.harness", "litmus_key", "store.key", False),
    ("repro.store.store", "ResultStore.get_row", "store.get", False),
    ("repro.store.store", "ResultStore.put_row", "store.put", False),
    ("repro.store.resolve", "resolve_cells", "store.resolve", False),
    ("repro.store.resolve", "resolve_litmus", "store.resolve", False),
    ("repro.runner.executor", "pool_map", "runner.pool", False),
    ("repro.runner.executor", "run_inline", "runner.inline", False),
    ("repro.runner.executor", "run_cell_inline", "runner.cell", True),
    ("repro.verify.litmus.harness", "run_litmus", "litmus.run", True),
    ("repro.verify.litmus.minimize", "run_litmus", "litmus.run", True),
    ("repro.verify.fuzz.corpus", "run_litmus", "litmus.run", True),
    ("repro.verify.fuzz.campaign", "generate_case", "fuzz.gen", False),
    ("repro.verify.fuzz.campaign", "minimize_entry", "fuzz.minimize", False),
    ("repro.verify.litmus.minimize", "minimize_failure",
     "fuzz.failure_minimize", False),
    ("repro.verify.fuzz.coverage", "CoverageState.add", "fuzz.coverage",
     False),
)

def _resolve(module_name: str, attr: str):
    """``(owner, attribute)`` for a dotted ``Class.method`` or plain name."""
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (nearest-rank on the sorted values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


class Tracer:
    """Spans and counters of one traced job, kept in memory.

    A span is the list ``[name, start, end, parent, op]``: ``parent`` is
    the index of the enclosing span (-1 at top level) and ``op`` the id of
    the operation it belongs to (0 outside any operation).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = 0
        self._next_op = 1
        self._patches: list[tuple[object, str, object, bool]] = []
        #: coverage rows the entry being minimized claimed, while
        #: ``minimize_entry`` runs (read by ``_after_run_litmus``)
        self._claimed: set | None = None

    # -- recording -------------------------------------------------------

    def open(self, name: str, new_op: bool = False) -> tuple[int, int]:
        previous = self._op
        if new_op:
            self._op = self._next_op
            self._next_op += 1
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index, previous

    def close(self, token: tuple[int, int]) -> None:
        index, previous = token
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()
        self._op = previous

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        token = self.open(name)
        try:
            yield
        finally:
            self.close(token)

    # -- patching --------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every binding in :data:`_BINDINGS`, every workload
        generator, and the runner's pool constructor."""
        import repro.workloads.chai  # noqa: F401  (defines the suite's classes)
        from repro.runner import executor
        from repro.workloads.base import Workload

        for module_name, attr, name, new_op in _BINDINGS:
            owner, attribute = _resolve(module_name, attr)
            self._patch(owner, attribute, self._wrap(
                getattr(owner, attribute), name, new_op, attr))
        # ``Workload.build(ctx)`` is overridden per workload class and
        # looked up on the instance, so wrap each concrete override.
        for cls in _subclasses(Workload):
            if "build" in vars(cls):
                self._patch(cls, "build",
                            self._wrap(vars(cls)["build"], "workloads.gen",
                                       False, "build"))
        tracer = self
        base = executor.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.counters["runner.pools_started"] += 1
                super().__init__(*args, **kwargs)

        self._patch(executor, "ProcessPoolExecutor", CountingPool)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def _patch(self, owner, attribute: str, replacement) -> None:
        owned = attribute in vars(owner)
        original = vars(owner)[attribute] if owned else None
        self._patches.append((owner, attribute, original, owned))
        setattr(owner, attribute, replacement)

    def _wrap(self, original, name: str, new_op: bool, attr: str):
        tracer = self
        after = _AFTER.get(attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if attr == "minimize_entry":
                tracer._claimed = set(args[0].new_coverage)
            token = tracer.open(name, new_op)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(token)
                if attr == "minimize_entry":
                    tracer._claimed = None
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# -- counters read off return values ------------------------------------------


def _after_run_workload(tracer: Tracer, args, result) -> None:
    system = args[0]
    counters = tracer.counters
    counters["sim.events"] += system.sim.events.executed_events
    counters["sim.net_messages"] += result.network_messages
    counters["coherence.dir_probes"] += result.dir_probes
    counters["mem.dir_accesses"] += result.mem_accesses
    counters["mem.llc_hits"] += result.llc_hits
    counters["mem.llc_lookups"] += result.llc_hits + result.llc_misses
    counters["verify.invariant_checks"] += result.stats.get(
        "verify.invariant_checks", 0)
    counters["verify.loads_checked"] += result.stats.get(
        "verify.loads_checked", 0)


def _after_get_row(tracer: Tracer, _args, result) -> None:
    tracer.counters["store.hits" if result is not None else "store.misses"] += 1


def _after_run_litmus(tracer: Tracer, _args, outcome) -> None:
    claimed = tracer._claimed
    if claimed is not None and claimed <= set(outcome.coverage or ()):
        tracer.counters["fuzz.shrink_accepts"] += 1


def _after_coverage_add(tracer: Tracer, _args, fresh) -> None:
    tracer.counters["fuzz.search_runs"] += 1
    if fresh:
        tracer.counters["fuzz.novel_runs"] += 1


_AFTER = {
    "ApuSystem.run_workload": _after_run_workload,
    "ResultStore.get_row": _after_get_row,
    "run_litmus": _after_run_litmus,
    "CoverageState.add": _after_coverage_add,
}


# -- turning spans into metrics -------------------------------------------------


class SpanIndex:
    """Self times and per-name lookups over one tracer's spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.self_time = [
            (span[2] - span[1]) - child_time[index]
            for index, span in enumerate(spans)
        ]

    def indices(self, name: str, parent: str | None = None) -> list[int]:
        spans = self.spans
        return [
            index for index, span in enumerate(spans)
            if span[0] == name and (
                parent is None
                or (span[3] >= 0 and spans[span[3]][0] == parent)
            )
        ]

    def self_s(self, name: str) -> float:
        return sum(self.self_time[index] for index in self.indices(name))

    def inclusive_s(self, name: str, parent: str | None = None) -> float:
        return sum(self.spans[index][2] - self.spans[index][1]
                   for index in self.indices(name, parent))

    def self_ms(self, name: str) -> list[float]:
        """Per-call self times in milliseconds."""
        return [1e3 * self.self_time[index] for index in self.indices(name)]

    def per_op_self_ms(self, name: str) -> list[float]:
        """Self time of ``name`` summed per operation, in milliseconds."""
        per_op: dict[int, float] = defaultdict(float)
        for index in self.indices(name):
            per_op[self.spans[index][4]] += self.self_time[index]
        return [1e3 * value for op, value in per_op.items() if op]

    def inclusive_ms(self, name: str) -> list[float]:
        return [1e3 * (self.spans[index][2] - self.spans[index][1])
                for index in self.indices(name)]

    def count(self, name: str) -> int:
        return len(self.indices(name))

    def self_total(self) -> float:
        return sum(self.self_time)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric computable from one traced job.

    ``runner.pool_overhead_s`` and ``trace.overhead_ratio`` compare two
    runs and are filled in by the caller.
    """
    idx = SpanIndex(tracer.spans)
    counters = tracer.counters
    out: dict[str, float] = {}

    build_ms = idx.self_ms("system.build")
    out["system.build.count"] = len(build_ms)
    out["system.build.s"] = sum(build_ms) / 1e3
    out["system.build.ms_p50"] = _percentile(build_ms, 50)
    out["system.build.ms_p90"] = _percentile(build_ms, 90)

    gen_ms = idx.self_ms("workloads.gen")
    out["workloads.gen.s"] = sum(gen_ms) / 1e3
    out["workloads.gen.ms_p50"] = _percentile(gen_ms, 50)

    sim_s = idx.self_s("sim.run")
    sim_ms = idx.per_op_self_ms("sim.run")
    out["sim.run.s"] = sim_s
    out["sim.run.ms_p50"] = _percentile(sim_ms, 50)
    out["sim.run.ms_p90"] = _percentile(sim_ms, 90)
    out["sim.events"] = counters["sim.events"]
    out["sim.events_per_s"] = counters["sim.events"] / sim_s if sim_s else 0.0
    out["sim.net_messages"] = counters["sim.net_messages"]
    out["coherence.dir_probes"] = counters["coherence.dir_probes"]
    out["mem.dir_accesses"] = counters["mem.dir_accesses"]
    lookups = counters["mem.llc_lookups"]
    out["mem.llc_hit_ratio"] = counters["mem.llc_hits"] / lookups if lookups else 0.0

    out["verify.invariant_checks"] = counters["verify.invariant_checks"]
    out["verify.loads_checked"] = counters["verify.loads_checked"]
    out["verify.collect.s"] = idx.self_s("verify.collect")

    out["serialize.calls"] = idx.count("serialize")
    out["serialize.s"] = idx.self_s("serialize")

    get_ms = idx.self_ms("store.get")
    hits, misses = counters["store.hits"], counters["store.misses"]
    out["store.key.s"] = idx.self_s("store.key")
    out["store.get.s"] = sum(get_ms) / 1e3
    out["store.get.ms_p50"] = _percentile(get_ms, 50)
    out["store.put.s"] = idx.self_s("store.put")
    out["store.hits"] = hits
    out["store.misses"] = misses
    out["store.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    out["runner.pools_started"] = counters["runner.pools_started"]
    out["runner.pool.s"] = idx.inclusive_s("runner.pool")
    out["runner.inline.s"] = (idx.inclusive_s("runner.inline")
                              + idx.inclusive_s("litmus.run", "store.resolve"))
    out["runner.retries"] = counters["runner.retries"]

    run_ms = idx.inclusive_ms("litmus.run")
    litmus_s = sum(run_ms) / 1e3
    litmus_build_s = sum(
        idx.self_time[index] for index in idx.indices("system.build")
        if _within(idx.spans, index, "litmus.run")
    )
    out["litmus.run.count"] = len(run_ms)
    out["litmus.run.ms_p50"] = _percentile(run_ms, 50)
    out["litmus.run.ms_p95"] = _percentile(run_ms, 95)
    out["litmus.build_share"] = litmus_build_s / litmus_s if litmus_s else 0.0

    campaign_s = idx.inclusive_s("fuzz.campaign")
    phases = {
        "fuzz.gen.s": idx.inclusive_s("fuzz.gen", "fuzz.campaign"),
        "fuzz.search.s": idx.inclusive_s("store.resolve", "fuzz.campaign"),
        "fuzz.minimize.s": idx.inclusive_s("fuzz.minimize", "fuzz.campaign"),
        "fuzz.failure_minimize.s": idx.inclusive_s(
            "fuzz.failure_minimize", "fuzz.campaign"),
    }
    out.update(phases)
    out["fuzz.orchestration.s"] = (
        campaign_s - sum(phases.values()) if campaign_s else 0.0
    )
    shrink_runs = len(idx.indices("litmus.run", "fuzz.minimize"))
    out["fuzz.shrink_runs"] = shrink_runs
    out["fuzz.shrink_accept_ratio"] = (
        counters["fuzz.shrink_accepts"] / shrink_runs if shrink_runs else 0.0
    )
    search_runs = counters["fuzz.search_runs"]
    out["fuzz.novel_run_ratio"] = (
        counters["fuzz.novel_runs"] / search_runs if search_runs else 0.0
    )
    return out


def pooled_op_s(tracer: Tracer) -> float:
    """In-process time of the operations a pool would have run: cells
    under the inline runner and litmus runs issued by a resolve call."""
    idx = SpanIndex(tracer.spans)
    return (idx.inclusive_s("runner.cell", "runner.inline")
            + idx.inclusive_s("litmus.run", "store.resolve"))


def _within(spans: list[list], index: int, ancestor: str) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def write_spans(tracer: Tracer, path: str, meta: dict) -> None:
    """Dump the trace as JSON: one ``[name, start, end, parent, op]`` row
    per span, times in seconds relative to the first span."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    rows = [
        [name, round(start - origin, 9), round(end - origin, 9), parent, op]
        for name, start, end, parent, op in tracer.spans
    ]
    with open(path, "w") as handle:
        json.dump({"meta": meta, "fields": ["name", "start_s", "end_s",
                                            "parent", "op"],
                   "spans": rows}, handle)
        handle.write("\n")


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over several traced jobs."""
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
