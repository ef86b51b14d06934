"""Tests for ``resolve_cells``: store-backed warm resolution, in-batch
dedup, and the acceptance criterion — a warm re-query of the full figure
pipeline performs zero simulations and is bit-identical to a cold serial
run."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import (
    ExperimentMatrix,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
)
from repro.coherence.policies import PRESETS
from repro.runner import Cell
from repro.store import ResultStore, resolve_cells
from repro.system.config import SystemConfig


def cells_for(names, policy="baseline", scale=0.25):
    return [
        Cell(
            workload=name,
            config=SystemConfig.small(policy=PRESETS[policy]),
            scale=scale,
            label=f"{name}/{policy}",
        )
        for name in names
    ]


class TestStoreResolution:
    def test_duplicates_simulated_once(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        batch = cells_for(["bs", "bs", "bs"])
        results = resolve_cells(batch, store=store, jobs=1)
        assert store.puts == 1 and len(store) == 1
        assert results[0] == results[1] == results[2]

    def test_duplicates_simulated_once_without_a_store(self, monkeypatch):
        from repro.runner import executor

        simulated = []
        real = executor.run_cell_inline

        def counting(cell):
            simulated.append(cell)
            return real(cell)

        monkeypatch.setattr("repro.runner.executor.run_cell_inline", counting)
        results = resolve_cells(cells_for(["bs", "bs", "bs"]), jobs=1)
        assert len(simulated) == 1
        assert results[0] == results[1] == results[2]

    def test_store_and_cacheless_runs_identical(self, tmp_path):
        batch = cells_for(["bs", "tq"])
        plain = resolve_cells(batch, jobs=1)
        stored = resolve_cells(cells_for(["bs", "tq"]),
                               store=ResultStore(tmp_path / "s.sqlite"),
                               jobs=2)
        assert plain == stored

    def test_warm_rerun_zero_simulations(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "s.sqlite")
        cold = resolve_cells(cells_for(["bs", "tq"]), store=store, jobs=2)
        assert store.puts == 2

        def boom(*_args, **_kwargs):
            raise AssertionError("warm run simulated a cell")

        monkeypatch.setattr("repro.runner.executor.run_cell_inline", boom)
        monkeypatch.setattr("repro.runner.executor.run_inline", boom)
        monkeypatch.setattr("repro.runner.executor.pool_map", boom)
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = resolve_cells(cells_for(["bs", "tq"]), store=warm_store,
                             jobs=2)
        assert warm_store.hits == 2 and warm_store.misses == 0
        assert warm == cold


class TestFigurePipelineWarmRequery:
    """Acceptance: the full figure pipeline, warm through the store, is
    zero-simulation and bit-identical to a cold serial (jobs=1) run."""

    FIGURES = (run_figure4, run_figure5, run_figure6, run_figure7)

    def _pipeline(self, matrix):
        return [regenerate(matrix).series for regenerate in self.FIGURES]

    def test_full_pipeline_warm_is_bit_identical(self, tmp_path, monkeypatch):
        serial = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=1
        )
        reference = self._pipeline(serial)

        store = ResultStore(tmp_path / "figures.sqlite")
        cold = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2,
            store=store,
        )
        assert self._pipeline(cold) == reference

        def boom(*_args, **_kwargs):
            raise AssertionError("warm figure pipeline simulated a cell")

        monkeypatch.setattr("repro.runner.executor.run_cell_inline", boom)
        monkeypatch.setattr("repro.runner.executor.run_inline", boom)
        monkeypatch.setattr("repro.runner.executor.pool_map", boom)
        warm_store = ResultStore(tmp_path / "figures.sqlite")
        warm = ExperimentMatrix(
            config_factory=SystemConfig.small, scale=0.25, jobs=2,
            store=warm_store,
        )
        assert self._pipeline(warm) == reference
        assert warm_store.misses == 0 and warm_store.hits > 0


class TestLitmusResolution:
    """``resolve_litmus`` mirrors the cell path for litmus runs: warm
    lookups, in-batch dedup, pool fan-out, and the fault-injection
    inline-only mode."""

    def _runs(self, names, policy="baseline", seed=0):
        from repro.verify.litmus import Schedule, get_litmus

        return [(get_litmus(name), policy, Schedule(seed)) for name in names]

    def test_store_and_plain_runs_identical(self, tmp_path):
        from repro.store import resolve_litmus

        plain = resolve_litmus(self._runs(["mp", "sb"]), jobs=1,
                               coverage=True)
        stored = resolve_litmus(
            self._runs(["mp", "sb"]),
            store=ResultStore(tmp_path / "s.sqlite"), jobs=2, coverage=True,
        )
        assert [r.ok for r in plain] == [r.ok for r in stored]
        assert [r.coverage for r in plain] == [r.coverage for r in stored]
        assert [r.ticks for r in plain] == [r.ticks for r in stored]

    def test_duplicates_simulated_once(self, tmp_path):
        from repro.store import resolve_litmus

        store = ResultStore(tmp_path / "s.sqlite")
        results = resolve_litmus(self._runs(["mp", "mp", "mp"]),
                                 store=store, jobs=1)
        assert store.puts == 1 and len(store) == 1
        assert results[0].ticks == results[1].ticks == results[2].ticks

    def test_warm_rerun_zero_simulations(self, tmp_path, monkeypatch):
        from repro.store import resolve_litmus

        store = ResultStore(tmp_path / "s.sqlite")
        cold = resolve_litmus(self._runs(["mp", "coww"]), store=store,
                              jobs=2, coverage=True)
        assert store.puts == 2

        def boom(*_args, **_kwargs):
            raise AssertionError("warm litmus rerun simulated")

        monkeypatch.setattr("repro.verify.litmus.harness.run_litmus", boom)
        monkeypatch.setattr("repro.runner.executor.pool_map", boom)
        warm_store = ResultStore(tmp_path / "s.sqlite")
        warm = resolve_litmus(self._runs(["mp", "coww"]), store=warm_store,
                              jobs=2, coverage=True)
        assert warm_store.misses == 0 and warm_store.hits == 2
        assert [r.ticks for r in warm] == [r.ticks for r in cold]
        assert [r.coverage for r in warm] == [r.coverage for r in cold]

    def test_coverage_flag_partitions_the_keyspace(self, tmp_path):
        """A row stored without coverage must not satisfy a coverage
        query — the key includes the flag."""
        from repro.store import resolve_litmus

        store = ResultStore(tmp_path / "s.sqlite")
        resolve_litmus(self._runs(["mp"]), store=store, jobs=1)
        resolve_litmus(self._runs(["mp"]), store=store, jobs=1,
                       coverage=True)
        assert store.puts == 2 and len(store) == 2

    def test_fault_injection_bypasses_the_store(self, tmp_path):
        from repro.store import resolve_litmus

        def mutate(system):
            pass  # identity fault: exercises the inline-only path

        store = ResultStore(tmp_path / "s.sqlite")
        results = resolve_litmus(self._runs(["mp"]), store=store, jobs=4,
                                 mutate_system=mutate)
        assert results[0].ok
        assert store.puts == 0 and len(store) == 0

    def test_duplicate_outcomes_carry_their_own_policy_name(self):
        """Two runs that dedup to one key still report the policy each
        caller asked for."""
        from repro.store import resolve_litmus
        from repro.verify.litmus import Schedule, get_litmus

        test = get_litmus("mp")
        runs = [(test, "baseline", Schedule(0)),
                (test, "baseline", Schedule(0))]
        results = resolve_litmus(runs, jobs=1)
        assert all(r.policy == "baseline" for r in results)
