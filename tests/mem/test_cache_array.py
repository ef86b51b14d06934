"""Tests for the set-associative cache array."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coherence.policies import SHARER_TRACKING
from repro.mem.address import LINE_BYTES
from repro.mem.block import ZERO_LINE
from repro.mem.cache_array import CacheArray
from repro.system.builder import build_system
from repro.system.config import SystemConfig
from repro.verify.litmus.harness import run_litmus
from repro.verify.litmus.registry import get_litmus
from repro.verify.litmus.schedule import Schedule


def addr_of(line_no: int) -> int:
    return line_no * LINE_BYTES


def cache_arrays(system) -> list[CacheArray]:
    """Every :class:`CacheArray` held by the system's components."""
    found: dict[int, CacheArray] = {}

    def visit(value) -> None:
        if isinstance(value, CacheArray):
            found[id(value)] = value
        elif isinstance(value, list):
            for item in value:
                visit(item)

    for field in vars(system).values():
        for component in field if isinstance(field, list) else [field]:
            for value in getattr(component, "__dict__", {}).values():
                visit(value)
    return list(found.values())


def materialized(array: CacheArray) -> set[int]:
    return {slot for slot, view in enumerate(array._views) if view is not None}


class TestGeometry:
    def test_from_geometry_matches_table2_llc(self):
        """16 MB, 16-way LLC -> 16384 sets of 16 ways."""
        array = CacheArray.from_geometry(16 * 2**20, 16)
        assert array.ways == 16
        assert array.num_sets == 16 * 2**20 // 64 // 16

    def test_from_geometry_tiny_cache_clamps_ways(self):
        array = CacheArray.from_geometry(128, 16)  # only two lines
        assert array.ways == 2
        assert array.num_sets == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheArray(0, 4)


class TestLookupInstall:
    def test_miss_returns_none(self):
        array = CacheArray(4, 2)
        assert array.lookup(addr_of(1)) is None

    def test_install_then_hit(self):
        array = CacheArray(4, 2)
        line, evicted = array.install(addr_of(1), state="S", data=ZERO_LINE)
        assert evicted is None
        hit = array.lookup(addr_of(1))
        assert hit is line
        assert hit.state == "S"

    def test_reinstall_updates_in_place(self):
        array = CacheArray(4, 2)
        first, _ = array.install(addr_of(1), state="S")
        second, evicted = array.install(addr_of(1), state="M", dirty=True)
        assert second is first
        assert evicted is None
        assert first.state == "M"
        assert first.dirty

    def test_set_conflict_evicts(self):
        array = CacheArray(num_sets=2, ways=1)
        array.install(addr_of(0), state="S")  # set 0
        _, evicted = array.install(addr_of(2), state="M")  # also set 0
        assert evicted is not None
        assert evicted.addr == addr_of(0)
        assert array.lookup(addr_of(0)) is None
        assert array.lookup(addr_of(2)) is not None

    def test_eviction_snapshot_is_detached(self):
        array = CacheArray(1, 1)
        array.install(addr_of(0), state="M", data=ZERO_LINE, dirty=True)
        _, evicted = array.install(addr_of(1), state="S")
        assert evicted.state == "M"
        assert evicted.dirty
        assert evicted.data == ZERO_LINE

    def test_invalidate(self):
        array = CacheArray(4, 2)
        array.install(addr_of(3), state="E")
        snapshot = array.invalidate(addr_of(3))
        assert snapshot.state == "E"
        assert array.lookup(addr_of(3)) is None
        assert array.invalidate(addr_of(3)) is None

    def test_contains_and_occupancy(self):
        array = CacheArray(4, 2)
        array.install(addr_of(1), state="S")
        array.install(addr_of(2), state="S")
        assert addr_of(1) in array
        assert addr_of(9) not in array
        assert array.occupancy() == 2

    def test_iter_valid(self):
        array = CacheArray(4, 2)
        for line_no in range(3):
            array.install(addr_of(line_no), state="S")
        addresses = sorted(line.addr for line in array.iter_valid())
        assert addresses == [addr_of(0), addr_of(1), addr_of(2)]


class TestReplacementIntegration:
    def test_lru_order_respected_within_set(self):
        from repro.mem.replacement import LRU

        array = CacheArray(num_sets=1, ways=2, repl=LRU)
        array.install(addr_of(0), state="S")
        array.install(addr_of(1), state="S")
        array.lookup(addr_of(0))  # make line 0 most recent
        _, evicted = array.install(addr_of(2), state="S")
        assert evicted.addr == addr_of(1)

    def test_choose_victim_prefers_invalid_ways(self):
        array = CacheArray(num_sets=1, ways=2)
        array.install(addr_of(0), state="S")
        victim = array.choose_victim(addr_of(1))
        assert not victim.valid

    def test_choose_victim_with_cost_function(self):
        array = CacheArray(num_sets=1, ways=3)
        array.install(addr_of(0), state="O")
        array.install(addr_of(1), state="S")
        array.install(addr_of(2), state="O")
        cost = {"S": 0, "O": 1}
        victim = array.choose_victim(addr_of(3), cost_of=lambda line: cost[line.state])
        assert victim.state == "S"

    def test_choose_victim_does_not_modify(self):
        array = CacheArray(num_sets=1, ways=1)
        array.install(addr_of(0), state="S")
        array.choose_victim(addr_of(1))
        assert array.lookup(addr_of(0)) is not None


class TestLazyViews:
    """Line views are built on first hand-out, so construction is
    O(touched lines), not O(capacity)."""

    def test_building_a_system_materializes_no_view(self):
        system = build_system(SystemConfig.ryzen_2200g(policy=SHARER_TRACKING))
        arrays = cache_arrays(system)
        # L1s/L2s, TCPs, TCC, SQC, LLC and the precise directory cache
        assert len(arrays) > 10
        assert sum(len(array) for array in arrays) > 262_144
        assert all(not materialized(array) for array in arrays)

    def test_litmus_run_materializes_only_installed_slots(self, monkeypatch):
        installed: dict[int, set[int]] = {}
        install = CacheArray.install

        def recording_install(self, addr, *args, **kwargs):
            line, evicted = install(self, addr, *args, **kwargs)
            installed.setdefault(id(self), set()).add(line._slot)
            return line, evicted

        monkeypatch.setattr(CacheArray, "install", recording_install)
        systems = []
        outcome = run_litmus(
            get_litmus("vicdirty_race"), SHARER_TRACKING,
            Schedule(0, dir_entries=2), "sharers", mutate_system=systems.append,
        )
        assert outcome.ok, outcome.describe()
        arrays = cache_arrays(systems[0])
        assert sum(len(materialized(array)) for array in arrays) > 0
        for array in arrays:
            views = materialized(array)
            assert views <= installed.get(id(array), set())
            # a valid slot always has its view already
            assert set(array._index.values()) <= views

    def test_view_identity_is_stable_across_hand_outs(self):
        array = CacheArray(num_sets=2, ways=2)
        assert not materialized(array)
        victim = array.choose_victim(addr_of(1))
        assert materialized(array) == {victim._slot}
        line, _ = array.install(addr_of(1), state="S")
        assert line is victim
        assert array.lookup(addr_of(1)) is line
        assert array.view(line._slot) is line
        (only,) = array.iter_valid()
        assert only is line
        again, _ = array.install(addr_of(1), state="M")
        assert again is line
        array.invalidate(addr_of(1))
        assert array.choose_victim(addr_of(1)) is line
        assert materialized(array) == {line._slot}


class TestProperties:
    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_occupancy_never_exceeds_capacity(self, line_numbers):
        array = CacheArray(num_sets=4, ways=2)
        for line_no in line_numbers:
            array.install(addr_of(line_no), state="S")
        assert array.occupancy() <= len(array)

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_most_recent_install_always_present(self, line_numbers):
        array = CacheArray(num_sets=4, ways=2)
        for line_no in line_numbers:
            array.install(addr_of(line_no), state="S")
        assert array.lookup(addr_of(line_numbers[-1])) is not None

    @settings(max_examples=50)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    def test_index_consistency(self, line_numbers):
        """Every valid line is found by lookup under its own address."""
        array = CacheArray(num_sets=4, ways=2)
        for line_no in line_numbers:
            array.install(addr_of(line_no), state="S")
        for line in array.iter_valid():
            assert array.lookup(line.addr, touch=False) is line
