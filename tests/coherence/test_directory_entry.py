"""Unit and property tests for directory tracking entries."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.coherence.directory_entry import DirEntry, DirEntryStore
from repro.coherence.policies import SHARER_TRACKING
from repro.coherence.precise import PreciseDirectory
from repro.system.builder import build_system
from repro.system.config import SystemConfig
from repro.verify.litmus.harness import run_litmus
from repro.verify.litmus.registry import get_litmus
from repro.verify.litmus.schedule import Schedule

NAMES = [f"l2.{i}" for i in range(8)]


class TestFullMap:
    def test_add_and_remove(self):
        entry = DirEntry(track_identities=True)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")
        assert entry.sharers == {"l2.0", "l2.1"}
        assert entry.sharer_count == 2
        entry.remove_sharer("l2.0")
        assert entry.sharers == {"l2.1"}
        assert entry.sharer_count == 1

    def test_duplicate_add_does_not_double_count(self):
        entry = DirEntry(track_identities=True)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.0")
        assert entry.sharer_count == 1

    def test_remove_absent_is_noop(self):
        entry = DirEntry(track_identities=True)
        entry.remove_sharer("l2.9")
        assert entry.sharer_count == 0

    def test_multicast_possible_without_overflow(self):
        entry = DirEntry(track_identities=True)
        entry.add_sharer("l2.0")
        assert entry.multicast_possible


class TestLimitedPointer:
    def test_overflow_sets_flag_and_forces_broadcast(self):
        entry = DirEntry(track_identities=True, pointer_limit=2)
        for name in ("l2.0", "l2.1", "l2.2"):
            entry.add_sharer(name)
        assert entry.overflow
        assert not entry.multicast_possible
        assert entry.sharer_count == 3
        assert len(entry.sharers) == 2  # only two tracked pointers

    def test_is_sharer_conservative_after_overflow(self):
        entry = DirEntry(track_identities=True, pointer_limit=1)
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")  # overflows
        # untracked names are conservatively possible sharers
        assert entry.is_sharer("l2.7")


class TestOwnerOnlyMode:
    def test_counts_without_identities(self):
        entry = DirEntry(track_identities=False)
        assert entry.sharers is None
        entry.add_sharer("l2.0")
        entry.add_sharer("l2.1")
        assert entry.sharer_count == 2
        assert entry.is_sharer("anything")
        entry.remove_sharer("whoever")
        entry.remove_sharer("whoever")
        assert entry.sharer_count == 0
        assert not entry.is_sharer("anything")

    def test_count_never_negative(self):
        entry = DirEntry(track_identities=False)
        entry.remove_sharer("x")
        assert entry.sharer_count == 0


class TestProperties:
    @given(st.lists(
        st.tuples(st.booleans(), st.sampled_from(NAMES)), max_size=60
    ))
    def test_fullmap_count_equals_set_size(self, operations):
        entry = DirEntry(track_identities=True)
        for is_add, name in operations:
            if is_add:
                entry.add_sharer(name)
            else:
                entry.remove_sharer(name)
        assert entry.sharer_count == len(entry.sharers)
        assert entry.sharer_count >= 0

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.sampled_from(NAMES), max_size=30),
    )
    def test_limited_pointer_never_tracks_beyond_limit(self, limit, adds):
        entry = DirEntry(track_identities=True, pointer_limit=limit)
        for name in adds:
            entry.add_sharer(name)
        assert len(entry.sharers) <= limit
        distinct = len(set(adds))
        assert entry.overflow == (distinct > limit)
        if not entry.overflow:
            assert entry.sharer_count == distinct
        else:
            # untracked duplicates cannot be deduped (real limited-pointer
            # hardware has the same conservative over-count)
            assert entry.sharer_count >= distinct


class TestStoreGrowth:
    """A store holds as many slots as its peak number of live entries."""

    def test_store_starts_empty_and_reuses_released_slots(self):
        store = DirEntryStore()
        assert len(store.owner) == 0
        first = store.alloc()
        first.owner = "l2.0"
        first.add_sharer("l2.1")
        second = store.alloc()
        assert len(store.owner) == 2 and len(store) == 2
        store.release(first)
        reused = store.alloc()
        assert reused is first
        assert reused.owner is None and reused.sharers == set()
        assert len(store.owner) == 2
        assert second is not reused

    def test_standalone_entry_owns_the_only_slot_of_its_store(self):
        entry = DirEntry(track_identities=False)
        store = entry._store
        assert len(store.owner) == 1 and len(store) == 1
        assert store._views == [entry]
        assert entry.sharers is None

    def test_building_a_system_allocates_no_entry_slot(self):
        system = build_system(SystemConfig.ryzen_2200g(policy=SHARER_TRACKING))
        directories = [d for d in system.directories
                       if isinstance(d, PreciseDirectory)]
        assert directories
        for directory in directories:
            assert len(directory.dir_cache) == SHARER_TRACKING.dir_entries
            assert len(directory._entry_store.owner) == 0

    def test_tiny_directory_run_stays_within_directory_capacity(self):
        systems = []
        outcome = run_litmus(
            get_litmus("vicdirty_race"), SHARER_TRACKING,
            Schedule(0, dir_entries=2), "sharers", mutate_system=systems.append,
        )
        assert outcome.ok, outcome.describe()
        directory = systems[0].directory
        assert directory.stats["dir_evictions"] > 0  # slots were recycled
        assert 0 < len(directory._entry_store.owner) <= len(directory.dir_cache)
