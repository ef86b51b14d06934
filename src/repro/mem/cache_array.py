"""Set-associative tag/data arrays.

:class:`CacheArray` is the storage substrate shared by every cache in the
system — CPU L1/L2, GPU TCP/TCC/SQC, the LLC, and the directory cache (whose
"lines" are tracking entries rather than data).  Protocol state is opaque to
the array: controllers store whatever state enum they use in
:attr:`CacheLine.state` and extra tracking info in :attr:`CacheLine.meta`.

Storage layout: line state lives in struct-of-arrays *planes* — parallel
lists (``_addr``, ``_state``, ``_data``, ``_dirty``, ``_meta``, ``_valid``)
indexed by the flat slot ``set_idx * ways + way`` — rather than one Python
object per line.  Controllers keep the object-style API: :meth:`lookup` and
friends hand out a per-slot :class:`_LineView` whose attributes read and
write the planes, so ``line.state = X`` works exactly as before.  A slot's
view is built the first time the array hands the slot out, so building an
array costs a few flat lists, not one object per line.  An address maps to
its slot through one dict (``_index``), so a lookup is a dict get plus list
indexing.

Replacement: arrays built with the default :class:`TreePLRU` keep the whole
per-set tree in one integer (bit ``n`` of ``_plru[set]`` is node ``n`` of
the tree) — ``touch`` is a single masked or using per-way masks precomputed
from the reference implementation, and ``victim`` is a memoized
``bits -> (way, bits_after)`` table populated by running the reference walk,
so the chosen victims (including the non-power-of-two padding-leaf retries,
which mutate the tree) are bit-identical to the object policies.  Any other
replacement policy falls back to one policy object per set, as before.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.mem.address import LINE_BYTES
from repro.mem.block import LineData
from repro.mem.replacement import ReplacementPolicy, TreePLRU, preferred_order


class CacheLine:
    """A detached line snapshot (evictions, invalidations).

    Resident lines are :class:`_LineView` objects backed by the array's
    planes; this plain record carries the same attributes for lines that
    have left the array.
    """

    __slots__ = ("valid", "addr", "state", "data", "dirty", "meta")

    def __init__(self) -> None:
        self.valid = False
        self.addr = -1  # line-aligned address when valid
        self.state: Any = None
        self.data: LineData | None = None
        self.dirty = False
        self.meta: Any = None

    def reset(self) -> None:
        self.valid = False
        self.addr = -1
        self.state = None
        self.data = None
        self.dirty = False
        self.meta = None

    def __repr__(self) -> str:
        if not self.valid:
            return "CacheLine(invalid)"
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state}, "
            f"dirty={self.dirty})"
        )


class _LineView:
    """A live window onto one slot of the array's planes.

    One view per slot, built the first time the array hands the slot out
    and cached from then on; identity is stable, so holding a view across
    time behaves exactly like holding the old per-way ``CacheLine`` object
    (it always shows the slot's *current* occupant).
    """

    __slots__ = ("_array", "_slot")

    def __init__(self, array: "CacheArray", slot: int) -> None:
        self._array = array
        self._slot = slot

    @property
    def valid(self) -> bool:
        return self._array._valid[self._slot]

    @valid.setter
    def valid(self, value: bool) -> None:
        self._array._valid[self._slot] = value

    @property
    def addr(self) -> int:
        return self._array._addr[self._slot]

    @addr.setter
    def addr(self, value: int) -> None:
        self._array._addr[self._slot] = value

    @property
    def state(self) -> Any:
        return self._array._state[self._slot]

    @state.setter
    def state(self, value: Any) -> None:
        self._array._state[self._slot] = value

    @property
    def data(self) -> LineData | None:
        return self._array._data[self._slot]

    @data.setter
    def data(self, value: LineData | None) -> None:
        self._array._data[self._slot] = value

    @property
    def dirty(self) -> bool:
        return self._array._dirty[self._slot]

    @dirty.setter
    def dirty(self, value: bool) -> None:
        self._array._dirty[self._slot] = value

    @property
    def meta(self) -> Any:
        return self._array._meta[self._slot]

    @meta.setter
    def meta(self, value: Any) -> None:
        self._array._meta[self._slot] = value

    def reset(self) -> None:
        array = self._array
        slot = self._slot
        array._valid[slot] = False
        array._addr[slot] = -1
        array._state[slot] = None
        array._data[slot] = None
        array._dirty[slot] = False
        array._meta[slot] = None

    def __repr__(self) -> str:
        if not self.valid:
            return "CacheLine(invalid)"
        return (
            f"CacheLine(addr={self.addr:#x}, state={self.state}, "
            f"dirty={self.dirty})"
        )


# -- integer Tree-PLRU ------------------------------------------------------
#
# Shared per-associativity tables, derived from the reference TreePLRU so
# the two can never disagree: touch masks force the same node bits the
# reference touch forces, and the victim memo replays the reference walk
# (including padding-leaf retries) once per distinct bit pattern.

#: ways -> (touch_and_masks, touch_or_masks, victim_memo, leaves)
_PLRU_GEOMETRY: dict[int, tuple[list[int], list[int], dict[int, tuple[int, int]], int]] = {}


def _bits_to_int(bits: list[int]) -> int:
    value = 0
    for node in range(1, len(bits)):
        if bits[node]:
            value |= 1 << node
    return value


def _int_to_bits(value: int, leaves: int) -> list[int]:
    return [(value >> node) & 1 for node in range(leaves)]


def _plru_geometry(ways: int) -> tuple[list[int], list[int], dict[int, tuple[int, int]], int]:
    geo = _PLRU_GEOMETRY.get(ways)
    if geo is None:
        probe = TreePLRU(ways)
        leaves = probe._leaves
        all_ones = [0] + [1] * (leaves - 1)
        touch_and: list[int] = []
        touch_or: list[int] = []
        for way in range(ways):
            probe._bits = [0] * leaves
            probe.touch(way)
            touch_or.append(_bits_to_int(probe._bits))
            probe._bits = list(all_ones)
            probe.touch(way)
            touch_and.append(_bits_to_int(probe._bits))
        geo = _PLRU_GEOMETRY[ways] = (touch_and, touch_or, {}, leaves)
    return geo


class CacheArray:
    """A ``num_sets`` x ``ways`` array with pluggable replacement.

    Addresses passed in must already be line-aligned; the set index is
    ``(addr / 64) mod num_sets`` and the full line address doubles as tag.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        repl: Callable[[int], ReplacementPolicy] = TreePLRU,
    ) -> None:
        if num_sets < 1 or ways < 1:
            raise ValueError(f"bad geometry: {num_sets} sets x {ways} ways")
        self.num_sets = num_sets
        self.ways = ways
        slots = num_sets * ways
        # struct-of-arrays line state
        self._valid = [False] * slots
        self._addr = [-1] * slots
        self._state: list[Any] = [None] * slots
        self._data: list[Any] = [None] * slots
        self._dirty = [False] * slots
        self._meta: list[Any] = [None] * slots
        # views are built on first hand-out by view(); a slot only turns
        # valid through a handed-out view or install(), which picks it with
        # choose_victim, so every valid slot already has its view.
        self._views: list[_LineView | None] = [None] * slots
        #: line-aligned address -> flat slot index
        self._index: dict[int, int] = {}
        # replacement state: integer trees for the default TreePLRU,
        # one policy object per set otherwise.
        self._repl_factory = repl
        if repl is TreePLRU:
            touch_and, touch_or, victim_memo, leaves = _plru_geometry(ways)
            self._plru: list[int] | None = [0] * num_sets
            self._victim_memo = victim_memo
            self._plru_leaves = leaves
            # per-slot touch masks (indexable straight from the flat slot)
            self._touch_and = touch_and * num_sets
            self._touch_or = touch_or * num_sets
            self._repl: list[ReplacementPolicy] | None = None
        else:
            self._plru = None
            self._repl = [repl(ways) for _ in range(num_sets)]

    @classmethod
    def from_geometry(
        cls,
        size_bytes: int,
        assoc: int,
        line_bytes: int = LINE_BYTES,
        repl: Callable[[int], ReplacementPolicy] = TreePLRU,
    ) -> "CacheArray":
        """Build from a (size, associativity) pair as in Table II."""
        lines = max(1, size_bytes // line_bytes)
        ways = min(assoc, lines)
        num_sets = max(1, lines // ways)
        return cls(num_sets, ways, repl)

    # -- lookups ----------------------------------------------------------

    def set_index(self, addr: int) -> int:
        return (addr // LINE_BYTES) % self.num_sets

    def lookup(self, addr: int, touch: bool = True) -> "_LineView | None":
        """The valid line holding ``addr``, or None."""
        slot = self._index.get(addr)
        if slot is None:
            return None
        if touch:
            plru = self._plru
            if plru is not None:
                set_idx = slot // self.ways
                plru[set_idx] = (
                    (plru[set_idx] & self._touch_and[slot]) | self._touch_or[slot]
                )
            else:
                self._repl[slot // self.ways].touch(slot % self.ways)
        return self._views[slot]

    def view(self, slot: int) -> "_LineView":
        """The live view for a flat slot index, built on first use."""
        view = self._views[slot]
        if view is None:
            view = self._views[slot] = _LineView(self, slot)
        return view

    def touch_slot(self, slot: int) -> None:
        plru = self._plru
        if plru is not None:
            set_idx = slot // self.ways
            plru[set_idx] = (plru[set_idx] & self._touch_and[slot]) | self._touch_or[slot]
        else:
            self._repl[slot // self.ways].touch(slot % self.ways)

    # -- replacement internals --------------------------------------------

    def _fast_victim(self, set_idx: int) -> int:
        """Reference-identical Tree-PLRU victim from the integer tree.

        Non-power-of-two walks mutate the tree (padding-leaf retries), so
        the memo stores and re-applies the post-walk bits too.
        """
        plru = self._plru
        bits = plru[set_idx]
        memo = self._victim_memo
        hit = memo.get(bits)
        if hit is None:
            probe = TreePLRU(self.ways)
            probe._bits = _int_to_bits(bits, self._plru_leaves)
            way = probe.victim()
            hit = memo[bits] = (way, _bits_to_int(probe._bits))
        way, after = hit
        if after != bits:
            plru[set_idx] = after
        return way

    def _policy_of(self, set_idx: int) -> ReplacementPolicy:
        """A policy object mirroring ``set_idx``'s current replacement state
        (for the cost-ranked victim path's ``preferred_order``)."""
        if self._plru is None:
            return self._repl[set_idx]
        probe = TreePLRU(self.ways)
        probe._bits = _int_to_bits(self._plru[set_idx], self._plru_leaves)
        return probe

    # -- allocation -------------------------------------------------------

    def choose_victim(
        self, addr: int, cost_of: Callable[["_LineView"], Any] | None = None
    ) -> "_LineView":
        """The line to overwrite when installing ``addr``: an invalid way if
        any, else the replacement policy's pick.  Does not modify the line
        planes (the Tree-PLRU walk itself may rotate padding bits, exactly
        as the reference policy does).

        ``cost_of`` optionally ranks valid lines by eviction cost (lower is
        cheaper); the replacement policy only breaks ties among the cheapest.
        This hook implements the paper's §VII state-aware directory
        replacement.
        """
        set_idx = (addr // LINE_BYTES) % self.num_sets
        base = set_idx * self.ways
        valid = self._valid
        views = self._views
        for slot in range(base, base + self.ways):
            if not valid[slot]:
                return self.view(slot)
        if self._plru is not None:
            victim_way = self._fast_victim(set_idx)
        else:
            victim_way = self._repl[set_idx].victim()
        if cost_of is None:
            return views[base + victim_way]
        costs = [cost_of(views[base + way]) for way in range(self.ways)]
        cheapest = min(costs)
        candidates = [way for way, cost in enumerate(costs) if cost == cheapest]
        if victim_way in candidates:
            return views[base + victim_way]
        return views[base + preferred_order(self._policy_of(set_idx), candidates)[0]]

    def install(
        self,
        addr: int,
        state: Any,
        data: LineData | None = None,
        dirty: bool = False,
        meta: Any = None,
    ) -> tuple["_LineView", CacheLine | None]:
        """Install ``addr``; returns ``(line, evicted_copy)``.

        ``evicted_copy`` is a detached :class:`CacheLine` snapshot of the
        victim if a valid line had to be replaced (None otherwise).  The
        caller is responsible for acting on the eviction (write-back,
        back-invalidation, ...).
        """
        slot = self._index.get(addr)
        if slot is not None:
            self.touch_slot(slot)
            self._state[slot] = state
            if data is not None:
                self._data[slot] = data
            self._dirty[slot] = dirty
            if meta is not None:
                self._meta[slot] = meta
            return self._views[slot], None

        victim = self.choose_victim(addr)
        slot = victim._slot
        evicted: CacheLine | None = None
        if self._valid[slot]:
            evicted = CacheLine()
            evicted.valid = True
            evicted.addr = self._addr[slot]
            evicted.state = self._state[slot]
            evicted.data = self._data[slot]
            evicted.dirty = self._dirty[slot]
            evicted.meta = self._meta[slot]
            del self._index[self._addr[slot]]
        self._valid[slot] = True
        self._addr[slot] = addr
        self._state[slot] = state
        self._data[slot] = data
        self._dirty[slot] = dirty
        self._meta[slot] = meta
        self._index[addr] = slot
        self.touch_slot(slot)
        return victim, evicted

    def invalidate(self, addr: int) -> CacheLine | None:
        """Invalidate ``addr`` if present; returns a detached snapshot."""
        slot = self._index.pop(addr, None)
        if slot is None:
            return None
        snapshot = CacheLine()
        snapshot.valid = True
        snapshot.addr = self._addr[slot]
        snapshot.state = self._state[slot]
        snapshot.data = self._data[slot]
        snapshot.dirty = self._dirty[slot]
        snapshot.meta = self._meta[slot]
        self._valid[slot] = False
        self._addr[slot] = -1
        self._state[slot] = None
        self._data[slot] = None
        self._dirty[slot] = False
        self._meta[slot] = None
        return snapshot

    # -- iteration --------------------------------------------------------

    def iter_valid(self) -> Iterator["_LineView"]:
        views = self._views
        return iter([views[slot] for slot in self._index.values()])

    def occupancy(self) -> int:
        return len(self._index)

    def __contains__(self, addr: int) -> bool:
        return addr in self._index

    def __len__(self) -> int:
        return self.num_sets * self.ways
