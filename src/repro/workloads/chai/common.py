"""Shared building blocks for the CHAI-like workloads.

The CHAI suite's collaboration idioms, distilled:

- **coarse data partitioning**: CPU threads and GPU workgroups own disjoint
  index ranges of a shared array (bs, hsto, rscd);
- **chunk claiming**: workers dynamically grab chunks from a shared atomic
  counter (sc, trns, hsti);
- **work queues**: producers enqueue task descriptors, consumers dequeue
  with atomic head/tail indices and flag-guarded payloads (tq, rsct, cedd);
- **fine-grained flags**: per-chunk ready flags connect pipeline stages
  across devices (cedd, pad).

All helpers keep the *memory behaviour* of the idiom: which words are
shared, who writes them, and which atomics order the handoffs.
"""

from __future__ import annotations

from typing import Generator, Iterable

from repro.protocol.atomics import AtomicOp
from repro.workloads import trace as ops


def partition(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``parts`` contiguous [lo, hi) spans."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    base, extra = divmod(total, parts)
    spans = []
    lo = 0
    for index in range(parts):
        hi = lo + base + (1 if index < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def chunks(lo: int, hi: int, size: int) -> Iterable[tuple[int, int]]:
    for start in range(lo, hi, size):
        yield start, min(start + size, hi)


# -- GPU-side idioms ----------------------------------------------------------------


def gpu_spin_flag(addr: int, want: int = 1, max_spins: int = 100_000) -> Generator:
    """GPU-side flag wait through SLC atomic reads (they bypass stale caches)."""
    for _ in range(max_spins):
        value = yield ops.AtomicRMW(addr, AtomicOp.ADD, 0, scope="slc")
        if value >= want:
            return
        yield ops.Think(200)
    raise RuntimeError(f"GPU spun out waiting on flag {addr:#x}")


# -- deterministic pseudo-data ---------------------------------------------------------


def token(agent: int, index: int) -> int:
    """A tagged, collision-free data token (identifies writer and element)."""
    return (agent + 1) * 1_000_000 + index + 1
