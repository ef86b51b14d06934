"""Persistent SQLite results store and the resolution entry points.

Public surface:

- :class:`ResultStore` — the SQLite-backed store every producer writes
  and every consumer queries (``repro store`` administers it).
- :func:`resolve_cells` — the single entry point that turns cells into
  results via store lookup, in-batch dedup, and local execution.
- :func:`resolve_litmus` — the same entry point for litmus runs (the
  fuzz campaign's fan-out path).
- :func:`cell_key` / :func:`source_digest` / :func:`workload_token` —
  the content-addressed keys rows are stored under.
"""

from repro.store.keys import CACHE_VERSION, cell_key, source_digest, workload_token
from repro.store.resolve import resolve_cells, resolve_litmus
from repro.store.store import (
    DEFAULT_STORE_PATH,
    KIND_CELL,
    KIND_LITMUS,
    ResultStore,
    default_store_path,
)

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_STORE_PATH",
    "KIND_CELL",
    "KIND_LITMUS",
    "ResultStore",
    "cell_key",
    "default_store_path",
    "resolve_cells",
    "resolve_litmus",
    "source_digest",
    "workload_token",
]
