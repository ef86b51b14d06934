"""Parallel execution of simulation cells.

Public surface:

- :class:`Cell` — one (workload, config) simulation.
- :func:`run_cell_inline` — the serial in-process reference path.
- :class:`CellError` / :class:`CellTimeout` — failures the pool reports.

Cells resolve through :func:`repro.store.resolve_cells`, which fans the
ones the store cannot answer out over this package's process pool.
"""

from repro.runner.cells import Cell
from repro.runner.executor import (
    CellError,
    CellTimeout,
    default_progress,
    effective_jobs,
    run_cell_inline,
)

__all__ = [
    "Cell",
    "CellError",
    "CellTimeout",
    "default_progress",
    "effective_jobs",
    "run_cell_inline",
]
