"""Fan a sweep grid across a multiprocessing pool.

Workers return ``ScenarioResult.to_dict()`` payloads — plain JSON-safe
data — never live objects, so nothing a cluster holds (tracer handles,
open generators) can poison pool transport.  A worker that raises is
caught *inside* the worker and shipped back as an ``error`` record with
the formatted traceback: exception objects themselves (which may carry
unpicklable state) never cross the boundary.

``workers <= 1`` runs every cell inline in the calling process — no
pool, no pickling — which is both the cheap path for benches running a
serial grid and the reference half of the workers-1-vs-N determinism
regression: the output must be identical either way, because both
paths hand results back in input order (:func:`_ordered_map`).
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import traceback
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..scenarios.runner import ScenarioRunner
from .grid import SweepCell, SweepGrid

__all__ = ["run_grid", "pool_map", "workers_from_env"]

#: Env var benches consult for their grid fan-out (default: serial).
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: A custom per-cell executor: takes the cell, returns the JSON-safe
#: payload stored under the record's ``result`` key.  Must be a picklable
#: module-level callable when workers > 1.
CellFn = Callable[[SweepCell], Dict[str, Any]]


def _default_cell(cell: SweepCell) -> Dict[str, Any]:
    return ScenarioRunner(cell.spec, seed=cell.seed).run().to_dict()


def _run_cell(cell: SweepCell, cell_fn: Optional[CellFn] = None) -> Dict[str, Any]:
    """Execute one cell; always returns a plain, picklable dict."""
    try:
        payload = (cell_fn or _default_cell)(cell)
        return {
            "index": cell.index,
            "name": cell.spec.name,
            "seed": cell.seed,
            "replicate": cell.replicate,
            "result": payload,
        }
    except Exception:
        return {
            "index": cell.index,
            "name": cell.spec.name,
            "seed": cell.seed,
            "replicate": cell.replicate,
            "error": traceback.format_exc(),
        }


def _ordered_map(fn: Callable[[Any], Any], items: Sequence[Any],
                 workers: int) -> Iterator[Any]:
    """``fn(item)`` for each item, yielded in *input* order whatever the
    completion order: inline with no pool and no pickling when
    ``workers <= 1`` (or there is one item), across a pool otherwise."""
    if workers <= 1 or len(items) <= 1:
        yield from map(fn, items)
        return
    with multiprocessing.Pool(min(workers, len(items))) as pool:
        yield from pool.imap(fn, items, chunksize=1)


def run_grid(
    grid: SweepGrid,
    workers: int = 1,
    progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    cell_fn: Optional[CellFn] = None,
) -> List[Dict[str, Any]]:
    """Run every cell; returns records in grid order.

    ``progress`` (when given) is called once per record, in grid order,
    as soon as it and every record before it are in — live CLI
    reporting.

    ``cell_fn`` (when given) replaces the default run-and-to_dict cell
    body — benches use it to attach probes or extra instrumentation to
    each cell while keeping the grid expansion, pool transport and
    grid order (and therefore worker-count invariance) from here.  It
    must be a picklable module-level callable returning a JSON-safe
    dict.
    """
    worker = functools.partial(_run_cell, cell_fn=cell_fn)
    records: List[Dict[str, Any]] = []
    for record in _ordered_map(worker, grid.cells(), workers):
        if progress is not None:
            progress(record)
        records.append(record)
    return records


def workers_from_env(default: int = 1) -> int:
    """Worker count for bench grids, from ``REPRO_SWEEP_WORKERS``.

    Defaults to serial so committed bench emissions are produced by the
    exact code path they always were; CI's sweep smoke and impatient
    local runs opt in to fan-out.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return default
    value = int(raw)
    if value < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value}")
    return value


def _call(task: Tuple[Callable[..., Any], tuple]) -> Any:
    fn, args = task
    return fn(*args)


def pool_map(fn: Callable[..., Any], argtuples: Sequence[tuple]) -> List[Any]:
    """Order-preserving map over a worker pool — the bench-grid helper.

    ``fn(*args)`` runs once per tuple; results come back in *input*
    order whatever the completion order, so a bench's per-size rows are
    reproducible at any worker count.  The worker count is
    ``REPRO_SWEEP_WORKERS`` (default serial); serial runs call ``fn``
    inline with no pool and no pickling.  ``fn`` and its results must be
    picklable when workers > 1 (module-level functions returning plain
    data).
    """
    tasks = [(fn, tuple(args)) for args in argtuples]
    return list(_ordered_map(_call, tasks, workers_from_env()))
