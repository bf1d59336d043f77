"""Deterministic parallel mapping.

Work items carry their own keyed random streams, so the mapping is a
pure function of the item list; running it over any number of worker
processes returns bit-identical results in input order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

__all__ = ["ordered_map", "worker_count"]

WORKERS_ENV = "MCIS_WORKERS"


def worker_count(requested: int | None = None) -> int:
    """Resolve a worker count: explicit argument, else the environment
    override, else 1 (sequential)."""
    if requested is not None:
        return max(1, int(requested))
    env = os.environ.get(WORKERS_ENV)
    if env:
        return max(1, int(env))
    return 1


def ordered_map(
    func: Callable, items: Sequence, n_workers: int | None = None
) -> list:
    """Map ``func`` over ``items``, preserving input order.

    With one worker this is a plain loop; with more, a process pool —
    ``func`` and the items must then be picklable.  Results are
    identical either way provided ``func`` is deterministic per item.
    ``n_workers=None`` defers to the ``MCIS_WORKERS`` environment
    variable, defaulting to sequential.
    """
    n_workers = worker_count(n_workers)
    if n_workers <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    chunk = max(1, len(items) // (4 * n_workers))
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(func, items, chunksize=chunk))
