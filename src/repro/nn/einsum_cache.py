"""Shared bounded cache of ``np.einsum_path`` contraction plans.

Planning a contraction path with ``optimize="optimal"`` is a search over
operand orderings — cheap once, wasteful per call. This module centralises
planning behind a small process-wide LRU keyed on ``(subscripts, operand
shapes)``, so any geometry seen by any consumer is planned exactly once
until evicted. Today the one consumer is the cohort executor's masked
per-member loss reduction. The conv layers are not: even with the plan
cached, ``np.einsum(optimize=path)`` re-parses the subscripts and re-walks
the path in Python on every call, which cost more than the contraction
itself at this repo's sizes, so they call ``np.matmul`` directly; the
server-side aggregation deliberately keeps an unplanned einsum (a planned
path would change its float64 reduction order).

The cache stores only *paths* (tiny lists of tuples), never operands, and
a path is a pure function of the key — eviction can change speed, never
results.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

import numpy as np

__all__ = ["einsum_path_for", "planned_einsum", "path_cache_info", "clear_path_cache"]

#: Distinct (subscripts, shapes) plans kept; beyond this the least recently
#: used plan is dropped. 64 comfortably covers every layer geometry of the
#: shipped workloads at several batch sizes.
_MAX_PLANS = 64

_lock = Lock()  # reprolint: allow[FORK001] held only for O(us) dict ops on the calling thread; the pool-forking thread never holds it, so children can never inherit it locked
_plans: "OrderedDict[tuple, list]" = OrderedDict()
_hits = 0
_misses = 0


def einsum_path_for(subscripts: str, *shapes: tuple[int, ...]) -> list:
    """Contraction path for ``np.einsum(subscripts, ...)`` over operands of
    the given shapes, planned once per distinct key and LRU-cached."""
    global _hits, _misses
    key = (subscripts, shapes)
    with _lock:
        path = _plans.get(key)
        if path is not None:
            _plans.move_to_end(key)
            _hits += 1
            return path
        _misses += 1
    # Plan outside the lock: np.einsum_path only needs shape carriers, and a
    # rare duplicate plan for the same key is harmless (identical result).
    operands = [np.broadcast_to(np.empty((), dtype=np.float64), s) for s in shapes]
    path = np.einsum_path(subscripts, *operands, optimize="optimal")[0]
    with _lock:
        _plans[key] = path
        _plans.move_to_end(key)
        while len(_plans) > _MAX_PLANS:
            _plans.popitem(last=False)
    return path


def planned_einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum`` with the path resolved through the shared LRU cache."""
    path = einsum_path_for(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def path_cache_info() -> dict[str, int]:
    """Cache statistics (size/capacity/hits/misses) for tests and benches."""
    with _lock:
        return {
            "size": len(_plans),
            "max_size": _MAX_PLANS,
            "hits": _hits,
            "misses": _misses,
        }


def clear_path_cache() -> None:
    """Drop every cached plan and reset the statistics (test isolation)."""
    global _hits, _misses
    with _lock:
        _plans.clear()
        _hits = 0
        _misses = 0
