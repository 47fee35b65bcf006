"""Shards of the flat parameter vector for the parallel tree reduction.

The weighted average of one round's updates is a contraction over ``(n,
P)`` rows — ``n`` collected clients, ``P`` the model's parameter count
(:mod:`repro.runtime.aggregation`). Sharded aggregation cuts the ``P`` axis
into ``S`` contiguous index ranges, :func:`shard_bounds` — boundaries fall
wherever the arithmetic puts them, inside layers as readily as between —
and hands each range to one persistent worker, which reduces *its* slice of
every collected client's row, in place in the per-worker shm result arenas
the round wrote, into the same slice of one shared output vector. No
process ever holds more than its range × clients floats, and the parent
reads the reduced vector back with one copy.

Bitwise identity with the serial oracle is pinned by
:func:`weighted_segment_sum`: for IEEE-754 elementwise ops, slicing an
``einsum("c,cn->n")`` operand along ``n`` commutes with slicing its output
(each output scalar is the same length-``c`` dot product either way), so
the serial reduce is simply the one-shard case.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["shard_bounds", "weighted_segment_sum"]


def shard_bounds(size: int, num_shards: int) -> list[int]:
    """``num_shards + 1`` boundaries cutting ``[0, size)`` the way
    ``np.array_split`` does: the first ``size % num_shards`` ranges hold one
    more index, and ranges past the end are empty."""
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    q, r = divmod(size, num_shards)
    return [k * q + min(k, r) for k in range(num_shards + 1)]


def weighted_segment_sum(
    weights: np.ndarray, rows: "np.ndarray | Sequence[np.ndarray]"
) -> np.ndarray:
    """Weighted sum over clients of one index range, float64-accumulated.

    ``rows`` holds one flat row per collected client, in collected order.
    The accumulation order is pinned to the serial oracle's: float64 upcast
    per client, one einsum contraction over the client axis, float32
    downcast. Do **not** replace this with a running sum or a dot-product
    variant — the float64 reduction order is part of the bitwise-identity
    contract.
    """
    stacked = np.asarray(rows, dtype=np.float64)
    if stacked.shape[-1] == 1:
        # numpy contracts a one-column operand with its reduction loop,
        # which sums the clients in another order; a zero second column
        # keeps the column-wise loop every wider range runs.
        stacked = np.pad(stacked, ((0, 0), (0, 1)))
        return np.einsum("c,cn->n", weights, stacked)[:1].astype(np.float32)
    return np.einsum("c,cn->n", weights, stacked).astype(np.float32)
