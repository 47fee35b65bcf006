"""Server-side update collection and FedAvg aggregation.

A weighted average is one contraction over flat rows: each collected
client's update (or buffer dict) is gathered into one float64 row through
the dict's :class:`~repro.nn.layout.Layout`, and
:func:`weighted_segment_sum` reduces the ``(n, P)`` rows. Key sets are
validated once per client. Every engine's round ends here, in the parent.
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

from ..nn.layout import Layout
from .round import ClientRoundResult

__all__ = [
    "collect_earliest",
    "aggregate_updates",
    "aggregate_buffers",
    "apply_update",
    "weighted_segment_sum",
]


def collect_earliest(
    results: list[ClientRoundResult], fraction: float
) -> tuple[list[ClientRoundResult], float]:
    """Partial aggregation: keep the earliest-arriving ``fraction`` of
    updates (paper §5.1 uses 90 %) and return them with the round-end time
    (the arrival of the last collected update).

    The collected count is pinned to **round-half-up**,
    ``max(1, floor(fraction · n + 0.5))``: 0.9 × 5 collects 5 and
    0.9 × 15 collects 14. (Python's ``round`` uses banker's rounding, which
    made the count depend on the parity of ``fraction · n``'s integer part —
    0.9 × 5 collected 4 while 0.9 × 15 collected 14.)

    Updates arriving after the cut are discarded, as under vanilla FedAvg.
    """
    if not results:
        raise ValueError("no client results to collect")
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    count = min(len(results), max(1, math.floor(fraction * len(results) + 0.5)))
    # heapq.nsmallest is an O(n log count) partial sort and, like sorted(),
    # stable on ties — equal finish times keep their job-submission order,
    # so the collected set is byte-identical to the old full sort's.
    collected = heapq.nsmallest(
        count, results, key=lambda r: r.upload_finish_time
    )
    return collected, collected[-1].upload_finish_time


def _check_keys(results: list[ClientRoundResult], attr: str) -> None:
    """One key-set comparison per client (not per layer × client)."""
    first = getattr(results[0], attr)
    for r in results[1:]:
        if getattr(r, attr).keys() != first.keys():
            kind = "update layers" if attr == "update" else "buffer keys"
            raise KeyError(
                f"client {r.client_id} {kind} differ from client "
                f"{results[0].client_id}"
            )


def weighted_segment_sum(
    weights: np.ndarray, rows: "np.ndarray | Sequence[np.ndarray]"
) -> np.ndarray:
    """Weighted sum over clients of ``(n, P)`` rows, float64-accumulated.

    ``rows`` holds one flat row per collected client, in collected order.
    The accumulation order is pinned: float64 upcast per client, one
    einsum contraction over the client axis, float32 downcast. Do **not**
    replace this with a running sum or a dot-product variant — the float64
    reduction order is part of the bitwise-identity contract.
    """
    stacked = np.asarray(rows, dtype=np.float64)
    if stacked.shape[-1] == 1:
        # numpy contracts a one-column operand with its reduction loop,
        # which sums the clients in another order; a zero second column
        # keeps the column-wise loop every wider input runs.
        stacked = np.pad(stacked, ((0, 0), (0, 1)))
        return np.einsum("c,cn->n", weights, stacked)[:1].astype(np.float32)
    return np.einsum("c,cn->n", weights, stacked).astype(np.float32)


def _weighted_average(
    results: list[ClientRoundResult], attr: str, total: float
) -> dict[str, np.ndarray]:
    """Sample-weighted mean of ``results[i].<attr>``, as views into one
    reduced vector."""
    layout = Layout.of_arrays(getattr(results[0], attr))
    rows = np.empty((len(results), layout.size), dtype=np.float64)
    for row, r in zip(rows, results):
        layout.flatten(getattr(r, attr), out=row)
    weights = np.array([r.num_samples for r in results], dtype=np.float64) / total
    return layout.views(weighted_segment_sum(weights, rows))


def aggregate_updates(
    results: list[ClientRoundResult],
) -> dict[str, np.ndarray]:
    """Sample-count-weighted average of client updates (FedAvg)."""
    if not results:
        raise ValueError("cannot aggregate zero updates")
    total = float(sum(r.num_samples for r in results))
    if total <= 0:
        raise ValueError("aggregate weight must be positive")
    _check_keys(results, "update")
    return _weighted_average(results, "update", total)


def aggregate_buffers(
    results: list[ClientRoundResult],
) -> dict[str, np.ndarray]:
    """Sample-count-weighted average of reported non-trainable buffers
    (BatchNorm running statistics). Returns ``{}`` for buffer-free models.

    Buffers are direct values, not deltas, so the aggregate replaces the
    server's buffer state rather than being added to it.
    """
    if not results:
        raise ValueError("cannot aggregate zero results")
    if not results[0].buffers:
        return {}
    total = float(sum(r.num_samples for r in results))
    _check_keys(results, "buffers")
    return _weighted_average(results, "buffers", total)


def apply_update(
    global_state: dict[str, np.ndarray], update: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Return the refined global state ``w ← w + Δ``."""
    if global_state.keys() != update.keys():
        raise KeyError("update layers do not match global state")
    layout = Layout.of_arrays(global_state)
    refined = layout.flatten(global_state)
    refined += layout.flatten(update)
    return layout.views(refined)
