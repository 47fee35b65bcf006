"""Server-side update collection and FedAvg aggregation.

The weighted averages here are the server's per-round hot path at scale
(layers × clients arrays): key sets are validated **once per client**, and
the accumulation is a single vectorized contraction per layer
(``np.stack`` + ``einsum``) instead of a Python double loop. Accumulation
stays in float64 and is cast back to float32 at the end, as before.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .round import ClientRoundResult

__all__ = [
    "collect_earliest",
    "aggregate_updates",
    "aggregate_buffers",
    "apply_update",
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


def _weighted_average(
    results: list[ClientRoundResult], attr: str, total: float
) -> dict[str, np.ndarray]:
    """Vectorized sample-weighted mean of ``results[i].<attr>`` per layer."""
    weights = np.array([r.num_samples for r in results], dtype=np.float64) / total
    out: dict[str, np.ndarray] = {}
    for name in getattr(results[0], attr):
        stacked = np.stack(
            [np.asarray(getattr(r, attr)[name], dtype=np.float64) for r in results]
        )
        # NOTE: deliberately an unplanned einsum: ``optimize=`` changes the
        # float64 reduction order here, which would break the bitwise
        # identity of histories against pre-existing runs.
        out[name] = np.einsum("c,c...->...", weights, stacked).astype(np.float32)
    return out


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
    return {name: global_state[name] + update[name] for name in global_state}
