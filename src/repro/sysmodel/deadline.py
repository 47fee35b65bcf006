"""FedBalancer-style round-deadline selection (paper Eq. 3 context).

The server picks the round deadline ``T_R`` that maximises the ratio of the
*estimated number of clients finishing before T* to ``T`` itself — "neither
too high to discourage early stopping, nor too low to collect enough
updates" (§4.2). The maximiser over a step function is always attained at
one of the estimated completion times, so the search is a linear scan over
the sorted estimates.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["select_deadline"]


def select_deadline(
    estimated_completion_times: Iterable[float],
    *,
    min_fraction: float = 0.0,
) -> float:
    """Return the utility-maximising deadline.

    Parameters
    ----------
    estimated_completion_times:
        Server-side estimates of each selected client's full-round duration
        (download + K iterations + upload), typically carried over from the
        client's pace in the previous round.
    min_fraction:
        Optional floor on the fraction of clients that must be able to
        finish — deadlines covering fewer clients are skipped even if their
        ratio is higher. The aggregator needs enough updates to be useful;
        the simulator passes its partial-aggregation fraction here.

    Raises
    ------
    ValueError
        If the estimate list is empty or contains non-positive times.
    """
    times = np.asarray(list(estimated_completion_times), dtype=np.float64)
    if times.size == 0:
        raise ValueError("need at least one completion-time estimate")
    if np.any(times <= 0) or not np.all(np.isfinite(times)):
        raise ValueError("completion-time estimates must be positive and finite")
    if not 0.0 <= min_fraction <= 1.0:
        raise ValueError("min_fraction must be in [0, 1]")

    order = np.sort(times)
    n = order.size
    counts = np.arange(1, n + 1, dtype=np.float64)
    ratios = counts / order
    eligible = counts / n >= min_fraction
    if not eligible.any():
        # min_fraction = 1 with one extreme straggler: fall back to covering
        # everyone rather than failing the round.
        return float(order[-1])
    ratios = np.where(eligible, ratios, -np.inf)
    # Prefer the largest deadline among ties: equal utility, more updates.
    best = int(np.flatnonzero(ratios == ratios.max())[-1])
    return float(order[best])
