"""Marginal benefit / cost and the net-benefit utility (paper Eqs. 2–4).

* Benefit (Eq. 2): the profiled progress gain of iteration τ, floored by the
  expected per-iteration gain over the remaining iterations — the floor
  tames non-concave (noisy) curve stretches so a locally-flat segment does
  not terminate a round that still has real progress ahead.
* Cost (Eq. 3): elapsed wall time normalised by the round deadline ``T_R``,
  scaled by β ≪ 1 before the deadline and 1 after it — cheap to keep
  computing while the majority is still working, expensive once the client
  is at risk of straggling.
* Net benefit (Eq. 4): ``n = b − c``, which
  :class:`~repro.core.earlystop.EarlyStopPolicy` evaluates; the client stops
  at the first iteration where it turns negative.
"""

from __future__ import annotations

import numpy as np

__all__ = ["marginal_benefit", "marginal_cost"]


def marginal_benefit(p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Eq. 2 — estimated statistical gain of every local iteration τ
    (1-based) for each row of ``p``, one member's most recent anchor-round
    whole-model curve ``P_0 … P_K`` (``P_0 = 0``) of K ``k``: element
    ``[i, τ-1]`` is the IEEE result of the scalar expression; a row with
    ``K < τ`` reads nothing meaningful there."""
    tau = np.arange(1, p.shape[1])
    left = k[:, None] - tau
    delta = p[:, 1:] - p[:, :-1]
    floor = (1.0 - p[:, 1:]) / np.maximum(left, 1)
    # At τ = K no iterations remain: the floor term is vacuous.
    return np.where((left > 0) & (floor > delta), floor, delta)


def marginal_cost(elapsed, deadline: float, beta: float):
    """Eq. 3 — deadline-kinked time cost, elementwise over ``elapsed``.

    ``elapsed`` is the wall-clock time each client has spent in the round
    so far (its *instantaneous system status* — under dynamic resources
    this is what reacts to mid-round slowdowns), ``deadline`` the
    server-offloaded ``T_R``, one per round. Each element is the scalar
    ``factor * elapsed / deadline`` (``1.0 * e`` is ``e`` exactly).
    """
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    if np.count_nonzero(np.less(elapsed, 0)):
        raise ValueError("elapsed must be non-negative")
    return np.where(np.less_equal(elapsed, deadline), np.multiply(beta, elapsed), elapsed) / deadline
