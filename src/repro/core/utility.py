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

from .profiler import ProfiledCurves

__all__ = ["marginal_benefit", "marginal_cost"]


def marginal_benefit(curves: ProfiledCurves, tau: int) -> float:
    """Eq. 2 — estimated statistical gain of local iteration ``tau`` (1-based),
    read from the most recent anchor round's whole-model curve."""
    k = curves.num_iterations
    if not 1 <= tau <= k:
        raise ValueError(f"tau must be in [1, {k}], got {tau}")
    delta = curves.p(tau) - curves.p(tau - 1)
    if tau == k:
        # No remaining iterations: the floor term is vacuous.
        return delta
    floor = (1.0 - curves.p(tau)) / (k - tau)
    return max(delta, floor)


def marginal_cost(elapsed: float, deadline: float, beta: float) -> float:
    """Eq. 3 — deadline-kinked time cost.

    ``elapsed`` is the wall-clock time the client has spent in the round so
    far (its *instantaneous system status* — under dynamic resources this is
    what reacts to mid-round slowdowns), ``deadline`` the server-offloaded
    ``T_R``.
    """
    if elapsed < 0:
        raise ValueError("elapsed must be non-negative")
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    if not 0 < beta <= 1:
        raise ValueError("beta must be in (0, 1]")
    factor = beta if elapsed <= deadline else 1.0
    return factor * elapsed / deadline
