"""Early-stopping policy (paper §4.2, ``TryEarlyStop``)."""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import FedCAConfig
from .profiler import ProfiledCurves
from .utility import marginal_benefit, marginal_cost

__all__ = ["EarlyStopPolicy", "EarlyStopDecision"]


class EarlyStopDecision(NamedTuple):
    """One ``TryEarlyStop`` evaluation of the members of a stack after
    iteration τ: the ``(n,)`` verdict ``stop`` and Eq. 2–4's ``b``, ``c``
    and ``n = b − c`` as float64 arrays — ``None`` when every member
    short-circuited before Eq. 4 (``short``: ``"disabled"`` or
    ``"min_iterations"``). A member whose profiled K is at most τ has
    ``b = −inf``: its curve is exhausted, and it stops. The telemetry layer
    records :meth:`fields` verbatim as ``fedca.earlystop.eval`` events."""

    tau: int
    stop: np.ndarray
    benefit: np.ndarray | None = None
    cost: np.ndarray | None = None
    net: np.ndarray | None = None
    short: str | None = None

    def reason(self, i: int) -> str:
        """Why member ``i`` stops or goes on."""
        if self.short is not None:
            return self.short
        if self.benefit[i] == -np.inf:
            return "curve_exhausted"
        return "net_benefit_negative" if self.stop[i] else "net_benefit_positive"

    def fields(self, i: int, elapsed: float) -> dict:
        """Member ``i``'s event payload, in plain Python scalars."""
        reason = self.reason(i)
        b = c = n = None
        if reason.startswith("net_"):
            b, c, n = (float(a[i]) for a in (self.benefit, self.cost, self.net))
        stop = bool(self.stop[i])
        return {"tau": self.tau, "b": b, "c": c, "n": n, "elapsed": elapsed,
                "stop": stop, "reason": reason}


class EarlyStopPolicy:
    """Decides after each local iteration whether each member of a stack
    terminates its round.

    The policy is pure decision logic: the caller supplies the iteration
    index and each member's *actual* elapsed wall-clock time (the client's
    instantaneous system status), and the policy combines them with the
    member's most recently profiled statistical curve. A client under a
    sudden slowdown accumulates elapsed time faster, its marginal cost
    rises sooner, and it stops earlier — the intra-round reactivity that
    server-autocratic schemes lack.
    """

    def __init__(self, curves: Sequence[ProfiledCurves], config: FedCAConfig) -> None:
        self.config = config
        #: Each member's profiled K.
        self.num_iterations = k = np.array([c.num_iterations for c in curves])
        #: Row ``i``: member ``i``'s whole-model ``P_0 … P_K`` (``P_0 = 0``).
        self.p = np.zeros((len(curves), k.max() + 1))
        for row, c in zip(self.p, curves):
            row[1 : c.num_iterations + 1] = c.model_curve
        #: ``benefit[i, τ-1]``: member ``i``'s Eq. 2 ``b`` of iteration τ,
        #: ``−inf`` from its K on.
        self.benefit = marginal_benefit(self.p, k)
        self.benefit[np.arange(1, k.max() + 1) >= k[:, None]] = -np.inf

    def decide(
        self, tau: int, elapsed: np.ndarray, deadline: float, rows=slice(None)
    ) -> EarlyStopDecision:
        """``TryEarlyStop`` after iteration τ for the members ``rows``
        (default: all), whose ``(n,)`` ``elapsed`` times are in ``rows``
        order, against the round's ``deadline``.

        Per Eq. 4 a member stops as soon as the net benefit of the just
        completed iteration turns negative. Iterations below
        ``min_local_iterations`` never stop (a round must contribute
        *something*), and τ at or beyond a member's profiled K trivially
        stops it.
        """
        if tau < 1:
            raise ValueError("tau must be >= 1")
        n = len(elapsed)
        if not self.config.enable_early_stop:
            return EarlyStopDecision(tau, np.zeros(n, dtype=bool), short="disabled")
        if tau < self.config.min_local_iterations:
            return EarlyStopDecision(tau, np.zeros(n, dtype=bool), short="min_iterations")
        if tau > self.benefit.shape[1]:  # past every member's K
            return EarlyStopDecision(tau, np.ones(n, dtype=bool), np.full(n, -np.inf))
        b = self.benefit[:, tau - 1][rows]
        c = marginal_cost(elapsed, deadline, self.config.beta)
        net = b - c
        return EarlyStopDecision(tau, net < 0.0, b, c, net)
