"""Early-stopping policy (paper §4.2, ``TryEarlyStop``)."""

from __future__ import annotations

from dataclasses import dataclass

from .config import FedCAConfig
from .profiler import ProfiledCurves
from .utility import marginal_benefit, marginal_cost

__all__ = ["EarlyStopPolicy", "EarlyStopDecision"]


@dataclass(frozen=True)
class EarlyStopDecision:
    """One ``TryEarlyStop`` evaluation, with the Eq. 2–4 terms exposed.

    ``benefit``/``cost``/``net`` are the paper's ``b``, ``c`` and
    ``n = b − c``; they are ``None`` when the decision short-circuited
    before Eq. 4 was evaluated (see ``reason``). The telemetry layer
    records these verbatim as ``fedca.earlystop.eval`` events.
    """

    stop: bool
    tau: int
    benefit: float | None
    cost: float | None
    net: float | None
    #: Why: "disabled", "min_iterations", "curve_exhausted",
    #: "net_benefit_negative" or "net_benefit_positive".
    reason: str


class EarlyStopPolicy:
    """Decides after each local iteration whether to terminate the round.

    The policy is pure decision logic: the caller supplies the iteration
    index and the *actual* elapsed wall-clock time (the client's
    instantaneous system status), and the policy combines them with the most
    recently profiled statistical curve. A client under a sudden slowdown
    accumulates elapsed time faster, its marginal cost rises sooner, and it
    stops earlier — the intra-round reactivity that server-autocratic
    schemes lack.
    """

    def __init__(self, curves: ProfiledCurves, config: FedCAConfig) -> None:
        self.curves = curves
        self.config = config

    def decide(self, tau: int, elapsed: float, deadline: float) -> EarlyStopDecision:
        """Full ``TryEarlyStop`` evaluation after completing iteration τ.

        Per Eq. 4 the client stops as soon as the net benefit of the just
        completed iteration turns negative. Iterations below
        ``min_local_iterations`` never stop (a round must contribute
        *something*), and τ beyond the profiled K trivially stops.
        """
        if tau < 1:
            raise ValueError("tau must be >= 1")
        if not self.config.enable_early_stop:
            return EarlyStopDecision(False, tau, None, None, None, "disabled")
        if tau < self.config.min_local_iterations:
            return EarlyStopDecision(False, tau, None, None, None, "min_iterations")
        if tau >= self.curves.num_iterations:
            return EarlyStopDecision(True, tau, None, None, None, "curve_exhausted")
        b = marginal_benefit(self.curves, tau)
        c = marginal_cost(elapsed, deadline, self.config.beta)
        n = b - c
        stop = n < 0.0
        return EarlyStopDecision(
            stop, tau, b, c, n,
            "net_benefit_negative" if stop else "net_benefit_positive",
        )
