"""Naive deadline-stop baseline — an ablation comparator for FedCA.

Clients stop local training the moment their elapsed compute time crosses
the server's deadline ``T_R``, with no statistical-utility reasoning at all
(FedBalancer-style pace control reduced to its bluntest form). Comparing it
against FedCA isolates what the Eq. 2–4 utility function actually buys:
FedCA stops *before* the deadline when remaining iterations carry little
statistical value, and keeps computing *past* it when the profiled benefit
still justifies the cost — the naive rule can do neither.
"""

from __future__ import annotations

import numpy as np

from ..runtime.client import SimClient
from ..runtime.round import ClientRoundResult, RoundContext
from .base import OptimizerSpec, RoundMember, Strategy

__all__ = ["DeadlineStop"]


class _DeadlineMember(RoundMember):
    """Train until K iterations or the deadline, whichever first."""

    stopped_early = False

    def after_step(self, tau: int, loss: float) -> bool:
        self.tick(tau, loss)
        ctx = self.ctx
        if tau < ctx.iterations and (self.t - self.compute_start) >= ctx.deadline:
            self.stopped_early = True
        return not self.stopped_early

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        return self.upload_full(
            update,
            self.client.model_bytes,
            {
                "iterations_run": self.iterations_run,
                "early_stop_iteration": (
                    self.iterations_run if self.stopped_early else None
                ),
            },
        )


class DeadlineStop(Strategy):
    """Stop-at-deadline ablation baseline (see module docstring)."""

    name = "DeadlineStop"

    def __init__(self, optimizer: OptimizerSpec) -> None:
        self.optimizer = optimizer

    def begin(
        self,
        client: SimClient,
        global_state: np.ndarray,
        ctx: RoundContext,
        params: np.ndarray,
    ) -> RoundMember:
        return _DeadlineMember(self, client, ctx, ctx.iterations)
