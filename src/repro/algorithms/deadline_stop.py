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
from .base import MemberStack, OptimizerSpec, RoundMember, Strategy

__all__ = ["DeadlineStop"]


class _DeadlineMember(RoundMember):
    """Train until K iterations or the deadline, whichever first."""

    stopped_early = False

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


class _DeadlineStack(MemberStack):
    """Stops each member whose elapsed compute reached ``T_R`` before K
    (one round's members share both)."""

    def decide(self, tau: int, rows: np.ndarray) -> np.ndarray | None:
        ctx, live = self.members[0].ctx, self.live
        if tau >= ctx.iterations:
            return None
        late = live.t - live.start >= ctx.deadline
        for j in late.nonzero()[0].tolist():
            self.members[j].stopped_early = True
        return late


class DeadlineStop(Strategy):
    """Stop-at-deadline ablation baseline (see module docstring)."""

    name = "DeadlineStop"
    Stack = _DeadlineStack

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
