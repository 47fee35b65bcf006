"""FedAvg (McMahan et al.) — the baseline scheme.

Every selected client runs the full K local iterations and uploads the
complete model update at round end; the server's 90 % partial aggregation
(handled by the simulator) is the only straggler mitigation.
"""

from __future__ import annotations

import numpy as np

from ..runtime.client import SimClient
from ..runtime.round import ClientRoundResult, RoundContext
from .base import OptimizerSpec, RoundMember, Strategy

__all__ = ["FedAvg"]


class _FedAvgMember(RoundMember):
    """K local iterations (or the server-assigned budget — FedAda's arrive
    as ``effective_iterations``), then a single end-of-round upload."""

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        return self.upload_full(
            update, self.client.model_bytes, {"iterations_run": self.iterations_run}
        )


class FedAvg(Strategy):
    """Vanilla FedAvg client round (see module docstring)."""

    name = "FedAvg"

    def __init__(self, optimizer: OptimizerSpec) -> None:
        self.optimizer = optimizer

    def begin(
        self,
        client: SimClient,
        global_state: np.ndarray,
        ctx: RoundContext,
        params: np.ndarray,
    ) -> RoundMember:
        return _FedAvgMember(self, client, ctx, ctx.effective_iterations)
