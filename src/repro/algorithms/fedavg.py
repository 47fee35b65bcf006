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
        update, nbytes = self.strategy._encode_update(self.client, update)
        return self.upload_full(
            update, nbytes, {"iterations_run": self.iterations_run}
        )


class FedAvg(Strategy):
    """Vanilla FedAvg client round (see module docstring)."""

    name = "FedAvg"

    def __init__(self, optimizer: OptimizerSpec) -> None:
        self.optimizer = optimizer

    def begin(
        self,
        client: SimClient,
        global_state: dict[str, np.ndarray],
        ctx: RoundContext,
        params: dict[str, np.ndarray],
    ) -> RoundMember:
        return _FedAvgMember(self, client, ctx, ctx.effective_iterations)

    # Hook for compressed variants: returns the update *as the server will
    # receive it* (possibly lossy) and its wire size in bytes.
    def _encode_update(
        self, client: SimClient, update: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], int]:
        return update, client.model_bytes
