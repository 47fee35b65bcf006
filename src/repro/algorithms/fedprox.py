"""FedProx (Li et al.) — FedAvg plus a proximal term μ‖w − w_global‖².

Identical round structure to FedAvg; only the local objective changes, so
the scheme is FedAvg with a ``mu``-bearing optimiser spec (see
:class:`~repro.nn.ProxSGD` and the cohort engine's ``CohortSGD``). The
paper uses the recommended μ = 0.01.
"""

from __future__ import annotations

from .base import OptimizerSpec
from .fedavg import FedAvg

__all__ = ["FedProx"]


class FedProx(FedAvg):
    """FedAvg with the μ-proximal local objective (see module docstring)."""

    name = "FedProx"

    def __init__(self, optimizer: OptimizerSpec, *, mu: float = 0.01) -> None:
        if mu < 0:
            raise ValueError("mu must be non-negative")
        super().__init__(
            OptimizerSpec(
                optimizer.lr, optimizer.weight_decay, optimizer.momentum, mu=mu
            )
        )
        self.mu = mu
