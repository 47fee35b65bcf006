"""Optimisers for local client training.

The paper trains every workload with plain SGD plus weight decay; FedProx
adds a proximal term μ‖w − w_global‖² to the local objective, which at the
update level is an extra ``μ (w − w_global)`` gradient component — so it is
implemented here as an optimiser variant rather than a loss change, keeping
the training loop identical across algorithms.
"""

from __future__ import annotations

import numpy as np

from .module import Module

__all__ = ["SGD", "ProxSGD"]


class SGD:
    """Vanilla SGD with decoupled-from-nothing (torch-style coupled) weight
    decay and optional momentum.

    ``weight_decay`` is added to the gradient before the step, matching
    ``torch.optim.SGD`` semantics used in the paper's setup. The step is a
    handful of operations over the model's whole parameter vector
    (:meth:`~repro.nn.module.Module.arena`) — elementwise, so each scalar
    sees exactly the arithmetic a per-parameter loop would give it.
    """

    def __init__(
        self,
        model: Module,
        lr: float,
        *,
        weight_decay: float = 0.0,
        momentum: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self._velocity: np.ndarray | None = (
            np.zeros_like(model.arena().values) if momentum > 0.0 else None
        )

    def _effective_grad(self, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
        if self.weight_decay:
            grads = grads + self.weight_decay * values
        return grads

    def step(self) -> None:
        """Apply one update to every parameter from its accumulated grad."""
        arena = self.model.arena()
        values = arena.values
        grad = self._effective_grad(values, arena.grads)
        if self._velocity is not None:
            v = self._velocity
            v *= self.momentum
            v += grad
            grad = v
        values -= self.lr * grad

    def zero_grad(self) -> None:
        """Reset all parameter gradients (delegates to the model)."""
        self.model.zero_grad()


class ProxSGD(SGD):
    """SGD with a FedProx proximal pull toward the round-start global model.

    The anchor must be set at the start of every round via
    :meth:`set_anchor`: the ``(P,)`` parameter vector of the model the
    server broadcast, read as it is.
    """

    def __init__(
        self,
        model: Module,
        lr: float,
        *,
        mu: float,
        weight_decay: float = 0.0,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(model, lr, weight_decay=weight_decay, momentum=momentum)
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.mu = mu
        self._anchor: np.ndarray | None = None

    def set_anchor(self, params: np.ndarray) -> None:
        """Install the round-start global parameter vector the proximal
        term pulls to."""
        expected = self.model.arena().values.shape
        if params.shape != expected:
            raise ValueError(
                f"ProxSGD anchor has shape {params.shape}, model parameters {expected}"
            )
        self._anchor = params

    def _effective_grad(self, values: np.ndarray, grads: np.ndarray) -> np.ndarray:
        grads = super()._effective_grad(values, grads)
        if self.mu and self._anchor is not None:
            grads = grads + self.mu * (values - self._anchor)
        return grads
