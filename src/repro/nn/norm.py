"""Normalisation layers for convolutional feature maps.

:class:`BatchNorm2d` matches the paper's WRN; :class:`GroupNorm2d` is the
stateless alternative much of the FL literature substitutes for BN under
non-IID data (no running statistics to synchronise or skew). The repo ships
both so the BN-vs-GN choice can be ablated.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .parameter import Parameter

__all__ = ["BatchNorm2d", "GroupNorm2d"]


class BatchNorm2d(Module):
    """Per-channel batch norm over ``(N, C, H, W)``.

    ``weight`` (γ) and ``bias`` (β) are trainable and participate in
    federated aggregation; the running statistics are *local buffers* — the
    paper's setup synchronises parameters only, and WideResNet tolerates
    client-local running stats at the small batch sizes used here.
    """

    unstackable = (
        "its batch statistics would absorb the zero-padded rows of ragged "
        "member batches"
    )

    def __init__(self, num_features: int, *, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[1]}")
        if self.training:
            mean = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            # In-place updates keep the registered buffer object identity.
            self.running_mean *= 1 - m
            self.running_mean += m * mean.astype(np.float32)
            self.running_var *= 1 - m
            self.running_var += m * var.astype(np.float32)
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
        out = self.weight.data[None, :, None, None] * x_hat + self.bias.data[None, :, None, None]
        if self.training:
            self._cache = (x_hat, inv_std, x.shape)
        else:
            self._cache = None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            # Eval-mode backward: statistics are constants.
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            return grad_out * (self.weight.data * inv_std)[None, :, None, None]
        x_hat, inv_std, shape = self._cache
        self._cache = None
        n, c, h, w = shape
        m = n * h * w  # elements per channel
        self.weight.grad += (grad_out * x_hat).sum(axis=(0, 2, 3))
        self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        # Standard batch-norm backward through the batch statistics.
        g = grad_out * self.weight.data[None, :, None, None]
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        sum_gx = (g * x_hat).sum(axis=(0, 2, 3), keepdims=True)
        inv = inv_std[None, :, None, None]
        return (inv / m) * (m * g - sum_g - x_hat * sum_gx)


class GroupNorm2d(Module):
    """Group normalisation over ``(*lead, N, C, H, W)``.

    Statistics are computed per sample per channel-group, so behaviour is
    identical in train and eval mode and nothing needs federated
    synchronisation — the property that makes GN the standard BN substitute
    in non-IID federated settings.
    """

    def __init__(self, num_groups: int, num_channels: int, *, eps: float = 1e-5) -> None:
        super().__init__()
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if num_channels % num_groups != 0:
            raise ValueError(
                f"num_channels {num_channels} not divisible by num_groups {num_groups}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.weight = Parameter(np.ones(num_channels, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_channels, dtype=np.float32))
        self._cache: tuple | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        c, h, w = x.shape[-3:]
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        g = self.num_groups
        grouped = x.reshape(x.shape[:-3] + (g, c // g, h, w))
        mean = grouped.mean(axis=(-3, -2, -1), keepdims=True)
        var = grouped.var(axis=(-3, -2, -1), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(x.shape)
        self._cache = (x_hat, inv_std) if self.training else None
        return self._per_channel(self.weight.data) * x_hat + self._per_channel(self.bias.data)

    @staticmethod
    def _per_channel(p: np.ndarray) -> np.ndarray:
        """``(*lead, C)`` broadcast against ``(*lead, N, C, H, W)``."""
        return p[..., None, :, None, None]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("GroupNorm2d.backward called before forward")
        x_hat, inv_std = self._cache
        self._cache = None
        c, h, w = x_hat.shape[-3:]
        g = self.num_groups
        m = (c // g) * h * w  # elements per group per sample
        self.weight.grad += (grad_out * x_hat).sum(axis=(-4, -2, -1))
        self.bias.grad += grad_out.sum(axis=(-4, -2, -1))
        grouped = x_hat.shape[:-3] + (g, c // g, h, w)
        gy = (grad_out * self._per_channel(self.weight.data)).reshape(grouped)
        xh = x_hat.reshape(grouped)
        sum_gy = gy.sum(axis=(-3, -2, -1), keepdims=True)
        sum_gyxh = (gy * xh).sum(axis=(-3, -2, -1), keepdims=True)
        dx = (inv_std / m) * (m * gy - sum_gy - xh * sum_gyxh)
        return dx.reshape(x_hat.shape)
