"""Normalisation layers for convolutional feature maps.

:class:`BatchNorm2d` matches the paper's WRN; :class:`GroupNorm2d` is the
stateless alternative much of the FL literature substitutes for BN under
non-IID data (no running statistics to synchronise or skew). The repo ships
both so the BN-vs-GN choice can be ablated. Both are written over
``(*lead, N, C, H, W)``, so one class serves a client's replica and a
cohort stack (:mod:`repro.nn.cohort`), with the bytes of the replica.
"""

from __future__ import annotations

import numpy as np

from .module import Module
from .parameter import Parameter

__all__ = ["BatchNorm2d", "GroupNorm2d"]


#: The batch and spatial axes of ``(*lead, N, C, H, W)``.
_AXES = (-4, -2, -1)


def _per_channel(p: np.ndarray) -> np.ndarray:
    """``(*lead, C)`` broadcast against ``(*lead, N, C, H, W)``."""
    return p[..., None, :, None, None]


def _mean_square(d: np.ndarray) -> np.ndarray:
    """Per-channel ``mean(d²)`` of centred values: ``np.var``'s steps after
    its own centring, so its bytes without a second mean pass."""
    return np.add.reduce(d * d, axis=_AXES) / (d.shape[-4] * d.shape[-2] * d.shape[-1])


class BatchNorm2d(Module):
    """Per-channel batch norm over ``(*lead, N, C, H, W)``.

    ``weight`` (γ) and ``bias`` (β) are trainable and participate in
    federated aggregation; the running statistics are *local buffers* — the
    paper's setup synchronises parameters only, and WideResNet tolerates
    client-local running stats at the small batch sizes used here.

    Over a stack every member keeps the bytes of its own serial layer. The
    trailing-axes reduce visits a member's elements in the order the serial
    ``(0, 2, 3)`` reduce does, so full-width members share one pass. A
    member with fewer valid rows than the padded width (``rows[i] < N``)
    takes its statistics and backward sums from its own ``x[i, :rows[i]]``
    slice — a slice, not a masked reduction: pairwise summation over a
    padded row count rounds differently — and gets exactly-zero ``dx`` on
    its padded rows; a member with no rows leaves its running statistics
    untouched.
    """

    rowwise = True

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

    def _ragged(self, width: int) -> list[tuple[int, int]]:
        """``(member, valid rows)`` of every member narrower than ``width``."""
        rows = self.rows
        if rows is None or rows.min() >= width:
            return []
        return [(int(i), int(rows[i])) for i in np.flatnonzero(rows < width)]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-3] != self.num_features:
            raise ValueError(f"expected {self.num_features} channels, got {x.shape[-3]}")
        if self.training:
            ragged = self._ragged(x.shape[-4])
            mean = x.mean(axis=_AXES)
            for i, r in ragged:
                if r:
                    mean[i] = x[i, :r].mean(axis=_AXES)
            d = x - _per_channel(mean)
            var = _mean_square(d)
            for i, r in ragged:
                if r:
                    var[i] = _mean_square(d[i, :r])
            # Members that sat the step out keep their running statistics;
            # the assignments write through the registered buffer objects.
            live = self.rows > 0 if ragged else ...
            m = self.momentum
            self.running_mean[live] = self.running_mean[live] * (1 - m) + m * mean[live]
            self.running_var[live] = self.running_var[live] * (1 - m) + m * var[live]
        else:
            d = x - _per_channel(self.running_mean)
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = np.multiply(d, _per_channel(inv_std), out=d)
        self._cache = (x_hat, inv_std, ragged) if self.training else None
        return _per_channel(self.weight.data) * x_hat + _per_channel(self.bias.data)

    @staticmethod
    def _grads(grad_out, x_hat, inv_std, weight):
        """``(dx, dγ, dβ)`` of one batch — or of a stack of equally wide
        ones — through the batch statistics."""
        m = x_hat.shape[-4] * x_hat.shape[-2] * x_hat.shape[-1]  # elements per channel
        g = grad_out * _per_channel(weight)
        sum_g = g.sum(axis=_AXES, keepdims=True)
        sum_gx = (g * x_hat).sum(axis=_AXES, keepdims=True)
        dx = (_per_channel(inv_std) / m) * (m * g - sum_g - x_hat * sum_gx)
        return dx, (grad_out * x_hat).sum(axis=_AXES), grad_out.sum(axis=_AXES)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            # Eval-mode backward: statistics are constants.
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            return grad_out * _per_channel(self.weight.data * inv_std)
        x_hat, inv_std, ragged = self._cache
        self._cache = None
        dx, dw, db = self._grads(grad_out, x_hat, inv_std, self.weight.data)
        for i, r in ragged:
            dx[i] = dw[i] = db[i] = 0.0
            if r:
                dx[i, :r], dw[i], db[i] = self._grads(
                    grad_out[i, :r], x_hat[i, :r], inv_std[i], self.weight.data[i]
                )
        self.weight.grad += dw
        self.bias.grad += db
        return dx


class GroupNorm2d(Module):
    """Group normalisation over ``(*lead, N, C, H, W)``.

    Statistics are computed per sample per channel-group, so behaviour is
    identical in train and eval mode and nothing needs federated
    synchronisation — the property that makes GN the standard BN substitute
    in non-IID federated settings.
    """

    rowwise = True

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
        return _per_channel(self.weight.data) * x_hat + _per_channel(self.bias.data)

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
        gy = (grad_out * _per_channel(self.weight.data)).reshape(grouped)
        xh = x_hat.reshape(grouped)
        sum_gy = gy.sum(axis=(-3, -2, -1), keepdims=True)
        sum_gyxh = (gy * xh).sum(axis=(-3, -2, -1), keepdims=True)
        dx = (inv_std / m) * (m * gy - sum_gy - xh * sum_gyxh)
        return dx.reshape(x_hat.shape)
