"""Spatial pooling layers over ``(..., H, W)``: every leading axis (member,
batch, channel) is free."""

from __future__ import annotations

import numpy as np

from . import functional as F
from .module import Module

__all__ = ["MaxPool2d", "AvgPool2d", "GlobalAvgPool2d"]


class MaxPool2d(Module):
    """Non-overlapping max pooling (``stride == kernel_size``).

    Inputs whose spatial dims are not multiples of the kernel are truncated,
    matching torch's floor-mode behaviour. Ties propagate gradient to every
    maximal element, split evenly (:func:`repro.nn.functional.maxpool2d`).
    """

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._mask: tuple[list[np.ndarray], np.ndarray] | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        out, self._mask = F.maxpool2d(x, self.kernel_size, need_grad=self.training)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("MaxPool2d.backward called before forward")
        ctx, self._mask = self._mask, None
        return F.maxpool2d_backward(grad_out, ctx, self._x_shape, self.kernel_size)


class AvgPool2d(Module):
    """Non-overlapping average pooling."""

    def __init__(self, kernel_size: int) -> None:
        super().__init__()
        if kernel_size < 1:
            raise ValueError("kernel_size must be >= 1")
        self.kernel_size = kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._trunc: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        h, w = x.shape[-2:]
        th, tw = (h // k) * k, (w // k) * k
        self._x_shape = x.shape
        self._trunc = (th, tw)
        windows = x[..., :th, :tw].reshape(x.shape[:-2] + (th // k, k, tw // k, k))
        return windows.mean(axis=(-3, -1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        lead = self._x_shape[:-2]
        th, tw = self._trunc
        g = grad_out / (k * k)
        grad = np.zeros(self._x_shape, dtype=grad_out.dtype)
        expanded = np.broadcast_to(
            g[..., :, None, :, None], lead + (th // k, k, tw // k, k)
        )
        grad[..., :th, :tw] = expanded.reshape(lead + (th, tw))
        return grad


class GlobalAvgPool2d(Module):
    """Average over all spatial positions, yielding ``(*lead, N, C)``."""

    def __init__(self) -> None:
        super().__init__()
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(-2, -1))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        h, w = self._x_shape[-2:]
        g = grad_out / (h * w)
        # One materialisation: ``astype`` copies, C-ordered and writable.
        return np.broadcast_to(g[..., None, None], self._x_shape).astype(
            grad_out.dtype, order="C"
        )
