"""2-D convolution via im2col + batched GEMM."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Convolution over ``(N, C, H, W)`` inputs: one strided-view im2col
    copy plus one batched GEMM per pass (:mod:`repro.nn.functional`)."""

    #: Set False on a model's first layer: nothing consumes its input
    #: gradient, so ``backward`` skips dX and returns ``None``. Parameter
    #: gradients are unaffected.
    compute_dx: bool = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        *,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = Parameter(
            init.kaiming_uniform(
                (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
            )
        )
        self.bias = Parameter(init.zeros((out_channels,))) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        k = self.kernel_size
        out_h, out_w = F.conv_output_size(h, w, k, k, self.stride, self.padding)
        cols = F.im2col(x, k, k, self.stride, self.padding)  # (N, C*k*k, L)
        # The im2col buffer is the largest per-layer allocation (~k*k times
        # the input); an eval-mode forward has no backward to feed.
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        w_mat = self.weight.data.reshape(self.out_channels, -1)  # (F, C*k*k)
        out = np.matmul(w_mat, cols)  # (N, F, L), C-contiguous
        if self.bias is not None:
            out += self.bias.data[None, :, None]
        return out.reshape(n, self.out_channels, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._cols is None:
            raise RuntimeError("Conv2d.backward called before forward")
        # Free the im2col buffer eagerly rather than holding it until the
        # next forward.
        cols, self._cols = self._cols, None
        n = grad_out.shape[0]
        grad_flat = grad_out.reshape(n, self.out_channels, -1)  # (N, F, L)
        # dW: per-sample (F, L) @ (L, K), then summed over the batch.
        dw = np.matmul(grad_flat, cols.transpose(0, 2, 1)).sum(axis=0)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=(0, 2))
        if not self.compute_dx:
            return None
        # dX: project back through the filter bank then fold columns.
        w_mat = self.weight.data.reshape(self.out_channels, -1)
        dcols = np.matmul(w_mat.T, grad_flat)  # (N, C*k*k, L)
        k = self.kernel_size
        return F.col2im(dcols, self._x_shape, k, k, self.stride, self.padding)
