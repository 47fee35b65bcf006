"""2-D convolution via im2col + batched GEMM."""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Convolution over ``(*lead, N, C, H, W)`` inputs: one strided-view
    im2col copy plus one batched GEMM per pass (:mod:`repro.nn.functional`),
    the filter bank broadcast over ``N``."""

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
        self._x_shape: tuple[int, ...] | None = None
        self._padded: np.ndarray | None = None
        self._cols_buf: np.ndarray | None = None

    def _w_mat(self) -> np.ndarray:
        """The filter bank as ``(*lead, 1, F, C*k*k)``."""
        return self.weight.data.reshape(self.lead + (1, self.out_channels, -1))

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        k, p = self.kernel_size, self.padding
        if not self.lead:
            return F.im2col(x, k, k, self.stride, p)
        # A stack's columns run to megabytes; allocated per step, glibc
        # trims them off the heap after every backward and faults them in
        # again on the next forward (a quarter of the CNN cohort step). One
        # stack serves a whole run, so it keeps its padded and column
        # buffers across steps; a replica per client does not.
        h, w = x.shape[-2:]
        shape = x.shape[:-2] + (h + 2 * p, w + 2 * p)
        if self._padded is None or self._padded.shape != shape:
            self._padded = np.zeros(shape, dtype=x.dtype)
            self._cols_buf = None
        self._padded[..., p : p + h, p : p + w] = x
        self._cols_buf = F.im2col(self._padded, k, k, self.stride, 0, out=self._cols_buf)
        return self._cols_buf

    def forward(self, x: np.ndarray) -> np.ndarray:
        c, h, w = x.shape[-3:]
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        k = self.kernel_size
        out_h, out_w = F.conv_output_size(h, w, k, k, self.stride, self.padding)
        cols = self._im2col(x)  # (*lead, N, C*k*k, L)
        # The im2col buffer is the largest per-layer allocation (~k*k times
        # the input); an eval-mode forward has no backward to feed.
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        out = np.matmul(self._w_mat(), cols)  # (*lead, N, F, L), C-contiguous
        if self.bias is not None:
            out += self.bias.data[..., None, :, None]
        return out.reshape(x.shape[:-3] + (self.out_channels, out_h, out_w))

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        if self._cols is None:
            raise RuntimeError("Conv2d.backward called before forward")
        # Free the im2col buffer eagerly rather than holding it until the
        # next forward.
        cols, self._cols = self._cols, None
        grad_flat = grad_out.reshape(grad_out.shape[:-2] + (-1,))  # (*lead, N, F, L)
        # dW: per-sample (F, L) @ (L, K), then summed over the batch.
        dw = np.matmul(grad_flat, cols.swapaxes(-1, -2)).sum(axis=-3)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=(-3, -1))
        if not self.compute_dx:
            return None
        # dX: project back through the filter bank then fold columns.
        dcols = np.matmul(self._w_mat().swapaxes(-1, -2), grad_flat)  # (*lead, N, C*k*k, L)
        k = self.kernel_size
        return F.col2im(dcols, self._x_shape, k, k, self.stride, self.padding)
