"""Stateless numerical kernels shared by layers and losses.

Everything here is vectorised NumPy operating on ``float32``; these are the
hot paths of the reproduction, so the implementations avoid Python-level
loops over batch or spatial dimensions (the im2col transform trades memory
for a single large GEMM, the standard CPU strategy for small convnets).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "relu",
    "relu_grad",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "conv_output_size",
    "im2col",
    "col2im",
    "maxpool2d",
    "maxpool2d_backward",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """d(relu)/dx — masks the upstream gradient where the input was ≤ 0."""
    return grad_out * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic sigmoid."""
    # Split by sign to stay overflow-free in float32.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def tanh(x: np.ndarray) -> np.ndarray:
    """Elementwise hyperbolic tangent."""
    return np.tanh(x)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilised softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stabilised log-softmax along ``axis``."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
def conv_output_size(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[int, int]:
    """Spatial output size ``(out_h, out_w)`` of a ``kh×kw`` convolution."""
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv geometry yields empty output: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, pad {pad}"
        )
    return out_h, out_w


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into columns ``(N, C*kh*kw, out_h*out_w)``.

    One strided window view ``(N, C, kh, kw, out_h, out_w)`` over the
    zero-padded input, copied once into a C-contiguous array: ``out`` if
    given, else a fresh one (never a view of ``x``, so layers may hold it
    across the caller's next step).
    """
    n, c, h, w = x.shape
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, pad)
    if pad > 0:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad:-pad, pad:-pad] = x
        x = padded
    sn, sc, sh, sw = x.strides
    windows = as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(sn, sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    if out is None:
        out = np.empty((n, c * kh * kw, out_h * out_w), dtype=x.dtype)
    out.reshape(n, c, kh, kw, out_h, out_w)[...] = windows
    return out


def col2im(
    cols: np.ndarray, x_shape: tuple[int, int, int, int], kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Fold columns back into an input-shaped gradient, summing overlaps.

    This is the adjoint of :func:`im2col` — exactly what the conv backward
    pass needs for the input gradient. Kernel offset ``(a, b)`` touches each
    padded cell at most once, so ``kh*kw`` strided-slice adds in ascending
    ``(a, b)`` order accumulate every cell in the same order as an
    element-wise scatter-add over the column rows.
    """
    n, c, h, w = x_shape
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    windows = cols.reshape(n, c, kh, kw, out_h, out_w)
    h_span = stride * (out_h - 1) + 1
    w_span = stride * (out_w - 1) + 1
    for a in range(kh):
        for b in range(kw):
            padded[:, :, a : a + h_span : stride, b : b + w_span : stride] += (
                windows[:, :, a, b]
            )
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


# ----------------------------------------------------------------------
# Non-overlapping max pooling over the last two axes (leading axes free)
# ----------------------------------------------------------------------
def maxpool2d(
    x: np.ndarray, k: int, *, need_grad: bool = True
) -> tuple[np.ndarray, tuple[list[np.ndarray], np.ndarray] | None]:
    """``k×k`` max pooling of ``(..., H, W)``, floor-truncating ragged edges.

    Works on the ``k²`` strided slices ``x[..., i::k, j::k]`` rather than
    reducing a doubly strided axis pair. Returns ``(out, ctx)``; ``ctx``
    (``None`` unless ``need_grad``) holds the per-slice masks of positions
    equal to the window max and the per-window tie counts. The counts are
    float32, so a float32 gradient is split by one float32 division — the
    same bits as dividing in float64 and rounding back (DESIGN.md §17).
    """
    h, w = x.shape[-2:]
    xt = x[..., : (h // k) * k, : (w // k) * k]
    slices = [xt[..., i::k, j::k] for i in range(k) for j in range(k)]
    out = slices[0].copy()
    for s in slices[1:]:
        np.maximum(out, s, out=out)
    if not need_grad:
        return out, None
    masks = [s == out for s in slices]
    ties = masks[0].astype(np.float32)
    for m in masks[1:]:
        ties += m
    return out, (masks, ties)


def maxpool2d_backward(
    grad_out: np.ndarray,
    ctx: tuple[list[np.ndarray], np.ndarray],
    x_shape: tuple[int, ...],
    k: int,
) -> np.ndarray:
    """Input gradient of :func:`maxpool2d`: the upstream gradient split
    evenly among tied maxima, so the pooled gradient sum is conserved."""
    masks, ties = ctx
    h, w = x_shape[-2:]
    g = grad_out / ties
    grad = np.zeros(x_shape, dtype=grad_out.dtype)
    sub = grad[..., : (h // k) * k, : (w // k) * k]
    for idx, mask in enumerate(masks):
        i, j = divmod(idx, k)
        sub[..., i::k, j::k] = mask * g
    return grad
