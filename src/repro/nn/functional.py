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
    "lstm_layer_forward",
    "lstm_layer_backward",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """d(relu)/dx — masks the upstream gradient where the input was ≤ 0."""
    return grad_out * (x > 0.0)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic sigmoid, written to ``out`` if given.

    With ``e = exp(-|x|)`` (never overflows) the two branches of the stable
    form share a denominator: ``1 / (1 + e)`` for ``x ≥ 0``, ``e / (1 + e)``
    for ``x < 0``. ``sign(x)`` is ``1 ≥ e`` on the first branch (``±0`` at
    zero, where ``e = 1``) and ``-1 < e`` on the second, so
    ``maximum(e, sign(x))`` selects the numerator without a boolean mask —
    each element sees the same float ops as a masked gather/scatter would
    apply (DESIGN.md §18).
    """
    e = np.exp(-np.abs(x))
    num = np.maximum(e, np.sign(x))
    e += 1.0
    return np.divide(num, e, out=out)


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
    """Unfold ``(*lead, C, H, W)`` into columns ``(*lead, C*kh*kw, out_h*out_w)``.

    One strided window view ``(*lead, C, kh, kw, out_h, out_w)`` over the
    zero-padded input, copied once into a C-contiguous array: ``out`` if
    given, else a fresh one (never a view of ``x``, so layers may hold it
    across the caller's next step).
    """
    lead = x.shape[:-3]
    c, h, w = x.shape[-3:]
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, pad)
    if pad > 0:
        padded = np.zeros(lead + (c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[..., pad:-pad, pad:-pad] = x
        x = padded
    sc, sh, sw = x.strides[-3:]
    windows = as_strided(
        x,
        shape=lead + (c, kh, kw, out_h, out_w),
        strides=x.strides[:-3] + (sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    if out is None:
        out = np.empty(lead + (c * kh * kw, out_h * out_w), dtype=x.dtype)
    out.reshape(windows.shape)[...] = windows
    return out


def col2im(
    cols: np.ndarray, x_shape: tuple[int, ...], kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """Fold columns back into an input-shaped gradient, summing overlaps.

    This is the adjoint of :func:`im2col` — exactly what the conv backward
    pass needs for the input gradient. Kernel offset ``(a, b)`` touches each
    padded cell at most once, so ``kh*kw`` strided-slice adds in ascending
    ``(a, b)`` order into a ``+0.0`` buffer accumulate every cell in the
    same order as an element-wise scatter-add over the column rows. The
    buffer is batch-innermost (``B`` = all leading axes) and reads ``cols``
    through a transposed view, so each add walks ``B``-long runs; the result
    is copied out C-ordered, since downstream reductions round by memory
    order (DESIGN.md §17).
    """
    lead = x_shape[:-3]
    c, h, w = x_shape[-3:]
    out_h, out_w = conv_output_size(h, w, kh, kw, stride, pad)
    windows = cols.reshape((-1, c, kh, kw, out_h, out_w)).transpose(1, 2, 3, 4, 5, 0)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, windows.shape[-1]), dtype=cols.dtype)
    h_span = stride * (out_h - 1) + 1
    w_span = stride * (out_w - 1) + 1
    for a in range(kh):
        for b in range(kw):
            padded[:, a : a + h_span : stride, b : b + w_span : stride] += windows[:, a, b]
    interior = padded[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)
    return np.ascontiguousarray(interior).reshape(lead + (c, h, w))


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


# ----------------------------------------------------------------------
# One LSTM layer over ``(*lead, T, n, ·)`` rows (leading axes free:
# ``lead = ()`` for the scalar layer, ``(C,)`` for a cohort)
# ----------------------------------------------------------------------
def _gate_blocks(w: np.ndarray, h_dim: int) -> np.ndarray:
    """The ``i, f, g, o`` blocks of a ``(*lead, 4H, k)`` weight as a
    ``(4, *lead, H, k)`` view. The kernels spell every axis shuffle as a
    fixed ``.transpose``: ``np.moveaxis`` costs ~20× as much per call."""
    nl = w.ndim - 2
    blocks = w.reshape(w.shape[:-2] + (4, h_dim, w.shape[-1]))
    return blocks.transpose(nl, *range(nl), nl + 1, nl + 2)


def lstm_layer_forward(
    x: np.ndarray, w_ih: np.ndarray, w_hh: np.ndarray, b_ih: np.ndarray, b_hh: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Run one LSTM layer from zero state over time-before-batch rows.

    ``x`` is ``(*lead, T, n, D)``; weights are torch-shaped with the same
    leading axes (``w_ih (*lead, 4H, D)``, ``w_hh (*lead, 4H, H)``, biases
    ``(*lead, 4H)``). Returns ``(h, ctx)``: ``h`` is ``(*lead, T+1, n, H)``
    with the zero initial state at index 0, so ``h[..., 1:, :, :]`` is the
    next layer's ``x``; ``ctx`` feeds :func:`lstm_layer_backward`.

    The input projection and both biases are hoisted into one GEMM of
    ``T·n`` rows per member. The time loop then works gate-major — ``z`` and
    the gates are ``(T, 4, *lead, n, H)``, the recurrent weight is split
    once into contiguous ``(4, *lead, H, H)`` blocks — so every per-step
    operand is a whole contiguous slab rather than a ``H``-of-``4H`` slice of
    the last axis (DESIGN.md §18).
    """
    lead = x.shape[:-3]
    nl = len(lead)
    t_steps, n, d = x.shape[-3:]
    h_dim = w_hh.shape[-1]
    zx = np.matmul(x.reshape(lead + (t_steps * n, d)), w_ih.swapaxes(-1, -2))
    zx = zx.reshape(lead + (t_steps, n, 4, h_dim))
    zx = zx.transpose(nl, nl + 2, *range(nl), nl + 1, nl + 3)  # (T, 4, *lead, n, H)
    bias = _gate_blocks((b_ih + b_hh)[..., None], h_dim).swapaxes(-1, -2)
    w_rec = np.ascontiguousarray(_gate_blocks(w_hh, h_dim).swapaxes(-1, -2))

    slab = lead + (n, h_dim)
    # Explicit C-order outputs: a ufunc given only the transposed ``zx``
    # would allocate its result in ``zx``'s memory order, not gate-major.
    z = np.add(zx, bias, out=np.empty((t_steps, 4) + slab, dtype=zx.dtype))
    gates = np.empty_like(z)
    h = np.zeros(lead + (t_steps + 1, n, h_dim), dtype=z.dtype)
    c = np.zeros((t_steps + 1,) + slab, dtype=z.dtype)
    tanh_c = np.empty((t_steps,) + slab, dtype=z.dtype)
    rec = np.empty((4,) + slab, dtype=z.dtype)
    ig = np.empty(slab, dtype=z.dtype)
    for t in range(t_steps):
        z_t, g_t = z[t], gates[t]
        np.matmul(h[..., t, :, :], w_rec, out=rec)
        z_t += rec
        sigmoid(z_t, out=g_t)
        np.tanh(z_t[2], out=g_t[2])
        np.multiply(g_t[1], c[t], out=c[t + 1])
        np.multiply(g_t[0], g_t[2], out=ig)
        c[t + 1] += ig
        np.tanh(c[t + 1], out=tanh_c[t])
        np.multiply(g_t[3], tanh_c[t], out=h[..., t + 1, :, :])
    return h, (x, h, gates, c, tanh_c)


def lstm_layer_backward(
    dh_seq: np.ndarray,
    ctx: tuple[np.ndarray, ...],
    w_ih: np.ndarray,
    w_hh: np.ndarray,
    need_dx: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray, np.ndarray]:
    """Full BPTT through one :func:`lstm_layer_forward` call.

    ``dh_seq`` is ``(*lead, T, n, H)``, the gradient into every timestep's
    hidden output. Returns ``(dx, dw_ih, dw_hh, db)`` — ``dx`` shaped like
    the forward ``x`` (``None`` unless ``need_dx``), ``db`` the gradient of
    either bias.

    Every factor that does not depend on the recurrence (the activation
    derivatives and their products with the cached gates and cell states)
    is formed once over all ``T``; the loop carries only ``dc``/``dh``
    through ``dz[t]`` and the recurrent GEMM. The weight, bias and input
    gradients are then three GEMMs and one reduction over all ``T·n`` rows.
    """
    x, h, gates, c, tanh_c = ctx
    lead = x.shape[:-3]
    t_steps, n, h_dim = tanh_c.shape[0], tanh_c.shape[-2], tanh_c.shape[-1]
    i_g, f_g, g_g, o_g = (gates[:, k] for k in range(4))
    # coef[t, k] = d z_k / d (its upstream): dc for i, f, g and dh for o.
    coef = gates * (1.0 - gates)
    np.subtract(1.0, g_g * g_g, out=coef[:, 2])
    coef[:, 0] *= g_g
    coef[:, 1] *= c[:-1]
    coef[:, 2] *= i_g
    coef[:, 3] *= tanh_c
    dc_dh = o_g * (1.0 - tanh_c * tanh_c)
    w_rec = _gate_blocks(w_hh, h_dim)

    slab = lead + (n, h_dim)
    dz = np.empty_like(gates)
    dh = np.empty(slab, dtype=dz.dtype)
    dc = np.empty(slab, dtype=dz.dtype)
    dh_next = np.zeros(slab, dtype=dz.dtype)
    dc_next = np.zeros(slab, dtype=dz.dtype)
    back = np.empty((4,) + slab, dtype=dz.dtype)
    for t in range(t_steps - 1, -1, -1):
        np.add(dh_seq[..., t, :, :], dh_next, out=dh)
        np.multiply(dh, dc_dh[t], out=dc)
        dc += dc_next
        np.multiply(coef[t, :3], dc, out=dz[t, :3])
        np.multiply(coef[t, 3], dh, out=dz[t, 3])
        np.matmul(dz[t], w_rec, out=back)
        np.add.reduce(back, axis=0, out=dh_next)
        np.multiply(dc, f_g[t], out=dc_next)

    rows, nl = lead + (t_steps * n, -1), len(lead)
    # (T, 4, *lead, n, H) -> (*lead, T, n, 4, H)
    dz_rows = dz.transpose(*range(2, 2 + nl), 0, 2 + nl, 1, 3 + nl)
    dz_rows = np.ascontiguousarray(dz_rows).reshape(rows)
    dz_cols = dz_rows.swapaxes(-1, -2)
    dw_ih = np.matmul(dz_cols, x.reshape(rows))
    dw_hh = np.matmul(dz_cols, h[..., :-1, :, :].reshape(rows))
    db = dz_rows.sum(axis=-2)
    dx = np.matmul(dz_rows, w_ih).reshape(x.shape) if need_dx else None
    return dx, dw_ih, dw_hh, db
