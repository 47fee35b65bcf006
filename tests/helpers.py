"""Shared test utilities: numerical gradient checking for the NN substrate."""

from __future__ import annotations

import struct

import numpy as np

from repro.nn import Module


def held_array_bytes(layer: Module) -> int:
    """Bytes of ndarrays ``layer`` holds — directly or through dicts, tuples
    and lists — that are not its own parameters, gradients or buffers (nor
    the arena vectors they are views of): what a forward left cached."""

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            yield from arrays(list(value.values()))
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    own = {id(a) for p in layer._parameters.values() for a in (p.data, p.grad)}
    own |= {id(b) for b in layer._buffers.values()}
    return sum(
        a.nbytes
        for key, value in vars(layer).items()
        if key != "_walk_cache"
        for a in arrays(value)
        if id(a) not in own
    )


def same_tree(a, b) -> bool:
    """Leaf-for-leaf equality of snapshot trees, with types: ``1``, ``1.0``
    and ``True`` differ, floats compare by bits (NaN equals itself, ``0.0``
    is not ``-0.0``) and arrays by dtype, shape and bytes."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_tree(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_tree, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def per_client_holdings(owner, at_rest: tuple[type, ...] = ()) -> list[str]:
    """Names of ``owner``'s attributes that hold per-client state: a non-empty
    dict keyed by client id, or anything holding a codec, a FedCA profile or
    its parts. A strategy and its wire layer must have none — what they
    remember about a client lives on the client (``SimClient.keep``). The
    pager is what does hold clients; with ``at_rest=(bytes,)`` a dict keyed
    by client id whose every value is exactly one such object — nothing
    further reachable from it — is not counted."""
    from repro.algorithms.fedca import ClientProfile
    from repro.compression.codecs import UpdateCodec
    from repro.core import LayerSampler, ProfiledCurves

    per_client = (UpdateCodec, ClientProfile, ProfiledCurves, LayerSampler)

    def holds(value) -> bool:
        if isinstance(value, dict):
            keyed = any(
                isinstance(key, (int, np.integer)) and not isinstance(key, bool)
                for key in value
            )
            if keyed and all(type(item) in at_rest for item in value.values()):
                return False
            return keyed or holds(list(value.values()))
        if isinstance(value, (list, tuple, set, frozenset)):
            return any(holds(item) for item in value)
        return isinstance(value, per_client)

    return [name for name, value in vars(owner).items() if holds(value)]


def numeric_grad_wrt_input(
    module: Module, x: np.ndarray, loss_weights: np.ndarray, eps: float = 1e-3
) -> np.ndarray:
    """Central-difference gradient of ``sum(module(x) * loss_weights)`` w.r.t. x.

    float32 forward passes limit precision, so callers should compare with a
    loose tolerance (we use rtol≈2e-2 against analytic gradients).
    """
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float((module(x) * loss_weights).sum())
        flat[i] = orig - eps
        lo = float((module(x) * loss_weights).sum())
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def numeric_grad_wrt_params(
    module: Module, x: np.ndarray, loss_weights: np.ndarray, eps: float = 1e-3
) -> dict[str, np.ndarray]:
    """Central-difference gradients of the weighted-output loss w.r.t. every
    parameter of the module."""
    grads: dict[str, np.ndarray] = {}
    for name, param in module.named_parameters():
        g = np.zeros_like(param.data, dtype=np.float64)
        flat = param.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float((module(x) * loss_weights).sum())
            flat[i] = orig - eps
            lo = float((module(x) * loss_weights).sum())
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads[name] = g
    return grads


def analytic_grads(
    module: Module, x: np.ndarray, loss_weights: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Analytic input/parameter gradients via the module's backward pass."""
    module.zero_grad()
    module(x)
    grad_in = module.backward(loss_weights.astype(np.float32))
    param_grads = {name: p.grad.copy() for name, p in module.named_parameters()}
    return grad_in, param_grads


def assert_grads_close(
    module: Module,
    x: np.ndarray,
    *,
    rtol: float = 2e-2,
    atol: float = 2e-3,
    seed: int = 0,
) -> None:
    """Full gradient check (inputs + parameters) against central differences."""
    rng = np.random.default_rng(seed)
    out = module(x)
    loss_weights = rng.normal(size=out.shape).astype(np.float32)

    grad_in, param_grads = analytic_grads(module, x, loss_weights)
    num_in = numeric_grad_wrt_input(module, x, loss_weights)
    np.testing.assert_allclose(grad_in, num_in, rtol=rtol, atol=atol)

    num_params = numeric_grad_wrt_params(module, x, loss_weights)
    for name, num in num_params.items():
        np.testing.assert_allclose(
            param_grads[name], num, rtol=rtol, atol=atol,
            err_msg=f"parameter gradient mismatch for {name}",
        )


# ----------------------------------------------------------------------
# Reference conv/pool kernels: the gather / scatter-add / window-view
# formulations `repro.nn.functional` replaced. Tests require the shipped
# kernels to be bytes-equal to these.
# ----------------------------------------------------------------------
def im2col_indices(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather indices ``(k, i, j)``: fancy-indexing a padded input of shape
    ``(N, C, H+2p, W+2p)`` with ``[:, k, i, j]`` yields the column tensor of
    shape ``(N, C*kh*kw, out_h*out_w)``."""
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (w + 2 * pad - kw) // stride + 1
    i0 = np.tile(np.repeat(np.arange(kh), kw), c)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * c)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)  # (C*kh*kw, out_h*out_w)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(c), kh * kw).reshape(-1, 1)
    return k, i, j


def im2col_reference(
    x: np.ndarray, kh: int, kw: int, stride: int, pad: int
) -> np.ndarray:
    """``np.pad`` + fancy-index gather."""
    k, i, j = im2col_indices(x.shape[1], x.shape[2], x.shape[3], kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    return x[:, k, i, j]


def col2im_reference(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """``np.add.at`` scatter-add over the gather indices."""
    n, c, h, w = x_shape
    k, i, j = im2col_indices(c, h, w, kh, kw, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    np.add.at(padded, (slice(None), k, i, j), cols)
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def maxpool_reference(
    x: np.ndarray, k: int, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(out, grad_in)`` of non-overlapping max pooling through a 6-D
    window view: ``windows.max(axis=(3, 5))``, equality mask, tie counts by
    ``mask.sum``, gradient split ``g / ties`` broadcast through the mask."""
    n, c, h, w = x.shape
    th, tw = (h // k) * k, (w // k) * k
    windows = x[:, :, :th, :tw].reshape(n, c, th // k, k, tw // k, k)
    out = windows.max(axis=(3, 5))
    mask = windows == out[:, :, :, None, :, None]
    g = grad_out / mask.sum(axis=(3, 5))
    grad = np.zeros(x.shape, dtype=grad_out.dtype)
    grad[:, :, :th, :tw] = (mask * g[:, :, :, None, :, None]).reshape(n, c, th, tw)
    return out, grad


# ----------------------------------------------------------------------
# Reference recurrent kernels: the masked sigmoid and the per-timestep
# LSTM forward / backward `repro.nn` ran before `functional.lstm_layer_*`.
# The shipped sigmoid must be bytes-equal to the masked one; the shipped
# LSTM matches the per-timestep one to float32 rounding (DESIGN.md §18).
# ----------------------------------------------------------------------
def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    """Sign-split logistic: boolean mask, gather, two branches, scatter."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_reference(
    x: np.ndarray, weights: list[tuple[np.ndarray, ...]], grad_h_last: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, ...]]]:
    """Stacked LSTM over ``(N, T, D)``, one timestep at a time.

    ``weights[l]`` is layer ``l``'s ``(w_ih, w_hh, b_ih, b_hh)``. Returns
    ``(h_last, dx, grads)`` — the final hidden state, the input gradient of
    ``sum(h_last * grad_h_last)`` and per-layer
    ``(dw_ih, dw_hh, db_ih, db_hh)``, all in the weights' dtype (float64
    weights give a float64 oracle).
    """
    n, t_steps, _ = x.shape
    dtype = weights[0][0].dtype
    h_dim = weights[0][1].shape[1]
    cache = []
    layer_input = x.astype(dtype)
    for w_ih, w_hh, b_ih, b_hh in weights:
        h = np.zeros((n, h_dim), dtype=dtype)
        c = np.zeros((n, h_dim), dtype=dtype)
        steps = []
        outputs = np.empty((n, t_steps, h_dim), dtype=dtype)
        for t in range(t_steps):
            x_t = layer_input[:, t, :]
            z = x_t @ w_ih.T + h @ w_hh.T + b_ih + b_hh
            i_g = sigmoid_reference(z[:, :h_dim])
            f_g = sigmoid_reference(z[:, h_dim : 2 * h_dim])
            g_g = np.tanh(z[:, 2 * h_dim : 3 * h_dim])
            o_g = sigmoid_reference(z[:, 3 * h_dim :])
            c_new = f_g * c + i_g * g_g
            tanh_c = np.tanh(c_new)
            h_new = o_g * tanh_c
            steps.append(
                {
                    "x": x_t, "h_prev": h, "c_prev": c,
                    "i": i_g, "f": f_g, "g": g_g, "o": o_g, "tanh_c": tanh_c,
                }
            )
            h, c = h_new, c_new
            outputs[:, t, :] = h_new
        cache.append(steps)
        layer_input = outputs
    h_last = layer_input[:, -1, :]

    dh_seq = np.zeros((n, t_steps, h_dim), dtype=dtype)
    dh_seq[:, -1, :] = grad_h_last
    grads = []
    for (w_ih, w_hh, b_ih, b_hh), steps in zip(reversed(weights), reversed(cache)):
        dw_ih, dw_hh, db = np.zeros_like(w_ih), np.zeros_like(w_hh), np.zeros_like(b_ih)
        dx_seq = np.zeros((n, t_steps, w_ih.shape[1]), dtype=dtype)
        dh_next = np.zeros((n, h_dim), dtype=dtype)
        dc_next = np.zeros((n, h_dim), dtype=dtype)
        for t in range(t_steps - 1, -1, -1):
            s = steps[t]
            dh = dh_seq[:, t, :] + dh_next
            do = dh * s["tanh_c"]
            dc = dh * s["o"] * (1.0 - s["tanh_c"] ** 2) + dc_next
            di = dc * s["g"]
            df = dc * s["c_prev"]
            dg = dc * s["i"]
            dz = np.concatenate(
                [
                    di * s["i"] * (1.0 - s["i"]),
                    df * s["f"] * (1.0 - s["f"]),
                    dg * (1.0 - s["g"] ** 2),
                    do * s["o"] * (1.0 - s["o"]),
                ],
                axis=1,
            )
            dw_ih += dz.T @ s["x"]
            dw_hh += dz.T @ s["h_prev"]
            db += dz.sum(axis=0)
            dx_seq[:, t, :] = dz @ w_ih
            dh_next = dz @ w_hh
            dc_next = dc * s["f"]
        grads.append((dw_ih, dw_hh, db, db.copy()))
        dh_seq = dx_seq
    return h_last, dh_seq, grads[::-1]


# ----------------------------------------------------------------------
# Reference Eq. 1: the per-call form `repro.core.progress` must stay
# bytes-equal to.
# ----------------------------------------------------------------------
def progress_reference(g_i: np.ndarray, g_k: np.ndarray) -> float:
    """Eq. 1 as written before ``progress_curve`` hoisted ``‖G_K‖``:
    ``np.linalg.norm`` on both vectors per call, scalar ``np.clip``."""
    g_i = np.asarray(g_i, dtype=np.float64).ravel()
    g_k = np.asarray(g_k, dtype=np.float64).ravel()
    ni = float(np.linalg.norm(g_i))
    nk = float(np.linalg.norm(g_k))
    if ni < 1e-12 and nk < 1e-12:
        return 1.0
    if ni < 1e-12 or nk < 1e-12:
        return 0.0
    cos = float(np.clip(np.dot(g_i, g_k) / (ni * nk), -1.0, 1.0))
    return cos * (min(ni, nk) / max(ni, nk))


def global_vectors(model: Module) -> tuple[np.ndarray, np.ndarray]:
    """A copy of ``model``'s ``(P,)`` parameter and ``(B,)`` buffer vectors:
    the round-start global model a strategy driver or an engine takes."""
    arena = model.arena()
    return arena.values.copy(), arena.buffers.copy()


def shm_segment_names(executor) -> list[str]:
    """The ``/dev/shm`` names a parallel executor's pool owns: its broadcast
    arena and one result arena per worker (for leak checks)."""
    transport = executor._transport_impl
    arenas = [*transport._results, transport._broadcast]
    return [a.name for a in arenas if a is not None]
