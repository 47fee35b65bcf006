"""Batched "cohort" tensor programs: M same-architecture clients as one model.

The serial executor trains each client's model replica one at a time — for
the paper's regime (small CNN/LSTM models × many selected clients per
round) that spends most of its time in per-call numpy overhead rather than
arithmetic. This module restacks the problem: every parameter, gradient and
optimizer slot of M clients is stored along a leading *client axis* ``C``,
and each layer's forward/backward folds that axis into its contractions so
one batched BLAS call (``np.matmul`` over the leading axis) advances all M
clients per layer per step.

Implementation notes
--------------------
* Contractions use broadcast-batched ``np.matmul`` rather than folded
  ``einsum`` subscripts (``"fk,nkl->nfl"`` → ``"cfk,cnkl->cnfl"``): on this
  substrate a planned batched einsum runs 2–5× slower than ``matmul``
  because numpy's einsum cannot dispatch batch contractions to BLAS.
* Conv, max-pool and LSTM layers run the serial layers' kernels
  (``F.im2col`` / ``F.col2im`` / ``F.maxpool2d`` / ``F.lstm_layer_*``)
  over the extra member axis; only the GEMM operand shapes differ.
* Ragged batches are handled by padding to the widest member batch and
  masking: padded rows carry exactly-zero loss gradients, so they
  contribute zeros to every parameter gradient.
* Per-client early stopping (FedCA Eq. 2–4) and per-client iteration
  budgets (FedAda) drop members out of the cohort via the *active mask*
  passed to :meth:`CohortSGD.step` — a masked member's parameters are
  frozen bitwise (the whole step, including weight decay, is multiplied by
  the mask), and the caller stops drawing its batches so the member's data
  RNG stream stays exactly where a serial run would leave it.
* The serial executor remains the bitwise oracle. A cohort member's floats
  may differ from its serial twin at reduction-order level (different GEMM
  blocking), which is why equivalence is pinned to a documented tolerance
  (see ``tests/test_cohort.py`` and ``DESIGN.md`` §12) rather than bitwise.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .conv import Conv2d
from .layers import Dropout, Flatten, Identity, Linear, ReLU, Sequential, Tanh
from .module import Module
from .norm import GroupNorm2d
from .pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from .rnn import LSTM, lstm_stack_backward, lstm_stack_forward

__all__ = [
    "CohortUnsupportedModel",
    "CohortParameter",
    "CohortModel",
    "CohortSGD",
    "build_cohort_model",
    "cohort_supported",
    "cohort_softmax_cross_entropy",
]


class CohortUnsupportedModel(ValueError):
    """Raised when a model cannot be expressed as a batched cohort program
    (non-chain topology such as WideResNet's residual blocks, or a layer
    type without a batched twin such as BatchNorm2d's running statistics)."""


# ----------------------------------------------------------------------
# Parameters
# ----------------------------------------------------------------------
class CohortParameter:
    """One model parameter stacked for M clients: ``data``/``grad`` have
    shape ``(C, *param_shape)``."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, name: str, cohort_size: int, shape: tuple[int, ...]) -> None:
        self.name = name
        self.data = np.zeros((cohort_size,) + shape, dtype=np.float32)
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


# ----------------------------------------------------------------------
# Layers — all operate on (C, N, ...) tensors
# ----------------------------------------------------------------------
class _CohortLayer:
    """Base: a stateless transform or a parametrised layer over ``(C, N, …)``."""

    #: When False (set on the chain's first layer), parametrised layers may
    #: skip computing the gradient w.r.t. their *input* — nothing consumes
    #: it. Parameter gradients are unaffected.
    compute_dx: bool = True

    def params(self) -> list[CohortParameter]:
        return []

    def bind_members(self, modules: list[Module]) -> None:
        """Attach the cohort members' serial layer instances (used only by
        layers that must consume per-member state, e.g. Dropout RNGs)."""

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, g: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class CLinear(_CohortLayer):
    """Batched affine map: ``y[c] = x[c] @ W[c].T + b[c]``."""

    def __init__(self, prefix: str, ref: Linear, cohort_size: int) -> None:
        self.weight = CohortParameter(
            f"{prefix}weight", cohort_size, ref.weight.data.shape
        )
        self.bias = (
            CohortParameter(f"{prefix}bias", cohort_size, ref.bias.data.shape)
            if ref.bias is not None
            else None
        )
        self._x: np.ndarray | None = None

    def params(self) -> list[CohortParameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        out = np.matmul(x, self.weight.data.transpose(0, 2, 1))
        if self.bias is not None:
            out += self.bias.data[:, None, :]
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        x, self._x = self._x, None
        self.weight.grad += np.matmul(g.transpose(0, 2, 1), x)
        if self.bias is not None:
            self.bias.grad += g.sum(axis=1)
        if not self.compute_dx:
            return g  # first layer: input gradient has no consumer
        return np.matmul(g, self.weight.data)


class CConv2d(_CohortLayer):
    """Batched conv: the member axis folds into the im2col GEMMs.

    Input ``(C, N, ch, H, W)`` is flattened to ``(C·N, ch, H, W)`` for the
    (elementwise) im2col copy, then the filter bank contraction runs as
    one broadcast-batched matmul ``(C, 1, F, K) @ (C, N, K, L)``; dX folds
    the projected columns back with the same ``col2im`` as the serial layer.
    """

    def __init__(self, prefix: str, ref: Conv2d, cohort_size: int) -> None:
        self.in_channels = ref.in_channels
        self.out_channels = ref.out_channels
        self.kernel_size = ref.kernel_size
        self.stride = ref.stride
        self.padding = ref.padding
        self.weight = CohortParameter(
            f"{prefix}weight", cohort_size, ref.weight.data.shape
        )
        self.bias = (
            CohortParameter(f"{prefix}bias", cohort_size, ref.bias.data.shape)
            if ref.bias is not None
            else None
        )
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None
        self._padded: np.ndarray | None = None
        self._cols_buf: np.ndarray | None = None

    def params(self) -> list[CohortParameter]:
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def _w_mat(self) -> np.ndarray:
        c = self.weight.data.shape[0]
        return self.weight.data.reshape(c, self.out_channels, -1)  # (C, F, K)

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        """``F.im2col`` into buffers kept across steps: the stacked columns
        run to megabytes, and allocated per step glibc trims them off the
        heap after every backward and faults them in again on the next
        forward (a quarter of the CNN cohort step)."""
        n, ch, h, w = x.shape
        k, p = self.kernel_size, self.padding
        shape = (n, ch, h + 2 * p, w + 2 * p)
        if self._padded is None or self._padded.shape != shape:
            self._padded = np.zeros(shape, dtype=x.dtype)
            self._cols_buf = None
        self._padded[:, :, p : p + h, p : p + w] = x
        self._cols_buf = F.im2col(self._padded, k, k, self.stride, 0, out=self._cols_buf)
        return self._cols_buf

    def forward(self, x: np.ndarray) -> np.ndarray:
        c, n, ch, h, w = x.shape
        if ch != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {ch}")
        k = self.kernel_size
        out_h, out_w = F.conv_output_size(h, w, k, k, self.stride, self.padding)
        cols = self._im2col(x.reshape(c * n, ch, h, w))
        cols = cols.reshape(c, n, cols.shape[1], cols.shape[2])  # (C, N, K, L)
        self._cols = cols
        self._x_shape = x.shape
        # (C, 1, F, K) @ (C, N, K, L) -> (C, N, F, L): one batched GEMM for
        # the whole cohort.
        out = np.matmul(self._w_mat()[:, None], cols)
        if self.bias is not None:
            out += self.bias.data[:, None, :, None]
        return out.reshape(c, n, self.out_channels, out_h, out_w)

    def backward(self, g: np.ndarray) -> np.ndarray:
        if self._cols is None:
            raise RuntimeError("CConv2d.backward called before forward")
        cols, self._cols = self._cols, None
        c, n = g.shape[0], g.shape[1]
        gf = g.reshape(c, n, self.out_channels, -1)  # (C, N, F, L)
        dw = np.matmul(gf, cols.transpose(0, 1, 3, 2)).sum(axis=1)  # (C, F, K)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += gf.sum(axis=(1, 3))
        if not self.compute_dx:
            return g  # first layer: input gradient has no consumer
        cc, nn_, ch, h, w = self._x_shape
        k = self.kernel_size
        dcols = np.matmul(self._w_mat().transpose(0, 2, 1)[:, None], gf)
        dx = F.col2im(
            dcols.reshape(cc * nn_, dcols.shape[2], dcols.shape[3]),
            (cc * nn_, ch, h, w),
            k, k, self.stride, self.padding,
        )
        return dx.reshape(self._x_shape)


class CReLU(_CohortLayer):
    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0.0
        return F.relu(x)

    def backward(self, g: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        return g * mask


class CTanh(_CohortLayer):
    def __init__(self) -> None:
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = np.tanh(x)
        return self._out

    def backward(self, g: np.ndarray) -> np.ndarray:
        out, self._out = self._out, None
        return g * (1.0 - out**2)


class CIdentity(_CohortLayer):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g


class CFlatten(_CohortLayer):
    """Collapse all dims after (client, batch)."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, g: np.ndarray) -> np.ndarray:
        return g.reshape(self._shape)


class CDropout(_CohortLayer):
    """Inverted dropout drawing each member's mask from that member's own
    serial ``Dropout`` layer RNG, in serial order — so a member's RNG
    stream advances exactly as it would under the serial executor. Masked
    (inactive) members draw nothing."""

    def __init__(self, ref: Dropout, cohort_size: int) -> None:
        self.p = ref.p
        self._members: list[Dropout] | None = None
        self._mask: np.ndarray | None = None
        self.active: np.ndarray | None = None  # set per step by the engine
        self.valid_counts: np.ndarray | None = None

    def bind_members(self, modules: list[Module]) -> None:
        self._members = modules  # type: ignore[assignment]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        c = x.shape[0]
        mask = np.zeros_like(x, dtype=np.float32)
        counts = self.valid_counts
        for i in range(c):
            if self.active is not None and not self.active[i]:
                continue
            b = int(counts[i]) if counts is not None else x.shape[1]
            rng = self._members[i]._rng
            shape = (b,) + x.shape[2:]
            mask[i, :b] = (rng.random(shape) < keep).astype(np.float32) / keep
        self._mask = mask
        return x * mask

    def backward(self, g: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            return g
        return g * mask


class CMaxPool2d(_CohortLayer):
    """Batched non-overlapping max pooling with tie-splitting backward —
    the serial layer's rank-agnostic kernel over ``(C, N, ch, H, W)``."""

    def __init__(self, ref: MaxPool2d) -> None:
        self.kernel_size = ref.kernel_size
        self._mask: tuple[list[np.ndarray], np.ndarray] | None = None
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        out, self._mask = F.maxpool2d(x, self.kernel_size)
        return out

    def backward(self, g: np.ndarray) -> np.ndarray:
        ctx, self._mask = self._mask, None
        return F.maxpool2d_backward(g, ctx, self._x_shape, self.kernel_size)


class CAvgPool2d(_CohortLayer):
    def __init__(self, ref: AvgPool2d) -> None:
        self.kernel_size = ref.kernel_size
        self._x_shape: tuple[int, ...] | None = None
        self._trunc: tuple[int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        c, n, ch, h, w = x.shape
        th, tw = (h // k) * k, (w // k) * k
        self._x_shape = x.shape
        self._trunc = (th, tw)
        windows = x[:, :, :, :th, :tw].reshape(c, n, ch, th // k, k, tw // k, k)
        return windows.mean(axis=(4, 6))

    def backward(self, g: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        c, n, ch, h, w = self._x_shape
        th, tw = self._trunc
        gk = g / (k * k)
        grad = np.zeros(self._x_shape, dtype=g.dtype)
        expanded = np.broadcast_to(
            gk[:, :, :, :, None, :, None], (c, n, ch, th // k, k, tw // k, k)
        )
        grad[:, :, :, :th, :tw] = expanded.reshape(c, n, ch, th, tw)
        return grad


class CGlobalAvgPool2d(_CohortLayer):
    def __init__(self) -> None:
        self._x_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x_shape = x.shape
        return x.mean(axis=(3, 4))

    def backward(self, g: np.ndarray) -> np.ndarray:
        c, n, ch, h, w = self._x_shape
        gk = g / (h * w)
        return np.broadcast_to(gk[:, :, :, None, None], self._x_shape).astype(
            g.dtype
        ).copy()


class CGroupNorm2d(_CohortLayer):
    """Batched group normalisation (stateless, so train == eval)."""

    def __init__(self, prefix: str, ref: GroupNorm2d, cohort_size: int) -> None:
        self.num_groups = ref.num_groups
        self.num_channels = ref.num_channels
        self.eps = ref.eps
        self.weight = CohortParameter(
            f"{prefix}weight", cohort_size, ref.weight.data.shape
        )
        self.bias = CohortParameter(f"{prefix}bias", cohort_size, ref.bias.data.shape)
        self._cache: tuple | None = None

    def params(self) -> list[CohortParameter]:
        return [self.weight, self.bias]

    def forward(self, x: np.ndarray) -> np.ndarray:
        c, n, ch, h, w = x.shape
        g = self.num_groups
        grouped = x.reshape(c, n, g, ch // g, h, w)
        mean = grouped.mean(axis=(3, 4, 5), keepdims=True)
        var = grouped.var(axis=(3, 4, 5), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(c, n, ch, h, w)
        self._cache = (x_hat, inv_std, (c, n, ch, h, w))
        return (
            self.weight.data[:, None, :, None, None] * x_hat
            + self.bias.data[:, None, :, None, None]
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x_hat, inv_std, (c, n, ch, h, w) = self._cache
        self._cache = None
        g = self.num_groups
        m = (ch // g) * h * w
        self.weight.grad += (grad_out * x_hat).sum(axis=(1, 3, 4))
        self.bias.grad += grad_out.sum(axis=(1, 3, 4))
        gy = (grad_out * self.weight.data[:, None, :, None, None]).reshape(
            c, n, g, ch // g, h, w
        )
        xh = x_hat.reshape(c, n, g, ch // g, h, w)
        sum_gy = gy.sum(axis=(3, 4, 5), keepdims=True)
        sum_gyxh = (gy * xh).sum(axis=(3, 4, 5), keepdims=True)
        dx = (inv_std / m) * (m * gy - sum_gy - xh * sum_gyxh)
        return dx.reshape(c, n, ch, h, w)


class CLSTM(_CohortLayer):
    """Batched stacked LSTM: the serial layer's kernels over
    ``(C, N, T, D)``, so each GEMM in or around the (inherently sequential)
    time loop advances all M clients."""

    def __init__(self, prefix: str, ref: LSTM, cohort_size: int) -> None:
        self._p: list[tuple[CohortParameter, ...]] = [
            tuple(
                CohortParameter(f"{prefix}{n}", cohort_size, ref._parameters[n].data.shape)
                for n in quad
            )
            for quad in ref.layer_param_names()
        ]
        self._cache: list[tuple] | None = None

    def params(self) -> list[CohortParameter]:
        return [p for quad in self._p for p in quad]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = lstm_stack_forward(x, self._p)
        return out

    def backward(self, grad_h_last: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("CLSTM.backward called before forward")
        ctxs, self._cache = self._cache, None
        return lstm_stack_backward(grad_h_last, ctxs, self._p, self.compute_dx)


# ----------------------------------------------------------------------
# Chain extraction and model construction
# ----------------------------------------------------------------------
def _chain_of(module: Module, prefix: str = "") -> list[tuple[str, Module]]:
    """Flatten a model into its ordered primitive forward chain with dotted
    name prefixes; raises :class:`CohortUnsupportedModel` for topologies the
    batched program cannot express."""
    if isinstance(module, Sequential):
        out: list[tuple[str, Module]] = []
        for name in module._order:
            out.extend(_chain_of(getattr(module, name), f"{prefix}{name}."))
        return out
    chain = getattr(module, "_chain", None)
    if chain is not None:
        # Chain members are direct submodules; recover their registered names.
        by_id = {id(m): name for name, m in module._modules.items()}
        out = []
        for m in chain:
            name = by_id.get(id(m))
            if name is None:
                raise CohortUnsupportedModel(
                    f"{type(module).__name__}._chain contains an unregistered module"
                )
            out.extend(_chain_of(m, f"{prefix}{name}."))
        return out
    if type(module) in _CONVERTERS:
        return [(prefix, module)]
    if list(module._parameters) or list(module._buffers):
        raise CohortUnsupportedModel(
            f"layer {type(module).__name__} has no batched cohort twin"
        )
    # Parameter-free container without an explicit chain: fall back to its
    # registration order, which matches forward order for simple heads
    # (e.g. LSTMClassifier's rnn -> fc).
    if module._modules:
        out = []
        for name, sub in module._modules.items():
            out.extend(_chain_of(sub, f"{prefix}{name}."))
        return out
    raise CohortUnsupportedModel(
        f"cannot extract a forward chain from {type(module).__name__}"
    )


_CONVERTERS = {
    Linear: lambda pre, ref, c: CLinear(pre, ref, c),
    Conv2d: lambda pre, ref, c: CConv2d(pre, ref, c),
    ReLU: lambda pre, ref, c: CReLU(),
    Tanh: lambda pre, ref, c: CTanh(),
    Identity: lambda pre, ref, c: CIdentity(),
    Flatten: lambda pre, ref, c: CFlatten(),
    Dropout: lambda pre, ref, c: CDropout(ref, c),
    MaxPool2d: lambda pre, ref, c: CMaxPool2d(ref),
    AvgPool2d: lambda pre, ref, c: CAvgPool2d(ref),
    GlobalAvgPool2d: lambda pre, ref, c: CGlobalAvgPool2d(),
    GroupNorm2d: lambda pre, ref, c: CGroupNorm2d(pre, ref, c),
    LSTM: lambda pre, ref, c: CLSTM(pre, ref, c),
}


def cohort_supported(model: Module) -> tuple[bool, str]:
    """Whether the model has a batched cohort program; ``(ok, reason)``."""
    try:
        _chain_of(model)
        return True, ""
    except CohortUnsupportedModel as exc:
        return False, str(exc)


class CohortModel:
    """M stacked client replicas of one architecture.

    ``params[name].data[i]`` is member ``i``'s value of parameter ``name``
    (a zero-copy view of the stacked tensor). Layer-name order matches the
    template model's ``named_parameters()`` order exactly, so per-member
    view dicts are drop-in replacements for serial ``state_dict``s in the
    FedCA sampling/retransmission machinery.
    """

    def __init__(self, template: Module, cohort_size: int) -> None:
        if cohort_size < 1:
            raise ValueError("cohort_size must be >= 1")
        self.cohort_size = cohort_size
        self.layers: list[_CohortLayer] = []
        self._layer_prefixes: list[str] = []
        self.params: dict[str, CohortParameter] = {}
        for prefix, module in _chain_of(template):
            layer = _CONVERTERS[type(module)](prefix, module, cohort_size)
            self.layers.append(layer)
            self._layer_prefixes.append(prefix)
            for p in layer.params():
                self.params[p.name] = p
        # Validate against the template's parameter census: a converter that
        # silently dropped a parameter would corrupt aggregation.
        template_names = [name for name, _ in template.named_parameters()]
        if sorted(template_names) != sorted(self.params):
            raise CohortUnsupportedModel(
                "cohort parameter set does not match template model"
            )
        # Preserve the template's depth-first parameter order.
        self.params = {name: self.params[name] for name in template_names}
        self._dropouts = [l for l in self.layers if isinstance(l, CDropout)]
        # The first layer's input gradient has no consumer; let it skip the
        # (often expensive) dX computation.
        if self.layers:
            self.layers[0].compute_dx = False

    # ------------------------------------------------------------------
    def bind_member_models(self, models: list[Module]) -> None:
        """Attach the members' serial replicas (per-member Dropout RNGs)."""
        if len(models) != self.cohort_size:
            raise ValueError("need exactly one member model per cohort slot")
        for layer, prefix in zip(self.layers, self._layer_prefixes):
            if isinstance(layer, CDropout):
                layer.bind_members([self._resolve(m, prefix) for m in models])

    @staticmethod
    def _resolve(model: Module, dotted_prefix: str) -> Module:
        node = model
        for part in dotted_prefix.rstrip(".").split("."):
            if part:
                node = getattr(node, part)
        return node

    # ------------------------------------------------------------------
    def load_global(self, state: dict[str, np.ndarray]) -> None:
        """Broadcast the server state into every member slot."""
        own = set(self.params)
        if own != set(state):
            missing = sorted(own - set(state))
            extra = sorted(set(state) - own)
            raise KeyError(
                f"state_dict mismatch: missing={missing} extra={extra}"
            )
        for name, p in self.params.items():
            p.data[...] = np.asarray(state[name], dtype=np.float32)

    def member_params(self, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s parameter views (zero-copy)."""
        return {name: p.data[i] for name, p in self.params.items()}

    def stacked_update(
        self, global_state: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Accumulated updates for the whole cohort, one vectorised subtract
        per layer: ``update[name][i]`` is member ``i``'s ``w_local − w_global``.
        Per-member result dicts are zero-copy views into these stacks, so
        aggregation consumes the batched tensor without an unstack pass."""
        return {
            name: p.data - np.asarray(global_state[name], dtype=np.float32)[None]
            for name, p in self.params.items()
        }

    def write_back(self, models: list[Module]) -> None:
        """Copy each member's trained slot into its serial replica, leaving
        the replicas exactly as a serial round would (cheap insurance for
        anything that inspects ``client.model`` between rounds)."""
        for i, model in enumerate(models):
            for name, p in model.named_parameters():
                p.data[...] = self.params[name].data[i]

    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, g: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def set_step_masks(
        self, active: np.ndarray, valid_counts: np.ndarray
    ) -> None:
        """Publish this step's member-activity mask and per-member valid
        row counts to the layers that need them (Dropout draws)."""
        for d in self._dropouts:
            d.active = active
            d.valid_counts = valid_counts


# ----------------------------------------------------------------------
# Loss and optimizer
# ----------------------------------------------------------------------
def cohort_softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked per-member softmax cross-entropy over padded ``(C, B, K)``
    logits.

    ``counts[i]`` is member ``i``'s number of valid rows (0 for masked-out
    members); rows at or beyond a member's count carry exactly-zero
    gradient, and each member's loss/gradient is normalised by its *own*
    count — matching what a serial per-client loss computes.

    Returns ``(loss, grad)`` with ``loss`` shape ``(C,)`` (``0.0`` for
    members with no valid rows) and ``grad`` shaped like ``logits``.
    """
    c, b, _ = logits.shape
    if labels.shape != (c, b):
        raise ValueError(
            f"labels shape {labels.shape} incompatible with logits {logits.shape}"
        )
    counts = np.asarray(counts)
    valid = (np.arange(b)[None, :] < counts[:, None]).astype(np.float32)  # (C, B)
    safe = np.maximum(counts, 1).astype(np.float64)

    log_probs = F.log_softmax(logits, axis=2)
    ci = np.arange(c)[:, None]
    bi = np.arange(b)[None, :]
    picked = log_probs[ci, bi, labels]  # (C, B)
    loss = -(picked.astype(np.float64) * valid).sum(axis=1) / safe

    grad = F.softmax(logits, axis=2)
    grad[ci, bi, labels] -= 1.0
    grad *= (valid / safe[:, None].astype(np.float32))[:, :, None]
    return loss, grad.astype(np.float32)


class CohortSGD:
    """Batched SGD/momentum step over stacked parameters with an active
    mask: a masked member's parameters do not move at all — the *entire*
    effective step (including the weight-decay component, which is nonzero
    even at zero loss gradient) is multiplied by the mask, exactly
    reproducing a serial client that simply stopped calling ``step()``.

    ``mu > 0`` adds FedProx's proximal pull ``mu * (w − anchor)`` toward
    ``anchor``, the round-start global state every member was broadcast —
    the stacked form of :class:`~repro.nn.optim.ProxSGD`."""

    def __init__(
        self,
        model: CohortModel,
        lr: float,
        *,
        weight_decay: float = 0.0,
        momentum: float = 0.0,
        mu: float = 0.0,
        anchor: dict[str, np.ndarray] | None = None,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if mu < 0:
            raise ValueError("mu must be non-negative")
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.mu = mu
        self._anchor: dict[str, np.ndarray] | None = None
        if mu:
            if anchor is None:
                raise ValueError("a proximal step (mu > 0) needs the anchor state")
            self._anchor = {
                name: np.asarray(anchor[name], dtype=np.float32)[None]
                for name in model.params
            }
        self._velocity: dict[str, np.ndarray] | None = (
            {name: np.zeros_like(p.data) for name, p in model.params.items()}
            if momentum > 0.0
            else None
        )

    def step(self, active: np.ndarray | None = None) -> None:
        """One masked update for every stacked parameter.

        ``active`` is a ``(C,)`` boolean mask; ``None`` means all members
        step. Velocity slots of inactive members are updated-but-unused:
        within one round a member never re-activates (stops are terminal
        and budgets are prefixes), and optimizers never outlive a round.
        """
        for name, p in self.model.params.items():
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._anchor is not None:
                grad = grad + self.mu * (p.data - self._anchor[name])
            if self._velocity is not None:
                v = self._velocity[name]
                v *= self.momentum
                v += grad
                grad = v
            if active is None or active.all():
                p.data -= self.lr * grad  # == lr * grad * 1.0, one pass fewer
            else:
                mask = active.astype(np.float32).reshape(
                    (-1,) + (1,) * (p.data.ndim - 1)
                )
                p.data -= self.lr * grad * mask

    def zero_grad(self) -> None:
        self.model.zero_grad()


def build_cohort_model(template: Module, cohort_size: int) -> CohortModel:
    """Build the batched cohort program for ``cohort_size`` replicas of
    ``template``; raises :class:`CohortUnsupportedModel` when the
    architecture has no batched expression (e.g. WideResNet)."""
    return CohortModel(template, cohort_size)
