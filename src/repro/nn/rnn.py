"""Multi-layer LSTM with truncated-free full BPTT.

Parameter naming follows torch (``weight_ih_l0``, ``weight_hh_l0``,
``bias_ih_l0``, ``bias_hh_l0``, …) because the paper's per-layer figures
refer to names like ``rnn.weight_hh_l0`` and ``rnn.bias_ih_l1``.
Gate layout inside the stacked ``4H`` dimension is torch's ``i, f, g, o``.

All gate arithmetic lives in ``functional.lstm_layer_forward`` /
``lstm_layer_backward``; :func:`lstm_stack_forward` and
:func:`lstm_stack_backward` chain those kernels through the layers for any
number of leading axes, so one :class:`LSTM` serves a client replica over
``(N, T, D)`` and a cohort stack over ``(C, N, T, D)``.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["LSTM", "lstm_stack_forward", "lstm_stack_backward"]


def lstm_stack_forward(x: np.ndarray, layers: list[tuple]) -> tuple[np.ndarray, list[tuple]]:
    """Stacked LSTM over ``(*lead, n, T, D)``; ``layers`` holds each layer's
    ``(w_ih, w_hh, b_ih, b_hh)`` parameters (anything with ``.data``).
    Returns the top layer's final hidden state ``(*lead, n, H)`` and the
    per-layer kernel contexts."""
    input_size = layers[0][0].data.shape[-1]
    if x.shape[-1] != input_size:
        raise ValueError(f"expected input size {input_size}, got {x.shape[-1]}")
    rows = np.ascontiguousarray(x.swapaxes(-3, -2))
    ctxs = []
    for quad in layers:
        h, ctx = F.lstm_layer_forward(rows, *(p.data for p in quad))
        ctxs.append(ctx)
        rows = h[..., 1:, :, :]
    return h[..., -1, :, :], ctxs


def lstm_stack_backward(
    grad_h_last: np.ndarray, ctxs: list[tuple], layers: list[tuple], compute_dx: bool
) -> np.ndarray | None:
    """Accumulate every layer's parameter gradients into ``.grad`` and
    return the input gradient ``(*lead, n, T, D)`` — ``None`` when
    ``compute_dx`` is False, which skips layer 0's ``dz @ W_ih``."""
    dh_seq = np.zeros_like(ctxs[-1][1][..., 1:, :, :])
    dh_seq[..., -1, :, :] = grad_h_last
    for layer in range(len(layers) - 1, -1, -1):
        w_ih, w_hh, b_ih, b_hh = layers[layer]
        dh_seq, dw_ih, dw_hh, db = F.lstm_layer_backward(
            dh_seq, ctxs[layer], w_ih.data, w_hh.data, need_dx=layer > 0 or compute_dx
        )
        w_ih.grad += dw_ih
        w_hh.grad += dw_hh
        b_ih.grad += db
        b_hh.grad += db
    return None if dh_seq is None else dh_seq.swapaxes(-3, -2)


class LSTM(Module):
    """Stacked LSTM over ``(*lead, N, T, D)`` input; returns the top layer's
    final hidden state ``(*lead, N, H)``.

    Classification models feed that hidden state to a linear head, which is
    exactly the KWS workload shape used in the paper.
    """

    #: Set False when nothing consumes the input gradient (the model's first
    #: layer): ``backward`` skips layer 0's dX and returns ``None``.
    compute_dx: bool = True

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 1,
        *,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        h = hidden_size
        for layer, names in enumerate(self.layer_param_names()):
            in_dim = input_size if layer == 0 else h
            shapes = ((4 * h, in_dim), (4 * h, h), (4 * h,), (4 * h,))
            for name, shape in zip(names, shapes):
                self.register_parameter(name, Parameter(init.lstm_uniform(shape, h, rng)))
        self._cache: list[tuple] | None = None

    def layer_param_names(self) -> list[tuple[str, ...]]:
        """Each layer's ``(w_ih, w_hh, b_ih, b_hh)`` parameter names."""
        return [
            tuple(f"{kind}_l{layer}" for kind in ("weight_ih", "weight_hh", "bias_ih", "bias_hh"))
            for layer in range(self.num_layers)
        ]

    def _layers(self) -> list[tuple[Parameter, ...]]:
        return [
            tuple(self._parameters[n] for n in quad) for quad in self.layer_param_names()
        ]

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, ctxs = lstm_stack_forward(x, self._layers())
        # The stacked gate cache holds O(T * layers) activations — by far
        # the largest retained state; keep it only when backward will run.
        self._cache = ctxs if self.training else None
        return out

    def backward(self, grad_h_last: np.ndarray) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("LSTM.backward called before a training-mode forward")
        ctxs, self._cache = self._cache, None
        return lstm_stack_backward(grad_h_last, ctxs, self._layers(), self.compute_dx)
