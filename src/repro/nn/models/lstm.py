"""LSTM classifier (the paper's "LSTM" workload on the KWS dataset).

The recurrent stack is registered as ``rnn`` so parameter names come out as
``rnn.weight_hh_l0`` / ``rnn.bias_ih_l1`` — exactly the names in the paper's
Fig. 3b. Two recurrent layers by default (the paper plots an ``l1`` bias).
"""

from __future__ import annotations

import numpy as np

from ..layers import Linear
from ..module import Module
from ..rnn import LSTM

__all__ = ["LSTMClassifier"]


class LSTMClassifier(Module):
    """Stacked LSTM → linear head over the final hidden state."""

    def __init__(
        self,
        *,
        input_size: int = 8,
        hidden_size: int = 16,
        num_layers: int = 2,
        num_classes: int = 10,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.rnn = LSTM(input_size, hidden_size, num_layers, rng=rng)
        self.rnn.compute_dx = False  # nothing consumes the sequence gradient
        self.fc = Linear(hidden_size, num_classes, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != len(self.lead) + 3:
            raise ValueError(
                f"LSTMClassifier expects (*lead, N, T, D) input with lead={self.lead}, "
                f"got shape {x.shape}"
            )
        h = self.rnn(x)
        return self.fc(h)

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
        grad_h = self.fc.backward(grad_out)
        return self.rnn.backward(grad_h)
