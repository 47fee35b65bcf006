"""Weight initialisation schemes.

All initialisers take an explicit ``rng`` so that the federated simulator is
fully reproducible: the server seeds one generator, builds the global model
once, and every client starts from identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform", "zeros", "lstm_uniform"]


def kaiming_uniform(
    shape: tuple[int, ...], fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """He/Kaiming uniform init, the torch default for conv/linear weights."""
    bound = math.sqrt(6.0 / fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero float32 init (biases)."""
    return np.zeros(shape, dtype=np.float32)


def lstm_uniform(shape: tuple[int, ...], hidden: int, rng: np.random.Generator) -> np.ndarray:
    """Torch-style LSTM init: U(-1/sqrt(H), 1/sqrt(H)) for every buffer."""
    bound = 1.0 / math.sqrt(hidden) if hidden > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)
