"""Trainable parameter container for the manual-backprop NN substrate.

The FedCA reproduction does not use autograd: every layer computes its own
backward pass and *accumulates* gradients into :class:`Parameter.grad`.
The container is minimal (two ndarrays and a name); once its module is
walked both arrays are views into the model's flat float32 vectors
(:meth:`repro.nn.module.Module.arena`), so SGD updates one vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A named, trainable tensor with an accumulated gradient buffer.

    Parameters
    ----------
    data:
        Initial value. Stored as a C-contiguous ``float32`` array; the
        federated substrate ships these buffers around, so a fixed dtype
        keeps byte accounting (link-transmission sizes) exact.
    name:
        Dotted path assigned by :meth:`repro.nn.module.Module.named_parameters`
        (e.g. ``"conv1.weight"``). Set lazily; layer code never needs it but
        the FedCA profiler addresses parameters by these names.
    """

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = "") -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Transmission size in bytes (float32 ⇒ 4 bytes per scalar)."""
        return int(self.data.nbytes)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient in place (no reallocation)."""
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
