"""Update codecs: the interface between compression and the FL runtime.

A codec turns a per-layer update dict into the (possibly lossy) dict the
server will receive plus the wire size in bytes. Codecs are *stateful per
client* (top-k keeps residual memory), so strategies create one codec per
client through a factory.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..rngstate import rng_state_bytes, set_rng_state
from .quantization import dequantize, quantize, quantized_nbytes
from .sparsification import (
    ResidualStore,
    SparseTensor,
    densify,
    sparse_nbytes,
    top_k_sparsify,
)

__all__ = ["UpdateCodec", "IdentityCodec", "QuantizationCodec", "TopKCodec"]


class UpdateCodec(ABC):
    """Encode a client's round update for transmission."""

    @abstractmethod
    def encode(
        self, update: dict[str, np.ndarray]
    ) -> tuple[dict[str, np.ndarray], int]:
        """Return ``(update_as_received, wire_bytes)``."""

    @abstractmethod
    def packed_nbytes(self, update: dict[str, np.ndarray]) -> int:
        """Wire bytes :meth:`encode` would charge for ``update``, computed
        from shapes alone — no encoding, no codec-state mutation."""

    # -- checkpoint/resume hooks (see repro.persist) -------------------
    def snapshot_state(self) -> dict:
        """Cross-round codec state (residuals, RNG position); default none."""
        return {}

    def restore_state(self, snapshot: dict) -> None:
        """Inverse of :meth:`snapshot_state` (default: no-op)."""


class IdentityCodec(UpdateCodec):
    """Uncompressed float32 transmission (4 bytes/scalar)."""

    def encode(self, update):
        """Pass the update through unchanged; count 4 bytes per scalar."""
        nbytes = self.packed_nbytes(update)
        return {k: np.asarray(v, dtype=np.float32) for k, v in update.items()}, nbytes

    def packed_nbytes(self, update):
        return sum(np.asarray(v).size * 4 for v in update.values())


class QuantizationCodec(UpdateCodec):
    """QSGD-style per-layer stochastic quantization."""

    def __init__(self, bits: int = 8, *, seed: int = 0) -> None:
        if not 2 <= bits <= 16:
            raise ValueError("bits must be in [2, 16]")
        self.bits = bits
        self._rng = np.random.default_rng(seed)

    def encode(self, update):
        """Quantize each layer independently; return the dequantised view."""
        received: dict[str, np.ndarray] = {}
        nbytes = 0
        for name, value in update.items():
            q = quantize(value, self.bits, rng=self._rng)
            received[name] = dequantize(q)
            nbytes += q.nbytes
        return received, nbytes

    def packed_nbytes(self, update):
        return sum(
            quantized_nbytes(np.asarray(v).size, self.bits)
            for v in update.values()
        )

    def snapshot_state(self) -> dict:
        return {"rng": rng_state_bytes(self._rng)}

    def restore_state(self, snapshot: dict) -> None:
        set_rng_state(self._rng, snapshot["rng"])


class TopKCodec(UpdateCodec):
    """Top-k sparsification with per-layer residual error feedback.

    ``fraction`` is the kept share of each layer's scalars (at least one
    scalar per layer survives, so tiny bias vectors are never silenced).
    """

    def __init__(self, fraction: float = 0.1) -> None:
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        self.fraction = fraction
        self._residuals = ResidualStore()

    def encode(self, update):
        """Residual-corrected top-k per layer; dropped mass feeds back."""
        sparse, nbytes = self.encode_sparse(update)
        return {name: densify(s) for name, s in sparse.items()}, nbytes

    def encode_sparse(
        self, update: dict[str, np.ndarray]
    ) -> tuple[dict[str, SparseTensor], int]:
        """Sparse (indices, values) encode path: the actual wire payload.

        Same residual-feedback semantics as :meth:`encode` (which is now
        a densifying wrapper around this), but hands back the
        :class:`SparseTensor` per layer so a transport can ship k index/
        value pairs instead of a dense tensor.
        """
        out: dict[str, SparseTensor] = {}
        nbytes = 0
        for name, value in update.items():
            corrected = self._residuals.add(name, value)
            k = self._k_for(corrected.size)
            sparse, residual = top_k_sparsify(corrected, k)
            self._residuals.set(name, residual)
            out[name] = sparse
            nbytes += sparse_nbytes(k)
        return out, nbytes

    def packed_nbytes(self, update):
        return sum(
            sparse_nbytes(self._k_for(np.asarray(v).size))
            for v in update.values()
        )

    def _k_for(self, size: int) -> int:
        return max(1, int(round(self.fraction * size)))

    def snapshot_state(self) -> dict:
        return {"residuals": self._residuals.snapshot_state()}

    def restore_state(self, snapshot: dict) -> None:
        self._residuals.restore_state(snapshot["residuals"])
