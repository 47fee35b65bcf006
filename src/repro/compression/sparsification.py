"""Top-k sparsification with residual memory (paper refs. [5, 8]).

The second classical communication baseline of §2.2 ("sparsification means
to reduce the total number of elements to be transmitted"). Each round the
client sends only the ``k`` largest-magnitude scalars of its update; the
untransmitted remainder is kept as a local *residual* and folded into the
next round's update — the standard error-feedback trick that keeps top-k
convergent (and, notably, the same feedback idea FedCA reuses for eager
retransmission).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SparseTensor", "top_k_sparsify", "densify", "sparse_nbytes", "ResidualStore"]


@dataclass(frozen=True)
class SparseTensor:
    """Encoded tensor: flat indices + values of the surviving scalars."""

    indices: np.ndarray  # int32 flat indices, sorted
    values: np.ndarray  # float32
    shape: tuple[int, ...]


def sparse_nbytes(k: int) -> int:
    """Wire size: 4-byte index + 4-byte value per kept scalar."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return 8 * k


def top_k_sparsify(tensor: np.ndarray, k: int) -> tuple[SparseTensor, np.ndarray]:
    """Keep the ``k`` largest-|value| scalars; return ``(sparse, residual)``.

    ``residual`` has the tensor's shape and holds exactly the dropped mass:
    ``densify(sparse) + residual == tensor``.
    """
    arr = np.asarray(tensor, dtype=np.float32)
    flat = arr.ravel()
    if k < 0:
        raise ValueError("k must be non-negative")
    k = min(k, flat.size)
    if k == 0:
        empty = SparseTensor(
            indices=np.empty(0, dtype=np.int32),
            values=np.empty(0, dtype=np.float32),
            shape=arr.shape,
        )
        return empty, arr.copy()
    # argpartition is O(n); exact ordering of the kept set is irrelevant.
    keep = np.argpartition(np.abs(flat), flat.size - k)[flat.size - k :]
    keep = np.sort(keep).astype(np.int32)
    sparse = SparseTensor(indices=keep, values=flat[keep].copy(), shape=arr.shape)
    residual = arr.copy()
    residual.ravel()[keep] = 0.0
    return sparse, residual


def densify(sparse: SparseTensor) -> np.ndarray:
    """Reconstruct the dense float32 tensor (zeros where dropped)."""
    out = np.zeros(int(np.prod(sparse.shape)), dtype=np.float32)
    out[sparse.indices] = sparse.values
    return out.reshape(sparse.shape)


class ResidualStore:
    """Per-layer residual memory for error-feedback sparsification.

    Usage per round: ``corrected = store.add(name, update)`` →
    ``sparse, residual = top_k_sparsify(corrected, k)`` →
    ``store.set(name, residual)``.
    """

    def __init__(self) -> None:
        self._residuals: dict[str, np.ndarray] = {}

    def add(self, name: str, update: np.ndarray) -> np.ndarray:
        residual = self._residuals.get(name)
        if residual is None:
            return np.asarray(update, dtype=np.float32).copy()
        if residual.shape != update.shape:
            raise ValueError(
                f"residual shape {residual.shape} does not match update "
                f"{update.shape} for layer {name!r}"
            )
        return (update + residual).astype(np.float32)

    def set(self, name: str, residual: np.ndarray) -> None:
        self._residuals[name] = np.asarray(residual, dtype=np.float32)

    # -- checkpoint/resume hooks (see repro.persist) -------------------
    def snapshot_state(self) -> dict:
        """Copy of the per-layer residual memory."""
        return {name: arr.copy() for name, arr in self._residuals.items()}

    def restore_state(self, snapshot: dict) -> None:
        self._residuals = {
            name: np.asarray(arr, dtype=np.float32)
            for name, arr in snapshot.items()
        }
