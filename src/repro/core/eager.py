"""Eager-transmission scheduling (paper §4.3, ``TryEagerTransmit``, Eq. 5)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .profiler import ProfiledCurves

__all__ = ["EagerSchedule", "NEVER"]

#: The trigger of a layer whose curve never reaches the threshold.
NEVER = np.iinfo(np.int64).max


class EagerSchedule:
    """Per-layer eager-transmission trigger iterations of one stack's
    members for one round.

    Built from each member's most recent anchor round's per-layer curves:
    ``triggers[i, l]`` is the first iteration τ with ``P^{(l)}_{T,τ} ≥ T_e``
    on member ``i``'s curve of layer ``names[l]`` (Eq. 5), :data:`NEVER` if
    there is none. Because curves are approximations of the current round,
    a layer may be due but *not yet* transmitted (queued uplink) or may
    later deviate — the retransmission check handles the latter.
    """

    def __init__(self, curves: Sequence[ProfiledCurves], threshold: float) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self.names = curves[0].names
        self.triggers = np.empty((len(curves), len(self.names)), dtype=np.int64)
        for row, c in zip(self.triggers, curves):
            # A layer's trigger is its curve's first column at or above the
            # threshold, if it has one.
            hits = c.curves[1:] >= threshold
            row[...] = np.where(hits.any(axis=1), hits.argmax(axis=1) + 1, NEVER)
        self._sent = np.zeros(self.triggers.shape, dtype=bool)

    def due(self, tau: int) -> np.ndarray:
        """``(n, L)``: the layers whose trigger fires at or before iteration
        ``tau`` and that were not handed to the uplink yet — now marked
        sent. A member's due layers, in column order, are its
        deterministic (layout) send order."""
        if tau < 1:
            raise ValueError("tau must be >= 1")
        out = (self.triggers <= tau) & ~self._sent
        self._sent |= out
        return out
