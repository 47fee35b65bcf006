"""Eager-transmission scheduling (paper §4.3, ``TryEagerTransmit``, Eq. 5)."""

from __future__ import annotations

from .profiler import ProfiledCurves

__all__ = ["EagerSchedule"]


class EagerSchedule:
    """Per-layer eager-transmission trigger iterations for one round.

    Built from the most recent anchor round's per-layer curves: layer ``l``
    is due at the first iteration τ with ``P^{(l)}_{T,τ} ≥ T_e`` (Eq. 5).
    Because curves are approximations of the current round, a layer may be
    due but *not yet* transmitted (queued uplink) or may later deviate — the
    retransmission check handles the latter.
    """

    def __init__(self, curves: ProfiledCurves, threshold: float) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        # Eq. 5 for every layer at once: a layer's trigger is its curve's
        # first column at or above the threshold, if it has one.
        hits = curves.curves[1:] >= threshold
        first = hits.argmax(axis=1) + 1
        self.triggers: dict[str, int] = {
            name: int(tau)
            for name, tau, fired in zip(curves.names, first, hits.any(axis=1))
            if fired
        }
        self._sent: set[str] = set()

    def due(self, tau: int) -> list[str]:
        """Layers whose trigger fires at or before iteration ``tau`` and
        that have not been handed to the uplink yet. Returned in
        deterministic (insertion) order; the caller marks them sent."""
        if tau < 1:
            raise ValueError("tau must be >= 1")
        out = [
            name
            for name, trig in self.triggers.items()
            if trig <= tau and name not in self._sent
        ]
        self._sent.update(out)
        return out
