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

    def __init__(
        self, curves: ProfiledCurves, threshold: float, *, sink=None
    ) -> None:
        if not 0 < threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        #: Optional telemetry hook ``sink(layer, trigger_iteration, tau)``,
        #: called once per layer the moment :meth:`due` hands it out.
        self.sink = sink
        self.triggers: dict[str, int] = {}
        for name in curves.layer_curves:
            tau = curves.layer_trigger_iteration(name, threshold)
            if tau is not None:
                self.triggers[name] = tau
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
        for name in out:
            self._sent.add(name)
            if self.sink is not None:
                self.sink(name, self.triggers[name], tau)
        return out
