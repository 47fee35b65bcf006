"""Dynamic per-client compute-speed traces.

The paper emulates *dynamicity* (§5.1) by toggling every client between a
fast and a slow mode: fast/slow period durations are drawn from Γ(2, 40) and
Γ(2, 6) seconds respectively, and the slow-mode slowdown ratio is drawn from
U(1, 5). We reproduce that generator exactly, but as a *simulated-time*
trace instead of injected sleeps: a client's instantaneous processing rate
is ``base_rate / slowdown(t)``, and compute durations are obtained by
integrating the rate across mode segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..rngstate import rng_state_bytes, set_rng_state

__all__ = ["SpeedTrace", "GAMMA_FAST", "GAMMA_SLOW", "SLOWDOWN_RANGE"]

# Paper §5.1: Γ(shape=2, scale=40) fast periods, Γ(2, 6) slow periods,
# slowdown ~ U(1, 5).
GAMMA_FAST: tuple[float, float] = (2.0, 40.0)
GAMMA_SLOW: tuple[float, float] = (2.0, 6.0)
SLOWDOWN_RANGE: tuple[float, float] = (1.0, 5.0)


@dataclass(slots=True)
class _Segment:
    start: float
    end: float
    slowdown: float


class SpeedTrace:
    """Lazy fast/slow mode trace for one client.

    Parameters
    ----------
    base_iteration_time:
        Seconds per local iteration at full (fast-mode) speed. Encodes the
        client's *static* heterogeneity (see
        :mod:`repro.sysmodel.heterogeneity`).
    seed:
        Trace randomness (anything ``np.random.default_rng`` takes); two
        clients with different seeds toggle independently.
    dynamic:
        When ``False`` the client never slows down (used for the
        homogeneous-resource ablations).
    """

    SNAPSHOT_KEYS = ("rng", "segments", "horizon", "next_fast")  #: :meth:`snapshot_values`' names

    def __init__(
        self,
        base_iteration_time: float,
        *,
        seed: int | np.random.SeedSequence = 0,
        dynamic: bool = True,
        gamma_fast: tuple[float, float] = GAMMA_FAST,
        gamma_slow: tuple[float, float] = GAMMA_SLOW,
        slowdown_range: tuple[float, float] = SLOWDOWN_RANGE,
    ) -> None:
        if base_iteration_time <= 0:
            raise ValueError("base_iteration_time must be positive")
        self.base_iteration_time = float(base_iteration_time)
        self.dynamic = dynamic
        self._rng = np.random.default_rng(seed)
        self._gamma_fast = gamma_fast
        self._gamma_slow = gamma_slow
        self._slowdown_range = slowdown_range
        self._segments: list[_Segment] = []
        self._horizon = 0.0
        self._next_fast = True  # first segment is a fast period

    # ------------------------------------------------------------------
    def _extend_to(self, t: float) -> None:
        """Generate mode segments lazily until the trace covers time ``t``."""
        while self._horizon <= t:
            if self._next_fast:
                shape, scale = self._gamma_fast
                slowdown = 1.0
            else:
                shape, scale = self._gamma_slow
                lo, hi = self._slowdown_range
                slowdown = float(self._rng.uniform(lo, hi))
            duration = float(self._rng.gamma(shape, scale))
            duration = max(duration, 1e-6)  # guard degenerate zero draws
            self._segments.append(
                _Segment(self._horizon, self._horizon + duration, slowdown)
            )
            self._horizon += duration
            self._next_fast = not self._next_fast

    def _segment_at(self, t: float) -> _Segment:
        self._extend_to(t)
        if t < self._segments[0].start:
            raise ValueError(
                f"time {t} precedes what forget_before left of this trace"
            )
        # Binary search over segment starts; traces are append-only so the
        # list is sorted by construction.
        lo, hi = 0, len(self._segments) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._segments[mid].end <= t:
                lo = mid + 1
            else:
                hi = mid
        return self._segments[lo]

    def forget_before(self, t: float) -> None:
        """Promise that no query will come below ``t``: the trace is
        generated up to ``t`` and every segment that ends by then is
        dropped, so it and its snapshot stop growing with simulated time.
        A client's own latest query is *not* such a bound — a straggler is
        asked past the end of a round and its next round starts earlier —
        the round start is; a query that breaks the promise raises
        ``ValueError`` rather than answer from the wrong segment."""
        if t < 0:
            raise ValueError("time must be non-negative")
        if not self.dynamic:
            return
        self._extend_to(t)
        segments = self._segments
        drop = 0
        while segments[drop].end <= t:
            drop += 1
        if drop:
            del segments[:drop]

    # ------------------------------------------------------------------
    def slowdown_at(self, t: float) -> float:
        """Instantaneous slowdown factor (1.0 = full speed)."""
        if t < 0:
            raise ValueError("time must be non-negative")
        if not self.dynamic:
            return 1.0
        return self._segment_at(t).slowdown

    def pace_at(self, t: float) -> tuple[float, float]:
        """``(end, slowdown)`` of the segment :meth:`work_finish_time` reads
        first from ``t`` — ``(-inf, 1.0)`` if not generated yet — so work
        ``w`` with ``(end - t) / slowdown >= w > 1e-12`` ends at
        ``t + w * slowdown`` without asking the trace."""
        if not self.dynamic:
            return math.inf, 1.0
        if t >= self._horizon:
            return -math.inf, 1.0
        seg = self._segment_at(t)
        return seg.end, seg.slowdown

    def iteration_finish_time(self, start: float, iterations: float = 1) -> float:
        """Wall-clock time at which ``iterations`` more local iterations
        complete if compute starts at ``start``.

        Fractional iteration counts are allowed (a half-batch iteration is
        half the work — used by the intra-round batch-adaptation extension).
        """
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        return self.work_finish_time(start, iterations * self.base_iteration_time)

    def work_finish_time(self, start: float, work_seconds: float) -> float:
        """Finish time for ``work_seconds`` of fast-equivalent compute.

        Work is integrated across mode segments: a segment with slowdown
        ``s`` processes fast-equivalent work at rate ``1/s``.
        """
        if work_seconds < 0:
            raise ValueError("work_seconds must be non-negative")
        if start < 0:
            raise ValueError("start must be non-negative")
        remaining = work_seconds
        t = start
        if not self.dynamic:
            return t + remaining
        while remaining > 1e-12:
            seg = self._segment_at(t)
            seg_wall = seg.end - t
            seg_work = seg_wall / seg.slowdown  # fast-equivalent seconds available
            if seg_work >= remaining:
                return t + remaining * seg.slowdown
            remaining -= seg_work
            t = seg.end
        return t

    # ------------------------------------------------------------------
    def snapshot_values(self) -> tuple:
        """Every mutable field in :data:`SNAPSHOT_KEYS` order — RNG position,
        the ``(k, 3)`` segments not yet forgotten, horizon/phase — from which
        a restored trace generates what an uninterrupted one would
        (:func:`repro.scale.cache.capture_blob`; ``tests/test_sysmodel.py``)."""
        segments = np.array([v for s in self._segments for v in (s.start, s.end, s.slowdown)])
        segments = segments.astype(np.float64).reshape(-1, 3)
        return rng_state_bytes(self._rng), segments, float(self._horizon), bool(self._next_fast)

    def restore_values(self, rng: bytes, segments: np.ndarray, horizon, next_fast) -> None:
        """Inverse of :meth:`snapshot_values` (static config is untouched)."""
        set_rng_state(self._rng, rng)
        self._segments = [_Segment(s, e, d) for s, e, d in segments.tolist()]
        self._horizon = float(horizon)
        self._next_fast = bool(next_fast)
