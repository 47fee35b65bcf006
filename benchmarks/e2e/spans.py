"""Benchmark-side span tracing: wrap public callables, keep spans in memory.

The simulator is not edited. A :class:`Tracer` replaces a fixed list of
public callables (``owner.attr``) with timing wrappers, records one span
per call — name, start, end, parent, round id — in parallel lists, and
puts every original back on :meth:`Tracer.uninstall`. Self time is a
span's duration minus the durations of its direct children, so nested
layers (``run_round`` → ``client_round`` → ``train_step`` → ``forward``)
each own only the time they spend themselves.

The end-to-end metrics are measured with no tracer installed; the
difference between a traced and an untraced run of the same rounds is the
tracing overhead the harness reports.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable

__all__ = ["now", "Tracer", "SpanSummary", "percentile_with_tail"]

#: The one wall-clock read of the benchmark; every timer goes through it.
now = time.perf_counter  # reprolint: allow[DET002] the benchmark measures host wall-clock by design; never reaches simulated time


class Tracer:
    """In-memory span recorder plus the install/uninstall bookkeeping."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per span, parallel lists (cheaper than objects).
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.round_id: list[int] = []
        self.current_round = -1
        self.active = False
        self._open = -1  # index of the innermost open span
        self._patched: list[tuple[Any, str, Any, bool]] = []
        # Forked pool workers inherit the wrappers; they must not record
        # into their private copy of these lists (wasted time and memory).
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._open)
        self.round_id.append(self.current_round)
        self.end.append(0.0)
        self._open = index
        self.start.append(now())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = now()
        self._open = self.parent[index]

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        # begin()/finish() inlined with everything bound up front: this
        # wrapper runs thousands of times per round, and its own cost is
        # the tracing overhead the harness has to keep under 10 %.
        tracer = self
        nid = self._id(name)
        name_id, parent, round_id = self.name_id, self.parent, self.round_id
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(tracer._open)
            round_id.append(tracer.current_round)
            end.append(0.0)
            tracer._open = index
            start.append(now())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = now()
                tracer._open = parent[index]

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self, targets: Iterable[tuple[Any, str, str]]) -> None:
        """Patch every ``(owner, attr, span name)``; raises on a missing
        attribute so a renamed callable fails the benchmark loudly instead
        of silently dropping a layer."""
        for owner, attr, name in targets:
            owner_dict = vars(owner)
            had_own = attr in owner_dict
            original = owner_dict[attr] if had_own else getattr(owner, attr)
            fn = original
            rewrap: Callable[[Callable], Any] = lambda f: f
            if isinstance(original, staticmethod):
                fn, rewrap = original.__func__, staticmethod
            elif isinstance(original, classmethod):
                raise TypeError(f"{owner!r}.{attr}: classmethods are not traced")
            self._patched.append((owner, attr, original, had_own))
            setattr(owner, attr, rewrap(self.wrap(name, fn)))
        self.active = True

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order, so an attribute
        patched twice ends at its first original)."""
        self.active = False
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def summary(self, rounds: Iterable[int] | None = None) -> "SpanSummary":
        return SpanSummary(self, None if rounds is None else set(rounds))


class SpanSummary:
    """Totals over the spans of a set of rounds (``None`` = every span).

    ``count``/``total``/``self_time`` are per span name. :meth:`top_total`
    sums a *set* of names without double counting: a span is skipped when
    one of its ancestors is in the same set (``merge_client_trace`` calling
    ``emit`` is one ``obs`` cost, not two).
    """

    def __init__(self, tracer: Tracer, rounds: set[int] | None) -> None:
        self._tracer = tracer
        n = len(tracer.start)
        child_time = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                child_time[p] += tracer.end[i] - tracer.start[i]
        self.count: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        # Kept span indices per name id, so a query walks only its own spans.
        self._kept: dict[int, list[int]] = {}
        for i in range(n):
            if rounds is not None and tracer.round_id[i] not in rounds:
                continue
            self._kept.setdefault(tracer.name_id[i], []).append(i)
            name = tracer.names[tracer.name_id[i]]
            duration = tracer.end[i] - tracer.start[i]
            self.count[name] = self.count.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + duration
            self.self_time[name] = (
                self.self_time.get(name, 0.0) + duration - child_time[i]
            )

    def _ids(self, names: Iterable[str]) -> set[int]:
        ids = self._tracer._name_ids
        return {ids[n] for n in names if n in ids}

    def _has_ancestor(self, index: int, ids: set[int]) -> bool:
        t = self._tracer
        p = t.parent[index]
        while p >= 0:
            if t.name_id[p] in ids:
                return True
            p = t.parent[p]
        return False

    def top_total(
        self, names: Iterable[str], *, under: Iterable[str] | None = None
    ) -> tuple[float, int]:
        """``(seconds, spans)`` of the top-most spans named in ``names``;
        with ``under``, only spans that have an ancestor named there."""
        t = self._tracer
        ids = self._ids(names)
        under_ids = None if under is None else self._ids(under)
        seconds, spans = 0.0, 0
        for nid in ids:
            for i in self._kept.get(nid, ()):
                if self._has_ancestor(i, ids):
                    continue
                if under_ids is not None and not self._has_ancestor(i, under_ids):
                    continue
                seconds += t.end[i] - t.start[i]
                spans += 1
        return seconds, spans

    def child_coverage(self, name: str) -> float:
        """Share of ``name``'s total time covered by its direct children."""
        total = self.total.get(name, 0.0)
        if total <= 0.0:
            return 0.0
        return 1.0 - self.self_time[name] / total

    def as_dict(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "count": self.count[name],
                "total_s": self.total[name],
                "self_s": self.self_time[name],
            }
            for name in sorted(self.count)
        }


def percentile_with_tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile that still has ten samples beyond it.

    Returns ``(percentile, value)`` — with 40 samples that is p75 (the
    30th order statistic, ten larger ones above it) — or ``None`` when
    there are fewer than eleven samples, where no tail statistic is
    honest.
    """
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]
