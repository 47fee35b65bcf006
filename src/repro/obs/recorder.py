"""Recorder protocol and the two shipped implementations.

* :class:`NullRecorder` — the default. Every method is a no-op and
  ``enabled`` is False, so instrumentation sites cost one attribute check
  (or one no-op call) per event; ``run()`` histories are bitwise identical
  to an uninstrumented build.
* :class:`TraceRecorder` — a counters/gauges registry plus the event
  stream: a JSONL trace file written by
  :class:`~repro.obs.sinks.TraceWriter`, or, without a file, a bounded
  in-memory ring of :class:`~repro.obs.events.TraceEvent`.

Determinism contract
--------------------
All events are keyed on simulated time. Client-side events produced inside
:class:`~repro.runtime.parallel.ParallelExecutor` workers travel back to
the parent on the ``trace`` field of each
:class:`~repro.runtime.round.ClientRoundResult`; the simulator merges them
via :meth:`Recorder.merge_client_trace` in job order (sorted client ids),
so the sequence numbers — and therefore the whole trace — are identical
for serial and parallel executions of the same run.
"""

from __future__ import annotations

import atexit
from collections import deque
from typing import Any, Iterable

from .events import TraceEvent
from .metrics import MIRROR_GAUGES, metric_base_name
from .sinks import TraceWriter

__all__ = ["Recorder", "NullRecorder", "TraceRecorder", "NULL_RECORDER"]


class Recorder:
    """Telemetry sink interface (also usable as a structural protocol).

    Subclasses override the methods they care about; the base class is a
    complete no-op so custom recorders only implement what they need.
    """

    #: Fast guard for instrumentation sites: skip event *construction*
    #: entirely when nothing is listening.
    enabled: bool = False

    # -- events --------------------------------------------------------
    def emit(
        self,
        kind: str,
        *,
        sim_time: float,
        round_index: int | None = None,
        client_id: int | None = None,
        **fields: Any,
    ) -> None:
        """Record one structured event at a simulated-time instant."""

    def span(
        self,
        kind: str,
        *,
        sim_start: float,
        sim_end: float,
        round_index: int | None = None,
        client_id: int | None = None,
        **fields: Any,
    ) -> None:
        """Record an interval event: an ``emit`` at ``sim_start`` carrying
        the span's ``duration`` (``sim_end − sim_start``)."""

    def merge_client_trace(
        self,
        round_index: int,
        client_id: int,
        trace: Iterable[dict[str, Any]] | None,
    ) -> None:
        """Fold a client round's buffered events (``{"kind", "sim_time",
        "fields"}`` dicts, possibly produced in a worker process) into this
        recorder, stamping round/client ids and sequence numbers."""

    # -- metrics -------------------------------------------------------
    def counter(self, name: str, inc: float = 1) -> None:
        """Add ``inc`` to a monotonically increasing counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge."""

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        """Flush any buffered sink output."""

    def close(self) -> None:
        """Flush and release sink resources. Idempotent."""

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullRecorder(Recorder):
    """The default sink: drops everything, costs (almost) nothing."""

    enabled = False


#: Shared default instance — stateless, safe to reuse across simulators.
NULL_RECORDER = NullRecorder()


class TraceRecorder(Recorder):
    """Metrics registry plus the event stream: a trace file or a ring.

    Parameters
    ----------
    capacity:
        Ring size for a recorder without ``trace_path``; the oldest events
        fall off first (``dropped_events`` counts them).
    trace_path:
        Write every event to this file as one JSON object per line through
        a :class:`~repro.obs.sinks.TraceWriter`. Such a recorder keeps no
        ring: the file is the one copy of the events, and :meth:`events`
        raises.
    buffered:
        Accepted and ignored (``benchmarks/e2e`` still passes it); every
        trace file goes through the writer.
    defer_sink:
        Do not open ``trace_path`` yet. Used by checkpoint resume
        (:mod:`repro.persist`): opening the file fresh would truncate the
        first half of the trace, so the resume path restores the recorder
        state first and then calls :meth:`attach_sink` with the
        checkpointed byte offset.

    Crash safety
    ------------
    A recorder with a trace file registers an ``atexit`` hook that flushes
    and closes it, and the simulator's run loop flushes the recorder in a
    ``finally`` block — so the trace written so far (and therefore any
    post-mortem ``--metrics-file`` dump the CLI emits from its own
    ``finally``) survives exceptions and normal interpreter death. Only a
    hard kill (SIGKILL) can lose the tail past the last flush; the
    checkpoint/resume layer is the recovery story there.
    """

    enabled = True

    def __init__(
        self,
        *,
        capacity: int = 100_000,
        trace_path: str | None = None,
        buffered: bool = False,
        defer_sink: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._trace_path = trace_path or None
        self._ring: deque[TraceEvent] | None = (
            None if self._trace_path else deque(maxlen=capacity)
        )
        self._seq = 0
        self.dropped_events = 0
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._writer: TraceWriter | None = None
        self._closed = False
        self._atexit_registered = False
        if self._trace_path and not defer_sink:
            self.attach_sink()

    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        sim_time: float,
        round_index: int | None,
        client_id: int | None,
        fields: dict[str, Any],
    ) -> None:
        event = TraceEvent(
            seq=self._seq,
            kind=kind,
            sim_time=float(sim_time),
            round_index=round_index,
            client_id=client_id,
            fields=fields,
        )
        self._seq += 1
        if self._writer is not None:
            self._writer.write(event)
        elif self._ring is not None:
            if len(self._ring) == self.capacity:
                self.dropped_events += 1
            self._ring.append(event)

    def emit(
        self,
        kind: str,
        *,
        sim_time: float,
        round_index: int | None = None,
        client_id: int | None = None,
        **fields: Any,
    ) -> None:
        self._record(kind, sim_time, round_index, client_id, fields)

    def span(
        self,
        kind: str,
        *,
        sim_start: float,
        sim_end: float,
        round_index: int | None = None,
        client_id: int | None = None,
        **fields: Any,
    ) -> None:
        fields["duration"] = float(sim_end) - float(sim_start)
        self._record(kind, sim_start, round_index, client_id, fields)

    def merge_client_trace(
        self,
        round_index: int,
        client_id: int,
        trace: Iterable[dict[str, Any]] | None,
    ) -> None:
        if not trace:
            return
        for raw in trace:
            self._record(
                raw["kind"],
                raw["sim_time"],
                round_index,
                client_id,
                raw.get("fields", {}),
            )

    # ------------------------------------------------------------------
    def counter(self, name: str, inc: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + inc

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        """Total events recorded (including any dropped from the ring)."""
        return self._seq

    @property
    def sink_dropped_events(self) -> int:
        """Always 0: the trace writer never drops an event."""
        return 0

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Events currently in the ring, optionally filtered by kind.

        A recorder with a trace file keeps no ring; read the file instead.
        """
        if self._ring is None:
            raise RuntimeError(
                "this recorder keeps no events in memory; they are in "
                f"its trace file {self._trace_path}"
            )
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e.kind == kind]

    # ------------------------------------------------------------------
    # Checkpoint/resume hooks (see repro.persist). The trace oracle —
    # first-half trace + resumed trace must be byte-identical to an
    # uninterrupted run's — needs the sequence counter, the metrics
    # registry, and the durable sink position to survive the restart.
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """JSON-safe snapshot of counters, gauges, sequence state and the
        flushed sink byte offset (everything a resumed recorder needs to
        continue the stream seamlessly). The ring content is *not*
        captured — ``num_events`` still accounts for pre-resume events —
        nor are the :data:`~repro.obs.metrics.MIRROR_GAUGES`, so identical
        runs write identical checkpoints."""
        self.flush()
        snapshot: dict = {
            "seq": self._seq,
            "dropped_events": self.dropped_events,
            "counters": dict(self.counters),
            "gauges": {
                k: v for k, v in self.gauges.items() if metric_base_name(k) not in MIRROR_GAUGES
            },
        }
        if self._writer is not None:
            snapshot["sink_offset"] = self._writer.sync()
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        """Inverse of :meth:`snapshot_state` (sink handling is separate —
        see :meth:`attach_sink`)."""
        self._seq = int(snapshot["seq"])
        self.dropped_events = int(snapshot["dropped_events"])
        self.counters = {k: float(v) for k, v in snapshot["counters"].items()}
        self.gauges = {k: float(v) for k, v in snapshot["gauges"].items()}

    def attach_sink(self, *, offset: int | None = None) -> None:
        """Open the trace file (deferred at construction by ``defer_sink``).

        With ``offset`` the existing file is truncated to the checkpointed
        position first — discarding any events a crashed process managed
        to flush past its last checkpoint — and appending resumes from
        there; a file shorter than ``offset`` raises
        :class:`~repro.obs.sinks.SinkError`. Otherwise the file is created
        fresh. No-op if no ``trace_path`` was configured or the file is
        already open.
        """
        if self._trace_path is None or self._writer is not None:
            return
        self._writer = TraceWriter(self._trace_path, resume_offset=offset)
        if not self._atexit_registered:
            # Crash safety: flush+close the file even if nobody calls
            # close() before the interpreter exits (unregistered on close).
            atexit.register(self.close)
            self._atexit_registered = True

    # ------------------------------------------------------------------
    def flush(self) -> None:
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._atexit_registered:
            self._atexit_registered = False
            try:
                atexit.unregister(self.close)
            except Exception:  # pragma: no cover - interpreter teardown
                pass
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
