"""Trace sinks: where the flight-recorder pipeline writes its events.

The :class:`~repro.obs.recorder.TraceRecorder` used to write one JSONL line
per event synchronously on the hot path. This module turns that into a
pluggable pipeline (DESIGN.md §13):

* :class:`Sink` — the protocol. A sink receives whole
  :class:`~repro.obs.events.TraceEvent` objects (serialisation is the
  sink's job, so it can happen off the hot path) in emission order and
  must write them in that same order.
* :class:`JsonlSink` — the synchronous baseline: one sorted-key JSON
  object per line, byte-identical to the pre-pipeline recorder output.
* :class:`BufferedSink` — the flight recorder: events land in a bounded
  in-memory queue and a background flusher thread drains them into any
  inner sink in batches. The producer pays one deque append instead of a
  serialise+write, which is what keeps telemetry viable at million-event
  scale.

Backpressure (``BufferedSink``)
-------------------------------
When the queue is full the configured policy decides:

* ``"block"`` (default): the producer waits for the flusher — **no event
  is ever lost** and the drained byte stream is identical to a
  synchronous sink's, so the serial/parallel/cohort byte-identical-trace
  contract survives buffering.
* ``"drop_oldest"``: the oldest queued event is discarded and counted
  (``dropped_events``; surfaced as the ``repro_trace_dropped_total``
  counter by the recorder). Lossy by design — overflow detection in
  :mod:`repro.obs.analysis` refuses to compute from such a trace.

Ordering is single-consumer by construction: the flusher and any
foreground ``flush()``/``sync()`` call serialise on one lock, so inner
writes always happen in emission order regardless of which thread drains.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import TraceEvent

__all__ = [
    "Sink",
    "JsonlSink",
    "BufferedSink",
    "SinkError",
    "encode_jsonl",
    "BACKPRESSURE_POLICIES",
    "TRACE_DROPPED_TOTAL",
]

#: Recorder counter fed by ``BufferedSink(policy="drop_oldest")`` drops.
TRACE_DROPPED_TOTAL = "repro_trace_dropped_total"

BACKPRESSURE_POLICIES = ("block", "drop_oldest")


class SinkError(RuntimeError):
    """A background flusher failure, re-raised on the producer thread."""


def encode_jsonl(event: "TraceEvent") -> bytes:
    """One event as its canonical JSONL line (sorted keys, ``\\n``).

    ``drop_wall_clock=False`` keeps the opt-in ``wall_time`` field when
    the recorder captured it and omits it otherwise — exactly the
    pre-pipeline synchronous behaviour, byte for byte.
    """
    return (
        json.dumps(event.as_dict(drop_wall_clock=False), sort_keys=True) + "\n"
    ).encode("utf-8")


class Sink:
    """Where serialised trace events go. Single-producer, order-preserving.

    Implementations receive events via :meth:`write` in emission order and
    must persist them in that order. ``flush``/``close`` are idempotent;
    :meth:`sync` additionally makes the written prefix durable (fsync) and
    returns its byte offset when the sink supports checkpoint/resume
    truncation (see :meth:`repro.obs.recorder.TraceRecorder.snapshot_state`),
    else ``None``.
    """

    def write(self, event: "TraceEvent") -> None:
        raise NotImplementedError

    def flush(self) -> None:
        """Push buffered output down to the OS."""

    def sync(self) -> int | None:
        """Flush + fsync; returns the durable byte offset or ``None``."""
        self.flush()
        return None

    def close(self) -> None:
        """Flush and release resources. Idempotent."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlSink(Sink):
    """Synchronous one-JSON-object-per-line sink (the determinism baseline)."""

    def __init__(self, path: str, *, resume_offset: int | None = None) -> None:
        self.path = path
        self._closed = False
        if resume_offset is not None and os.path.exists(path):
            # Checkpoint resume: discard whatever a crashed process flushed
            # past its last checkpoint, then append (see TraceRecorder
            # .attach_sink).
            self._fh = open(path, "r+b")
            self._fh.seek(int(resume_offset))
            self._fh.truncate()
        else:
            self._fh = open(path, "wb")

    def write(self, event: "TraceEvent") -> None:
        self._fh.write(encode_jsonl(event))

    def flush(self) -> None:
        if not self._closed:
            self._fh.flush()

    def sync(self) -> int | None:
        if self._closed:
            return None
        self._fh.flush()
        os.fsync(self._fh.fileno())
        return self._fh.tell()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._fh.flush()
        self._fh.close()


class BufferedSink(Sink):
    """Bounded-queue sink drained by a background flusher thread.

    The producer-side :meth:`write` appends the (immutable) event to a
    deque — no serialisation, no I/O — and the flusher wakes every
    ``flush_interval`` seconds to drain whatever accumulated into the
    ``inner`` sink, flushing it after each batch so a crash loses at most
    one interval of events. See the module docstring for the backpressure
    policies and the determinism contract.

    ``autostart=False`` leaves the flusher unstarted (tests use this to
    make drop accounting exactly reproducible); call :meth:`start` or rely
    on ``flush``/``close``, which drain on the calling thread regardless.
    """

    def __init__(
        self,
        inner: Sink,
        *,
        capacity: int = 65536,
        policy: str = "block",
        flush_interval: float = 0.05,
        autostart: bool = True,
        on_drop: Callable[[int], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if policy not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown backpressure policy {policy!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )
        self.inner = inner
        self.capacity = capacity
        self.policy = policy
        self.flush_interval = flush_interval
        self.on_drop = on_drop
        self.dropped_events = 0
        self._queue: deque["TraceEvent"] = deque()
        # One lock serialises every consumer (flusher thread, foreground
        # flush/sync/close) so inner writes keep emission order; the
        # condition wakes blocked producers when the flusher makes room.
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._error: BaseException | None = None
        self._thread: threading.Thread | None = None
        self._closed = False
        if autostart:
            self.start()

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the background flusher (idempotent)."""
        if self._thread is None and not self._closed:
            self._thread = threading.Thread(
                target=self._run, name="repro-trace-flusher", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.flush_interval):
            self._drain()
        self._drain()  # final sweep before the thread exits

    def _drain(self) -> None:
        """Move every queued event into the inner sink (any thread)."""
        with self._lock:
            wrote = False
            while True:
                try:
                    event = self._queue.popleft()
                except IndexError:
                    break
                try:
                    self.inner.write(event)
                    wrote = True
                except BaseException as exc:  # surface on the producer side
                    if self._error is None:
                        self._error = exc
                    self._stop.set()
                    break
            if wrote and self._error is None:
                try:
                    self.inner.flush()
                except BaseException as exc:
                    self._error = exc
                    self._stop.set()
            self._space.notify_all()

    def _raise_pending(self) -> None:
        if self._error is not None:
            raise SinkError(
                f"trace flusher failed: {self._error!r}"
            ) from self._error

    # ------------------------------------------------------------------
    def write(self, event: "TraceEvent") -> None:
        self._raise_pending()
        if len(self._queue) >= self.capacity:
            if self.policy == "drop_oldest":
                try:
                    self._queue.popleft()
                except IndexError:  # pragma: no cover - flusher raced us
                    pass
                else:
                    self.dropped_events += 1
                    if self.on_drop is not None:
                        self.on_drop(1)
            else:  # block
                flusher_alive = (
                    self._thread is not None and self._thread.is_alive()
                )
                if not flusher_alive:
                    # No one else will make room — drain here rather than
                    # deadlocking the producer.
                    self._drain()
                    self._raise_pending()
                else:
                    with self._space:
                        while (
                            len(self._queue) >= self.capacity
                            and self._error is None
                            and not self._stop.is_set()
                        ):
                            self._space.wait(timeout=0.5)
                    self._raise_pending()
        self._queue.append(event)

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drain the queue on the calling thread and flush the inner sink."""
        self._drain()
        self._raise_pending()

    def sync(self) -> int | None:
        self._drain()
        self._raise_pending()
        return self.inner.sync()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._drain()
        self.inner.close()
        self._raise_pending()
