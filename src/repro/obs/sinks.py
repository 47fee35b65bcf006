"""The trace writer: where every traced event is written, once.

A :class:`TraceWriter` owns the trace file (DESIGN.md §13). The producer
side of :meth:`TraceWriter.write` is one deque append — no serialisation,
no I/O — and a daemon flusher thread (``repro-trace-flusher``) wakes every
:data:`FLUSH_INTERVAL` seconds to encode whatever accumulated as canonical
JSONL lines (:func:`encode_jsonl`) and write them, flushing the file after
each batch so a crash loses at most one interval of events.

Backpressure blocks: once :data:`QUEUE_CAPACITY` events wait, the producer
stalls until the flusher makes room. No event is ever lost, so the file
holds exactly the bytes of encoding every event inline, in emission order —
the serial/parallel/cohort byte-identical-trace contract. The flusher and
any foreground ``flush``/``sync``/``close`` serialise on one lock, so
batches reach the file in emission order whichever thread drains.

A flusher failure (disk full) is re-raised on the producer as
:class:`SinkError` by the next ``write``/``flush``/``sync``/``close``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .events import TraceEvent

__all__ = [
    "TraceWriter",
    "SinkError",
    "encode_jsonl",
    "QUEUE_CAPACITY",
    "FLUSH_INTERVAL",
]

#: Events the queue holds before the producer blocks.
QUEUE_CAPACITY = 65536

#: Seconds between flusher sweeps.
FLUSH_INTERVAL = 0.05


class SinkError(RuntimeError):
    """The trace cannot be written: a background flusher failure,
    re-raised on the producer thread, or a resume offset past the end of
    the trace file."""


def encode_jsonl(event: "TraceEvent") -> bytes:
    """One event as its canonical JSONL line (sorted keys, ``\\n``)."""
    return (json.dumps(event.as_dict(), sort_keys=True) + "\n").encode("utf-8")


class TraceWriter:
    """Owns one JSONL trace file, written by a background flusher thread.

    ``resume_offset`` (checkpoint resume) truncates an existing file to that
    byte offset — discarding whatever a crashed process flushed past its
    last checkpoint — and appends from there; :class:`SinkError` is raised,
    before anything is written, if the file is shorter than the offset.
    Without it the file is created fresh.
    """

    def __init__(self, path: str, *, resume_offset: int | None = None) -> None:
        if resume_offset:
            size = os.path.getsize(path) if os.path.exists(path) else 0
            if resume_offset > size:
                raise SinkError(
                    f"cannot resume the trace {path}: it holds {size} bytes, "
                    f"but the checkpoint was taken at byte {resume_offset}"
                )
            self._fh = open(path, "r+b")
            self._fh.seek(resume_offset)
            self._fh.truncate()
        else:
            self._fh = open(path, "wb")
        self._queue: deque["TraceEvent"] = deque()
        # The condition wakes a blocked producer when a drain makes room.
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._error: BaseException | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-trace-flusher", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(FLUSH_INTERVAL):
            self._drain()

    def _drain(self) -> None:
        """Encode and write every queued event (any thread)."""
        with self._lock:
            lines = []
            while self._queue:
                lines.append(encode_jsonl(self._queue.popleft()))
            if lines and self._error is None:
                try:
                    self._fh.write(b"".join(lines))
                    self._fh.flush()
                except Exception as exc:  # surfaces on the producer
                    self._error = exc
                    self._stop.set()
            self._space.notify_all()

    def _raise_pending(self) -> None:
        if self._error is not None:
            raise SinkError(
                f"trace flusher failed: {self._error!r}"
            ) from self._error

    def write(self, event: "TraceEvent") -> None:
        """Queue one event; blocks while the queue is full."""
        self._raise_pending()
        if len(self._queue) >= QUEUE_CAPACITY:
            if not self._thread.is_alive():
                self._drain()  # no flusher (forked child): make room here
            with self._space:
                while len(self._queue) >= QUEUE_CAPACITY and self._error is None:
                    self._space.wait(timeout=0.5)
            self._raise_pending()
        self._queue.append(event)

    def flush(self) -> None:
        """Write every queued event on the calling thread."""
        self._drain()
        self._raise_pending()

    def sync(self) -> int:
        """Flush and fsync; returns the durable byte offset, which
        ``resume_offset`` accepts."""
        self.flush()
        with self._lock:
            os.fsync(self._fh.fileno())
            return self._fh.tell()

    def close(self) -> None:
        """Stop the flusher, write what is queued and close the file.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._thread.join(timeout=10.0)
        self._drain()
        try:
            self._fh.close()
        except OSError as exc:  # the last flush failed
            if self._error is None:
                self._error = exc
        self._raise_pending()
