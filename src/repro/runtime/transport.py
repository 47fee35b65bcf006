"""The parallel executor's IPC transport.

:class:`~repro.runtime.parallel.ParallelExecutor` moves three kinds of data
between the parent and its persistent workers every round:

1. the global model broadcast (params + buffers) — large, identical for
   every worker;
2. the per-client :class:`~repro.runtime.round.ClientRoundResult` payloads
   (updates, buffers) — large, one batch per worker;
3. control traffic (job lists, scalar stats, trace events, generation
   counters) — small;
4. the kept state of each job's client, one :mod:`~repro.persist.snapshot`
   blob each way — a few KB per job.

:class:`ShmTransport` carries 1 and 2; 3 rides the worker pipes, and 4 its
own pipe frame after each control message: the blobs joined into one
``bytes``, their lengths in the message. Both
bulk payloads are flat: the parameter and buffer
:class:`~repro.nn.layout.Layout` tables are fixed at :meth:`ShmTransport.setup`
(before the fork, so every worker holds them), and a broadcast or a result
is then the ``P`` parameter floats followed by the ``B`` buffer floats,
with no per-message header or offset table. The broadcast is the server
model's two vectors copied **once** into a ``multiprocessing.shared_memory``
arena behind a magic/version/generation preamble — two slice copies — that
all workers map read-only and zero-copy; each worker returns its results
through its own arena of ``P + B``-float slots, as many as the jobs a round
can deal it, and the parent reads every decoded result in place — read-only
views of its slot, valid until the next round's broadcast.

Every arena reserves its pages at creation (see :class:`_Arena`), so a
``/dev/shm`` that cannot hold the pool fails :meth:`ShmTransport.setup`
with ``OSError(ENOSPC)`` — before any fork — and the executor degrades to
serial. Without the reservation tmpfs hands out sparse segments and the
shortfall surfaces later as a SIGBUS inside :meth:`ShmTransport.broadcast`.

Byte accounting
---------------
Traffic is metered into ``stats`` under Prometheus-style names
``repro_ipc_bytes_total{transport=...,direction=...}`` where ``transport``
is the channel the bytes moved through (``pipe`` for control messages,
``shm`` for the arenas) and ``direction`` is ``broadcast``
(parent→worker), ``results`` (worker→parent) or ``state`` (the blob
frames, both ways).
``repro_ipc_broadcast_seconds`` accumulates the parent's wall-clock cost
of staging each round's broadcast. When a recorder is attached (see
:meth:`ShmTransport.set_recorder`) the same names are mirrored as recorder
counters; counters never enter the JSONL event trace, so serial and
parallel traces stay byte-identical.

Cleanup invariants
------------------
Shared-memory segments are unlinked on pool shutdown, worker death (the
executor tears the pool down before degrading), a failed ``setup`` and
interpreter exit (``atexit``); only the creating process ever unlinks. A
SIGKILLed parent is covered by Python's
``multiprocessing.resource_tracker``, which reaps registered segments once
every process holding them has died — so crash-resume CI leaves
``/dev/shm`` clean.
"""

from __future__ import annotations

import atexit
import os
import secrets
import struct
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from ..nn.layout import Layout
from ..obs.profile import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Recorder
    from .round import ClientRoundResult

__all__ = [
    "ShmTransport",
    "shm_available",
    "ipc_bytes_counter",
    "BROADCAST_SECONDS",
    "SEGMENT_PREFIX",
]

#: ``/dev/shm`` name prefix for every segment this module creates — lets
#: tests (and CI) assert no segments leak.
SEGMENT_PREFIX = "repro-ipc"

BROADCAST_SECONDS = "repro_ipc_broadcast_seconds"

#: Broadcast-arena preamble: magic(8) + version(u32) + pad(u32) +
#: generation(u64). The flat payload starts at _ARENA_DATA_OFFSET.
_SHM_MAGIC = b"RPROSHM1"
_SHM_VERSION = 2
_SHM_HEADER = struct.Struct("<8sIIQ")
_ARENA_DATA_OFFSET = 64


def ipc_bytes_counter(transport: str, direction: str) -> str:
    """Metric name for bytes moved through one channel in one direction."""
    return (
        f'repro_ipc_bytes_total{{transport="{transport}",'
        f'direction="{direction}"}}'
    )


def shm_available() -> tuple[bool, str]:
    """Whether POSIX shared memory actually works here, with the reason.

    A skip helper for tests and benches only — the engine does not probe;
    :meth:`ShmTransport.setup` failing is its probe. Checks the import
    (Python ≥ 3.8 semantics) and creates a real segment: containers
    without a usable ``/dev/shm`` fail the latter, not the import.
    """
    try:
        from multiprocessing import shared_memory
    except ImportError as exc:  # pragma: no cover - py<3.8 only
        return False, f"multiprocessing.shared_memory unavailable: {exc}"
    try:
        probe = shared_memory.SharedMemory(
            create=True, size=64, name=f"{SEGMENT_PREFIX}-probe-{os.getpid()}"
        )
    except Exception as exc:
        return False, f"shared-memory probe failed: {exc!r}"
    probe.close()
    probe.unlink()
    return True, ""


class _Arena:
    """A named shared-memory segment plus the bookkeeping to clean it up.

    Creation reserves the segment's pages. ``SharedMemory(create=True)``
    only ``ftruncate``s, which on tmpfs is sparse — a segment far larger
    than ``/dev/shm`` "succeeds" and the shortfall arrives as a SIGBUS on
    first write. ``posix_fallocate`` turns it into ``OSError(ENOSPC)``
    here, where the caller can still degrade.
    """

    def __init__(self, name: str, size: int) -> None:
        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True, name=name, size=size)
        self.name = name
        self.size = self.shm.size
        fd = getattr(self.shm, "_fd", -1)
        if fd >= 0 and hasattr(os, "posix_fallocate"):
            try:
                os.posix_fallocate(fd, 0, self.size)
            except OSError:
                self.destroy()
                raise

    @property
    def buf(self):
        return self.shm.buf

    def destroy(self) -> None:
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - exported views still alive
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


class ShmTransport:
    """Shared-memory arenas for the bulk payloads; pipes for control only.

    One instance is shared (via fork) by the parent and every worker.
    Parent lifecycle: :meth:`setup` once before the pool forks (the
    workers must inherit the arenas and the layouts), :meth:`broadcast` /
    :meth:`decode_results` per round, and
    :meth:`close` on pool shutdown. Workers call :meth:`worker_init` first
    thing and then only the ``read_broadcast`` / ``encode_results`` half.

    Layout per pool:

    * one *broadcast arena*: ``[magic|version|generation]`` preamble, then
      the ``P + B`` floats of the global parameters and buffers. The
      parent rewrites it once per round and bumps the generation counter;
      workers verify the generation from the round message before mapping
      it zero-copy and read-only.
    * one *result arena per worker*: a ``P + B``-float slot per job the
      worker can be dealt in one round (each job returns one result).
      Result ``k`` of a reply sits in slot ``k``; only the stripped
      scalars go down the pipe, and the parent aggregates straight out of
      the slots.
    """

    def __init__(self) -> None:
        self.stats: dict[str, float] = {}
        self._recorder: "Recorder | None" = None
        self._profiler = NULL_PROFILER
        self._worker_index: int | None = None
        self._layout = self._buffer_layout = Layout.of(())
        self._broadcast: _Arena | None = None
        self._results: list[_Arena] = []
        self._capacity: list[int] = []
        self._generation = 0
        self._creator_pid = os.getpid()
        self._closed = False
        self._atexit_registered = False

    # -- accounting ----------------------------------------------------
    def set_recorder(self, recorder: "Recorder | None") -> None:
        self._recorder = recorder if recorder is not None and recorder.enabled else None

    def set_profiler(self, profiler) -> None:
        """Attach the parent's phase profiler (the broadcast ``pack`` is
        timed as a sub-span under the executor's ``broadcast`` phase)."""
        self._profiler = profiler

    def count(self, name: str, inc: float) -> None:
        """Accumulate into ``stats`` and bump the recorder counter. Every
        series counted here is *deterministic* — the resume oracle
        (:mod:`repro.persist`) asserts recorder counters are identical
        between an uninterrupted run and a crash-resumed one."""
        self.stats[name] = self.stats.get(name, 0) + inc
        if self._recorder is not None:
            self._recorder.counter(name, inc)

    def count_pipe(self, direction: str, nbytes: int) -> None:
        """Pipe traffic is metered by the executor (it owns the pipes)."""
        self.count(ipc_bytes_counter("pipe", direction), nbytes)

    def add_broadcast_seconds(self, seconds: float) -> None:
        """Wall-clock broadcast staging cost: cumulative in ``stats``,
        surfaced as a recorder *gauge* (wall time is not deterministic, so
        it must not enter the counter registry the resume oracle compares)."""
        self.stats[BROADCAST_SECONDS] = (
            self.stats.get(BROADCAST_SECONDS, 0.0) + seconds
        )
        if self._recorder is not None:
            self._recorder.gauge(BROADCAST_SECONDS, self.stats[BROADCAST_SECONDS])

    # -- flat views over the arenas -----------------------------------
    @property
    def _slot_floats(self) -> int:
        return self._layout.size + self._buffer_layout.size

    def _payload(self) -> np.ndarray:
        """The broadcast arena's ``(P + B,)`` payload."""
        return np.ndarray(
            (self._slot_floats,),
            dtype=np.float32,
            buffer=self._broadcast.buf,
            offset=_ARENA_DATA_OFFSET,
        )

    def _slots(self, worker: int) -> np.ndarray:
        """Worker ``worker``'s result arena as ``(slots, P + B)`` rows."""
        return np.ndarray(
            (self._capacity[worker], self._slot_floats),
            dtype=np.float32,
            buffer=self._results[worker].buf,
        )

    def _split(self, flat: np.ndarray) -> tuple[dict, dict]:
        """``(parameters, buffers)`` view dicts over one ``P + B`` slot."""
        p = self._layout.size
        return self._layout.views(flat[:p]), self._buffer_layout.views(flat[p:])

    # -- parent half ---------------------------------------------------
    def setup(
        self, layout: Layout, buffer_layout: Layout, slot_counts: list[int]
    ) -> None:
        """Fix the server model's parameter and buffer layouts and allocate
        (and reserve) the pool's arenas before the workers fork.

        ``slot_counts[w]`` is the most results worker ``w`` returns in one
        round — the most jobs a round can deal it. Raises
        whatever arena creation raises (``OSError(ENOSPC)`` when
        ``/dev/shm`` cannot hold the pool) with every segment created so
        far already unlinked.
        """
        token = secrets.token_hex(4)
        prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{token}"
        self._layout, self._buffer_layout = layout, buffer_layout
        slot_bytes = 4 * self._slot_floats
        try:
            self._broadcast = _Arena(f"{prefix}-b", _ARENA_DATA_OFFSET + slot_bytes)
            _SHM_HEADER.pack_into(
                self._broadcast.buf, 0, _SHM_MAGIC, _SHM_VERSION, 0, 0
            )
            self._capacity = [max(1, slots) for slots in slot_counts]
            for w, slots in enumerate(self._capacity):
                self._results.append(_Arena(f"{prefix}-r{w}", max(1, slots * slot_bytes)))
        except BaseException:
            self.close()
            raise
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def broadcast(self, params: np.ndarray, buffers: np.ndarray) -> int:
        """Stage one round's global model — its ``(P,)`` parameter and
        ``(B,)`` buffer vectors, two slice copies; returns the generation,
        the (small) extra that rides the round control message to every
        worker."""
        assert self._broadcast is not None, "setup() must run before broadcast()"
        t0 = time.perf_counter()
        with self._profiler.phase("pack"):
            self._generation += 1
            payload = self._payload()
            p = self._layout.size
            payload[:p] = params
            payload[p:] = buffers
            del payload  # release the exported buffer so the arena can be unmapped
            _SHM_HEADER.pack_into(
                self._broadcast.buf, 0, _SHM_MAGIC, _SHM_VERSION, 0, self._generation
            )
        self.add_broadcast_seconds(time.perf_counter() - t0)
        self.count(ipc_bytes_counter("shm", "broadcast"), 4 * self._slot_floats)
        return self._generation

    def decode_results(self, worker: int, payload: Any) -> "list[ClientRoundResult]":
        """Recover a worker's result batch from its reply payload: result
        ``k`` is the stripped scalars plus read-only views of slot ``k`` of
        its arena, not a copy. The views hold until the next
        :meth:`broadcast`, after which the worker rewrites its slots;
        :meth:`detach` copies results out when the arenas go first."""
        slots = self._slots(worker)
        slots.flags.writeable = False
        for k, result in enumerate(payload):
            result.update, result.buffers = self._split(slots[k])
        if payload:
            self.count(
                ipc_bytes_counter("shm", "results"), 4 * self._slot_floats * len(payload)
            )
        return payload

    def detach(self, results: "list[ClientRoundResult]") -> None:
        """Copy decoded results out of their arena slots — for when the
        pool, and its arenas, is torn down before the parent aggregates
        them (a worker died mid-round)."""
        for result in results:
            result.update = self._layout.views(self._layout.flatten(result.update))
            result.buffers = self._buffer_layout.views(
                self._buffer_layout.flatten(result.buffers, what="buffer_dict")
            )

    def close(self) -> None:
        """Unlink the arenas. Idempotent; a no-op outside the creating
        process."""
        if self._closed or os.getpid() != self._creator_pid:
            # Workers (and any other inheritor) must never unlink the
            # creator's segments; their mappings die with the process.
            return
        self._closed = True
        for arena in [*self._results, self._broadcast]:
            if arena is not None:
                arena.destroy()
        self._results = []
        self._capacity = []
        self._broadcast = None

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass

    # -- worker half ---------------------------------------------------
    def worker_init(self, worker: int) -> None:
        """Called first thing inside the forked worker."""
        self._worker_index = worker
        self._recorder = None  # the parent's recorder must not be touched
        self._profiler = NULL_PROFILER  # ditto for the parent's profiler

    def read_broadcast(self, generation: int) -> tuple[np.ndarray, np.ndarray]:
        """Recover the round's global ``(P,)`` parameter and ``(B,)`` buffer
        vectors in the worker, as read-only views into the broadcast
        arena."""
        assert self._broadcast is not None
        magic, version, _, written = _SHM_HEADER.unpack_from(self._broadcast.buf, 0)
        if magic != _SHM_MAGIC or version != _SHM_VERSION:
            raise RuntimeError(
                f"broadcast arena corrupt: magic={magic!r} version={version}"
            )
        if written != generation:
            raise RuntimeError(
                f"broadcast generation mismatch: arena has {written}, "
                f"round message says {generation}"
            )
        payload = self._payload()
        payload.flags.writeable = False
        p = self._layout.size
        return payload[:p], payload[p:]

    def encode_results(self, results: "list[ClientRoundResult]") -> Any:
        """Stage a worker's result batch — result ``k`` into slot ``k`` —
        and return the stripped results, the reply payload."""
        import dataclasses

        assert self._worker_index is not None
        slots = self._slots(self._worker_index)
        if len(results) > len(slots):
            raise RuntimeError(
                f"{len(results)} results for {len(slots)} result slots"
            )
        p = self._layout.size
        payload = []
        for slot, result in zip(slots, results):
            self._layout.flatten(result.update, out=slot[:p])
            self._buffer_layout.flatten(result.buffers, out=slot[p:], what="buffer_dict")
            payload.append(dataclasses.replace(result, update={}, buffers={}))
        del slots
        return payload
