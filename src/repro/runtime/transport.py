"""The parallel executor's IPC transport.

:class:`~repro.runtime.parallel.ParallelExecutor` moves three kinds of data
between the parent and its persistent workers every round:

1. the global model broadcast (params + buffers) — large, identical for
   every worker;
2. the per-client :class:`~repro.runtime.round.ClientRoundResult` payloads
   (updates, buffers) — large, one batch per worker;
3. control traffic (job lists, scalar stats, trace events, generation
   counters) — small.

:class:`ShmTransport` carries 1 and 2; 3 rides the worker pipes. Both
bulk payloads are flat: the parameter and buffer
:class:`~repro.nn.layout.Layout` tables are fixed at :meth:`ShmTransport.setup`
(before the fork, so every worker holds them), and a broadcast or a result
is then the ``P`` parameter floats followed by the ``B`` buffer floats —
one gather into the arena, no per-message header or offset table. The
broadcast is written **once** into a ``multiprocessing.shared_memory``
arena behind a magic/version/generation preamble that all workers map
read-only and zero-copy; each worker returns its results through its own
arena of ``P + B``-float slots, one per client it owns.

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
(parent→worker) or ``results`` (worker→parent).
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
import pickle
import secrets
import struct
import time
from typing import TYPE_CHECKING, Any

import numpy as np

from ..nn.layout import Layout
from ..obs.profile import NULL_PROFILER
from .shard import shard_bounds, weighted_segment_sum

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
    :meth:`decode_results` / :meth:`decode_capture` per round, and
    :meth:`close` on pool shutdown. Workers call :meth:`worker_init` first
    thing and then only the ``read_broadcast`` / ``encode_*`` /
    ``reduce_shards`` half.

    Layout per pool:

    * one *broadcast arena*: ``[magic|version|generation]`` preamble, then
      the ``P + B`` floats of the global parameters and buffers. The
      parent rewrites it once per round and bumps the generation counter;
      workers verify the generation from the round message before mapping
      it zero-copy and read-only.
    * one *result arena per worker*: a ``P + B``-float slot per owned
      client (every owned client returns at most one result per round).
      Result ``k`` of a reply sits in slot ``k``; only the stripped
      scalars go down the pipe.
    * with ``shards``, one *reduce arena* of ``P`` floats: each shard
      owner writes its index range of the weighted average there (see
      :mod:`repro.runtime.shard`).

    Checkpoint captures ride the result arenas: the worker's ``{cid:
    blob}`` map — each client already one :mod:`~repro.persist.snapshot`
    byte string, never a dict tree — goes into its result arena and just
    the length comes back down the pipe.
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
        self._reduce: _Arena | None = None
        self._shards: int | None = None
        #: ``{client_id: (worker, slot)}`` for results whose updates were
        #: left in the worker arenas this round (sharded mode only).
        self._pending_updates: dict[int, tuple[int, int]] = {}
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

    def count(self, name: str, inc: float, *, mirror: bool = True) -> None:
        """Accumulate into ``stats``; ``mirror=True`` also bumps the
        recorder counter. Only *deterministic* series may mirror — the
        resume oracle (:mod:`repro.persist`) asserts recorder counters are
        identical between an uninterrupted run and a crash-resumed one, so
        traffic that depends on checkpoint cadence (captures) or on wall
        time must stay local to ``stats``."""
        self.stats[name] = self.stats.get(name, 0) + inc
        if mirror and self._recorder is not None:
            self._recorder.counter(name, inc)

    def count_pipe(self, direction: str, nbytes: int, *, mirror: bool = True) -> None:
        """Pipe traffic is metered by the executor (it owns the pipes)."""
        self.count(ipc_bytes_counter("pipe", direction), nbytes, mirror=mirror)

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
        """Worker ``worker``'s result arena as ``(owned, P + B)`` rows."""
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
        self,
        state: dict[str, np.ndarray],
        buffers: dict[str, np.ndarray],
        owned_counts: list[int],
        shards: int | None = None,
    ) -> None:
        """Fix the layouts and allocate (and reserve) the pool's arenas
        before the workers fork.

        ``owned_counts[w]`` is the number of clients worker ``w`` owns —
        the upper bound on results it can return per round. ``shards``
        switches on sharded-aggregation mode: a reduce arena is allocated
        and result updates are left in the worker arenas for the shard
        owners to reduce in place (see :mod:`repro.runtime.shard`).
        Raises whatever arena creation raises (``OSError(ENOSPC)`` when
        ``/dev/shm`` cannot hold the pool) with every segment created so
        far already unlinked.
        """
        token = secrets.token_hex(4)
        prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{token}"
        self._layout = Layout.of_arrays(state)
        self._buffer_layout = Layout.of_arrays(buffers)
        slot_bytes = 4 * self._slot_floats
        self._shards = shards
        try:
            self._broadcast = _Arena(f"{prefix}-b", _ARENA_DATA_OFFSET + slot_bytes)
            _SHM_HEADER.pack_into(
                self._broadcast.buf, 0, _SHM_MAGIC, _SHM_VERSION, 0, 0
            )
            self._capacity = [max(1, owned) for owned in owned_counts]
            for w, slots in enumerate(self._capacity):
                self._results.append(_Arena(f"{prefix}-r{w}", max(1, slots * slot_bytes)))
            if shards is not None:
                # Created pre-fork like everything else, so every shard
                # owner inherits it (and every worker's result arena).
                self._reduce = _Arena(f"{prefix}-s", max(1, 4 * self._layout.size))
        except BaseException:
            self.close()
            raise
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def broadcast(
        self, state: dict[str, np.ndarray], buffers: dict[str, np.ndarray]
    ) -> int:
        """Stage one round's global model; returns the generation, the
        (small) extra that rides the round control message to every
        worker."""
        assert self._broadcast is not None, "setup() must run before broadcast()"
        t0 = time.perf_counter()
        self._pending_updates = {}  # last round's refs are now stale
        with self._profiler.phase("pack"):
            self._generation += 1
            payload = self._payload()
            p = self._layout.size
            self._layout.flatten(state, out=payload[:p])
            self._buffer_layout.flatten(buffers, out=payload[p:], what="buffer_dict")
            del payload  # release the exported buffer so the arena can be unmapped
            _SHM_HEADER.pack_into(
                self._broadcast.buf, 0, _SHM_MAGIC, _SHM_VERSION, 0, self._generation
            )
        self.add_broadcast_seconds(time.perf_counter() - t0)
        self.count(ipc_bytes_counter("shm", "broadcast"), 4 * self._slot_floats)
        return self._generation

    def decode_results(self, worker: int, payload: Any) -> "list[ClientRoundResult]":
        """Recover a worker's result batch from its reply payload: result
        ``k`` is the stripped scalars plus slot ``k`` of its arena."""
        slots = self._slots(worker)
        p = self._layout.size
        for k, result in enumerate(payload):
            if self._shards is not None:
                # Sharded mode: leave the update where the worker wrote it
                # — the shard owners reduce it in place. Buffers still come
                # out here (they aggregate serially in the parent).
                self._pending_updates[result.client_id] = (worker, k)
                result.buffers = self._buffer_layout.views(slots[k, p:].copy())
            else:
                result.update, result.buffers = self._split(slots[k].copy())
        del slots
        if payload:
            self.count(
                ipc_bytes_counter("shm", "results"), 4 * self._slot_floats * len(payload)
            )
        return payload

    # -- sharded aggregation (parent half) -----------------------------
    def pending_update_refs(self) -> dict[int, tuple[int, int]]:
        """This round's deferred update locations (sharded mode only)."""
        return self._pending_updates

    def hydrate_updates(self, results: "list[ClientRoundResult]") -> None:
        """Copy deferred updates out of the arenas onto their results — for
        when the sharded reduce cannot run (a worker died) and the serial
        oracle aggregates instead."""
        for result in results:
            ref = self._pending_updates.get(result.client_id)
            if ref is not None and not result.update:
                worker, k = ref
                result.update, _ = self._split(self._slots(worker)[k].copy())

    def reduced_update(self) -> dict[str, np.ndarray]:
        """Root of the reduction tree: the shard owners wrote every index
        range of the weighted average into one vector — copy it out."""
        reduced = np.ndarray(
            (self._layout.size,), dtype=np.float32, buffer=self._reduce.buf
        ).copy()
        return self._layout.views(reduced)

    def decode_capture(self, worker: int, payload: Any) -> Any:
        """Recover a worker's checkpoint snapshot from its reply payload."""
        kind, ref = payload
        if kind == "inline":
            return ref
        nbytes = ref
        arena = self._results[worker]
        snapshot = pickle.loads(bytes(arena.buf[:nbytes]))
        # Capture traffic depends on checkpoint cadence, so it must not
        # mirror into the recorder counters (see count()).
        self.count(ipc_bytes_counter("shm", "capture"), nbytes, mirror=False)
        return snapshot

    def segment_names(self) -> list[str]:
        """The ``/dev/shm`` names this pool owns (for leak checks)."""
        arenas = [*self._results, self._reduce, self._broadcast]
        return [a.name for a in arenas if a is not None]

    def close(self) -> None:
        """Unlink the arenas. Idempotent; a no-op outside the creating
        process."""
        if self._closed or os.getpid() != self._creator_pid:
            # Workers (and any other inheritor) must never unlink the
            # creator's segments; their mappings die with the process.
            return
        self._closed = True
        for arena in [*self._results, self._reduce, self._broadcast]:
            if arena is not None:
                arena.destroy()
        self._results = []
        self._capacity = []
        self._reduce = None
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

    def read_broadcast(
        self, generation: int
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Recover the round's global (state, buffers) in the worker, as
        read-only views into the broadcast arena."""
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
        return self._split(payload)

    def encode_results(self, results: "list[ClientRoundResult]") -> Any:
        """Stage a worker's result batch — result ``k`` into slot ``k`` —
        and return the stripped results, the reply payload."""
        import dataclasses

        assert self._worker_index is not None
        slots = self._slots(self._worker_index)
        if len(results) > len(slots):
            raise RuntimeError(
                f"{len(results)} results for {len(slots)} owned-client slots"
            )
        p = self._layout.size
        payload = []
        for slot, result in zip(slots, results):
            self._layout.flatten(result.update, out=slot[:p])
            self._buffer_layout.flatten(result.buffers, out=slot[p:], what="buffer_dict")
            payload.append(dataclasses.replace(result, update={}, buffers={}))
        del slots
        return payload

    def encode_capture(self, snapshot: Any) -> Any:
        """Stage a worker's checkpoint snapshot; returns the reply payload."""
        assert self._worker_index is not None
        arena = self._results[self._worker_index]
        blob = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        if len(blob) > arena.size:
            return ("inline", snapshot)
        arena.buf[: len(blob)] = blob
        return ("shm_pickle", len(blob))

    def reduce_shards(
        self,
        shard_indices: list[int],
        weights: np.ndarray,
        refs: list[tuple[int, int]],
    ) -> int:
        """Level 1 of the reduction tree, run inside a shard owner.

        ``refs`` locates each collected client's update — ``(worker,
        slot)`` in **collected order**, which with the float64 pinning in
        :func:`~repro.runtime.shard.weighted_segment_sum` is what keeps the
        result bitwise equal to the serial reduce. Each owned shard's index
        range is reduced into the same range of the reduce arena. Returns
        the float32 bytes written.
        """
        bounds = shard_bounds(self._layout.size, self._shards)
        # Zero-copy rows; every worker inherited all result arenas pre-fork.
        slots = [self._slots(w) for w in range(len(self._results))]
        out = np.ndarray((self._layout.size,), dtype=np.float32, buffer=self._reduce.buf)
        written = 0
        try:
            for k in shard_indices:
                lo, hi = bounds[k], bounds[k + 1]
                out[lo:hi] = weighted_segment_sum(
                    weights, [slots[w][slot, lo:hi] for w, slot in refs]
                )
                written += 4 * (hi - lo)
        finally:
            del out, slots  # release the exported arena buffers
        return written
