"""The parallel executor's IPC transport.

:class:`~repro.runtime.parallel.ParallelExecutor` moves three kinds of data
between the parent and its persistent workers every round:

1. the global model broadcast (params + buffers) — large, identical for
   every worker;
2. the per-client :class:`~repro.runtime.round.ClientRoundResult` payloads
   (per-layer updates, buffer deltas) — large, one batch per worker;
3. control traffic (job lists, scalar stats, trace events, generation
   counters) — small.

:class:`ShmTransport` carries 1 and 2; 3 rides the worker pipes. The
broadcast is written **once** into a ``multiprocessing.shared_memory``
arena (versioned header + per-layer offset table, see
:func:`repro.nn.serialize.pack_state`) that all workers map read-only and
zero-copy, and each worker returns its result arrays through its own
result arena sized from the model fingerprint. One memcpy per round,
whatever the worker count.

Every arena reserves its pages at creation (see :class:`_Arena`), so a
``/dev/shm`` that cannot hold the pool fails :meth:`ShmTransport.setup`
with ``OSError(ENOSPC)`` — before any fork — and the executor degrades to
serial. Without the reservation tmpfs hands out sparse segments and the
shortfall surfaces later as a SIGBUS inside ``pack_state``.

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

from ..nn.serialize import (
    arena_entries,
    pack_state,
    packed_state_nbytes,
    unpack_state,
)
from ..obs.profile import NULL_PROFILER
from .shard import weighted_segment_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Recorder
    from .round import ClientRoundResult
    from .shard import ShardPlan

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
#: generation(u64). The packed state blocks start at _ARENA_DATA_OFFSET.
_SHM_MAGIC = b"RPROSHM1"
_SHM_VERSION = 1
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
    workers must inherit the arenas), :meth:`broadcast` /
    :meth:`decode_results` / :meth:`decode_capture` per round, and
    :meth:`close` on pool shutdown. Workers call :meth:`worker_init` first
    thing and then only the ``read_broadcast`` / ``encode_*`` /
    ``reduce_shards`` half.

    Layout per pool:

    * one *broadcast arena*: ``[magic|version|generation]`` preamble, then
      the packed global state block and (if the model has buffers) the
      packed buffer block. The parent rewrites it once per round and bumps
      the generation counter; workers verify the generation from the round
      message before mapping the blocks zero-copy and read-only.
    * one *result arena per worker*, sized from the model fingerprint
      (every owned client can return at most one full update + buffer
      delta per round). Workers pack result arrays sequentially and send
      only ``(offset, offset)`` references down the pipe; a result that
      ever outgrows the arena (e.g. a strategy returning extra payloads)
      falls back to inline pickling for just that result.

    Checkpoint captures ride the same arenas: the worker's ``{cid: blob}``
    map — each client already one :mod:`~repro.persist.snapshot` byte
    string, never a dict tree — goes into its result arena and just the
    length comes back down the pipe.
    """

    #: Per-block headroom over the model-fingerprint estimate, so header
    #: growth (longer names, dtype changes) never forces the inline path.
    _SLACK = 4096

    def __init__(self) -> None:
        self.stats: dict[str, float] = {}
        self._recorder: "Recorder | None" = None
        self._profiler = NULL_PROFILER
        self._worker_index: int | None = None
        self._broadcast: _Arena | None = None
        self._results: list[_Arena] = []
        self._shards: list[_Arena] = []
        self._shard_plan: "ShardPlan | None" = None
        #: ``{client_id: (worker, update_offset)}`` for results whose
        #: update payloads were left in the worker arenas this round
        #: (sharded-aggregation mode only).
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

    # -- parent half ---------------------------------------------------
    def setup(
        self,
        state: dict[str, np.ndarray],
        buffers: dict[str, np.ndarray],
        owned_counts: list[int],
        shard_plan: "ShardPlan | None" = None,
    ) -> None:
        """Allocate (and reserve) the pool's arenas before the workers fork.

        ``owned_counts[w]`` is the number of clients worker ``w`` owns —
        the upper bound on results it can return per round. ``shard_plan``
        switches on sharded-aggregation mode: per-shard reduce arenas are
        allocated and result updates are left in the worker arenas for the
        shard owners to reduce in place (see :mod:`repro.runtime.shard`).
        Raises whatever arena creation raises (``OSError(ENOSPC)`` when
        ``/dev/shm`` cannot hold the pool) with every segment created so
        far already unlinked.
        """
        token = secrets.token_hex(4)
        prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-{token}"
        state_nbytes = packed_state_nbytes(state)
        buffers_nbytes = packed_state_nbytes(buffers) if buffers else 0
        bsize = _ARENA_DATA_OFFSET + state_nbytes + buffers_nbytes + self._SLACK
        per_result = state_nbytes + buffers_nbytes + 512
        self._shard_plan = shard_plan
        try:
            self._broadcast = _Arena(f"{prefix}-b", bsize)
            _SHM_HEADER.pack_into(
                self._broadcast.buf, 0, _SHM_MAGIC, _SHM_VERSION, 0, 0
            )
            for w, owned in enumerate(owned_counts):
                rsize = max(1, owned) * per_result + self._SLACK
                self._results.append(_Arena(f"{prefix}-r{w}", rsize))
            if shard_plan is not None:
                # Per-shard reduce arenas, created pre-fork like everything
                # else so every worker inherits mappings to all of them
                # (shard owners read slices from *other* workers' result
                # arenas and write into their own shard arenas).
                for k in range(shard_plan.num_shards):
                    self._shards.append(
                        _Arena(f"{prefix}-s{k}", max(1, shard_plan.shard_nbytes(k)))
                    )
        except BaseException:
            self.close()
            raise
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True

    def broadcast(
        self, state: dict[str, np.ndarray], buffers: dict[str, np.ndarray]
    ) -> tuple[int, int, "int | None"]:
        """Stage one round's global model; returns the (small) extra that
        rides the round control message to every worker."""
        assert self._broadcast is not None, "setup() must run before broadcast()"
        t0 = time.perf_counter()
        self._pending_updates = {}  # last round's refs are now stale
        with self._profiler.phase("pack"):
            self._generation += 1
            state_off = _ARENA_DATA_OFFSET
            nbytes = pack_state(self._broadcast.buf, state, state_off)
            buffers_off = None
            total = nbytes
            if buffers:
                buffers_off = state_off + nbytes
                total += pack_state(self._broadcast.buf, buffers, buffers_off)
            _SHM_HEADER.pack_into(
                self._broadcast.buf, 0, _SHM_MAGIC, _SHM_VERSION, 0, self._generation
            )
        self.add_broadcast_seconds(time.perf_counter() - t0)
        self.count(ipc_bytes_counter("shm", "broadcast"), total)
        return (self._generation, state_off, buffers_off)

    def decode_results(self, worker: int, payload: Any) -> "list[ClientRoundResult]":
        """Recover a worker's result batch from its reply payload."""
        arena = self._results[worker]
        results = []
        shm_bytes = 0
        for kind, stripped, ref in payload:
            if kind == "inline":
                results.append(stripped)
                continue
            update_off, buffers_off, nbytes = ref
            if self._shard_plan is not None:
                # Sharded mode: leave the update where the worker packed
                # it — the shard owners will reduce it in place. Buffers
                # still come out eagerly (they aggregate serially in the
                # parent and are tiny next to the update).
                self._pending_updates[stripped.client_id] = (worker, update_off)
            else:
                stripped.update = unpack_state(arena.buf, update_off, copy=True)
            if buffers_off is not None:
                stripped.buffers = unpack_state(arena.buf, buffers_off, copy=True)
            shm_bytes += nbytes
            results.append(stripped)
        if shm_bytes:
            self.count(ipc_bytes_counter("shm", "results"), shm_bytes)
        return results

    # -- sharded aggregation (parent half) -----------------------------
    def pending_update_refs(self) -> dict[int, tuple[int, int]]:
        """This round's deferred update locations (sharded mode only)."""
        return self._pending_updates

    def update_names(self, client_id: int) -> list[str]:
        """Layer names of a deferred update, read from its arena header
        (no payload copied) — mirrors the serial key-set validation."""
        worker, update_off = self._pending_updates[client_id]
        return [
            name
            for name, _, _, _, _ in arena_entries(
                self._results[worker].buf, update_off
            )
        ]

    def hydrate_updates(self, results: "list[ClientRoundResult]") -> None:
        """Materialize deferred updates back onto their results.

        The serial-fallback path: when the sharded reduce cannot run
        (inline result, degraded pool, worker crash), the parent copies
        the updates out of the arenas and aggregation proceeds exactly
        as in non-sharded mode."""
        for result in results:
            ref = self._pending_updates.get(result.client_id)
            if ref is not None and not result.update:
                worker, update_off = ref
                result.update = unpack_state(
                    self._results[worker].buf, update_off, copy=True
                )

    def assemble_reduced(self) -> dict[str, np.ndarray]:
        """Root of the reduction tree: concatenate the reduced shards
        back into layer tensors, in fingerprint order."""
        plan = self._shard_plan
        assert plan is not None
        shard_views = []
        for k, arena in enumerate(self._shards):
            shard_views.append(
                np.ndarray(
                    (plan.shard_scalars(k),), dtype=np.float32, buffer=arena.buf
                )
            )
        update: dict[str, np.ndarray] = {}
        by_layer = plan.segments_by_layer()
        try:
            for name, shape, size in plan.layers:
                flat = np.empty((size,), dtype=np.float32)
                for k, seg in by_layer[name]:
                    flat[seg.start : seg.stop] = shard_views[k][
                        seg.shard_offset : seg.shard_offset + seg.size
                    ]
                update[name] = flat.reshape(shape)
        finally:
            del shard_views  # release exported arena buffers
        return update

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
        names = [a.name for a in self._results]
        names.extend(a.name for a in self._shards)
        if self._broadcast is not None:
            names.append(self._broadcast.name)
        return names

    def close(self) -> None:
        """Unlink the arenas. Idempotent; a no-op outside the creating
        process."""
        if self._closed or os.getpid() != self._creator_pid:
            # Workers (and any other inheritor) must never unlink the
            # creator's segments; their mappings die with the process.
            return
        self._closed = True
        for arena in self._results:
            arena.destroy()
        for arena in self._shards:
            arena.destroy()
        if self._broadcast is not None:
            self._broadcast.destroy()
        self._results = []
        self._shards = []
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
        self, extra: tuple[int, int, "int | None"]
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Recover the round's global (state, buffers) in the worker."""
        generation, state_off, buffers_off = extra
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
        state = unpack_state(self._broadcast.buf, state_off, copy=False)
        buffers = (
            {}
            if buffers_off is None
            else unpack_state(self._broadcast.buf, buffers_off, copy=False)
        )
        return state, buffers

    def encode_results(self, results: "list[ClientRoundResult]") -> Any:
        """Stage a worker's result batch; returns the reply payload."""
        import dataclasses

        assert self._worker_index is not None
        arena = self._results[self._worker_index]
        payload = []
        cursor = 0
        for result in results:
            need = packed_state_nbytes(result.update)
            buf_need = packed_state_nbytes(result.buffers) if result.buffers else 0
            if cursor + need + buf_need > arena.size:
                # Shouldn't happen with fingerprint sizing, but a strategy
                # returning oversized payloads degrades gracefully to the
                # pipe for this result only.
                payload.append(("inline", result, None))
                continue
            update_off = cursor
            nbytes = pack_state(arena.buf, result.update, update_off)
            cursor = update_off + nbytes
            buffers_off = None
            if result.buffers:
                buffers_off = cursor
                cursor += pack_state(arena.buf, result.buffers, buffers_off)
            stripped = dataclasses.replace(result, update={}, buffers={})
            payload.append(
                ("shm", stripped, (update_off, buffers_off, cursor - update_off))
            )
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

        ``refs`` locates each collected client's packed update —
        ``(worker, update_offset)`` in **collected order**, which with
        the float64 pinning in :func:`~repro.runtime.shard.
        weighted_segment_sum` is what keeps the result bitwise equal to
        the serial reduce. Returns the float32 bytes written into this
        owner's shard arenas.
        """
        plan = self._shard_plan
        assert plan is not None
        # One zero-copy flat view per (client, layer); every worker
        # inherited mappings to all result arenas pre-fork.
        flats = []
        for worker, update_off in refs:
            views = unpack_state(
                self._results[worker].buf, update_off, copy=False
            )
            flats.append({name: arr.reshape(-1) for name, arr in views.items()})
        written = 0
        try:
            for k in shard_indices:
                out = np.ndarray(
                    (plan.shard_scalars(k),),
                    dtype=np.float32,
                    buffer=self._shards[k].buf,
                )
                try:
                    for seg in plan.shards[k]:
                        out[seg.shard_offset : seg.shard_offset + seg.size] = (
                            weighted_segment_sum(
                                weights,
                                [f[seg.layer][seg.start : seg.stop] for f in flats],
                            )
                        )
                finally:
                    del out  # release the exported shard-arena buffer
                written += plan.shard_nbytes(k)
        finally:
            flats = None  # drop the result-arena views before returning
        return written
