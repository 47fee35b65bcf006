"""The client pager: the one population every run keeps its clients in.

:class:`LazyClientPopulation` is what ``FederatedSimulator.clients`` is:
executors index it by cid, call ``len()`` and page a chunk in at once, and
behind that interface a :class:`ResidentClientCache` builds each client the
first time a round selects it and keeps at most ``capacity`` of them live.
``--population eager`` is an unbounded capacity — nothing is ever evicted —
and ``lazy:cache=N`` bounds it at N.

Eviction must not lose state, so it is capture-before-release, in two
steps:

1. :func:`capture_blob` — written straight from the client's fields,
   no dict tree built — batch-stream + speed-trace RNG
   state, the replica's layer RNG when the model has dropout, and what a
   strategy or the wire layer keeps on the client (FedCA profiled curves,
   compression codec residuals/RNG), as one
   :mod:`~repro.persist.snapshot` blob. The client is the one home of
   cross-round state about it — parameters, buffers and optimizer are
   rebuilt from the broadcast every round — so dropping it drops all of
   that with it;
2. ``factory.release(client)`` — the slot, not the client, owns the model
   replica: the ``create`` that refills the slot takes it instead of
   building one, so a run builds at most ``capacity`` + 1 replicas however
   many clients it pages (the evicted client object is dead afterwards).

A parked client is that one ``bytes`` object and nothing else — about
400 B for a FedAvg client over a 16-sample shard, where the dict tree it
encodes is ~4 KB of Python objects — and most of a large population that
has been touched at all is parked, so this is what ``cache=N`` costs in
the long run (``snapshot_bytes``; DESIGN.md §15). The blob is never
re-expanded while the client is away: a checkpoint writes it as it is and
a resume stages it back as it is (:meth:`ResidentClientCache.seed_snapshot`
— so the ``capacity`` bound holds right after a resume too).

Rehydration inverts eviction: ``factory.create(cid)`` rebuilds the initial
client bit-identically from ``(seed, cid)``, then :func:`restore_blob`
applies the blob on top. A client that was never evicted and one that round-tripped
through eviction are therefore indistinguishable — byte-for-byte — which is
why the capacity never changes a history or a trace.

Every resident is treated as dirty: the simulator only indexes clients it
is about to run, so an acquire implies mutation and eviction always
snapshots. This forgoes a clean-eviction fast path in exchange for never
tracking dirtiness wrongly.
"""

from __future__ import annotations

import operator
import resource
import sys
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable, Sequence

import numpy as np

from ..persist.errors import CheckpointCorruptError
from ..persist.snapshot import decode_node, encode, encode_to, record_head
from ..data import BatchStream
from ..rngstate import RNG_STATE_BYTES
from ..runtime.client import SimClient
from ..sysmodel import SpeedTrace

if TYPE_CHECKING:
    from ..obs.recorder import Recorder
    from .population import ClientFactory

__all__ = [
    "DEFAULT_CACHE_CLIENTS",
    "ResidentClientCache",
    "LazyClientPopulation",
    "capture_blob",
    "restore_blob",
]

#: Default resident-set bound. Sized for ~10× a typical selected cohort so
#: re-selected clients usually hit; override via ``--population lazy:cache=N``.
DEFAULT_CACHE_CLIENTS = 64


def _process_rss_bytes() -> int:
    """Peak resident-set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS. Reading rusage
    is not in the determinism lint's wall-clock set and never enters
    history or trace bytes — it only feeds a gauge.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


_CLIENT = record_head("stream", "trace")
_STREAM = record_head(*BatchStream.SNAPSHOT_KEYS)
_TRACE = record_head(*SpeedTrace.SNAPSHOT_KEYS)
_RNG = encode(bytes(RNG_STATE_BYTES))[:-RNG_STATE_BYTES]  # a generator state's tag and length


def capture_blob(client: SimClient) -> bytes:
    """The client's cross-round state as one snapshot blob, written from the
    fields, no tree: the one capture path of an eviction, a checkpoint and a
    drain."""
    rng, order, cursor = client.stream.snapshot_values()
    trace_rng, segments, horizon, next_fast = client.trace.snapshot_values()
    extra = client.extra_state()
    keys = record_head("stream", "trace", *(key for key, _ in extra)) if extra else _CLIENT
    parts = [keys[0], _STREAM[0], _RNG, rng, _STREAM[1]]
    put = parts.append
    encode_to(order, put)
    put(_STREAM[2])
    encode_to(cursor, put)
    parts += (keys[1], _TRACE[0], _RNG, trace_rng, _TRACE[1])
    encode_to(segments, put)
    put(_TRACE[2])
    encode_to(horizon, put)
    put(_TRACE[3])
    encode_to(next_fast, put)
    for key, (_, value) in zip(keys[2:], extra):
        put(key)
        encode_to(value, put)
    return b"".join(parts)


# What capture_blob puts before each value past the key count; optional keys.
_FIELDS = (_CLIENT[0][5:] + _STREAM[0], *_STREAM[1:], _CLIENT[1] + _TRACE[0], *_TRACE[1:])
_EXTRA = tuple(zip(("model_rng", "kept"), record_head("", "model_rng", "kept")[1:]))


def restore_blob(client: SimClient, blob: bytes) -> None:
    """Inverse of :func:`capture_blob`, each value decoded where it put it
    (no tree) and checked where it is applied, as checkpoint input: a key
    out of its order or count is a :class:`CheckpointCorruptError`."""
    count = int.from_bytes(blob[1:5], "little") if blob[:1] == b"d" and len(blob) > 4 else 0
    values, pos = [], 5
    for literal in _FIELDS if count >= 2 else ():
        if not blob.startswith(literal, pos):
            break
        value, pos = decode_node(blob, pos + len(literal))
        values.append(value)
    extra: dict = {}
    for key, literal in _EXTRA:
        if len(extra) < count - 2 and blob.startswith(literal, pos):
            extra[key], pos = decode_node(blob, pos + len(literal))
    if len(values) < len(_FIELDS) or len(extra) != count - 2 or pos != len(blob):
        raise CheckpointCorruptError(f"client snapshot leaves its record layout at offset {pos}")
    rng, order, cursor, trace_rng, segments, horizon, next_fast = values
    client.stream.restore_values(rng, order, cursor)
    segments = np.asarray(segments, dtype=np.float64).reshape(-1, 3)
    client.trace.restore_values(trace_rng, segments, horizon, next_fast)
    client.restore_extra(extra)


class ResidentClientCache:
    """LRU cache of live clients keyed by cid, with snapshot spill.

    ``_snapshots[cid]`` holds the :func:`capture_blob` of every
    client that has state but is not resident — one ``bytes`` object each,
    ``snapshot_bytes`` in total; a cid in neither map is still in its
    initial (round-zero) state and needs no snapshot at all — this is what
    keeps memory flat in total-client count. ``capacity`` may be
    ``math.inf``: room for everyone, never an eviction.
    """

    def __init__(self, factory: "ClientFactory", capacity: float) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.factory = factory
        self.capacity = capacity
        self._residents: OrderedDict[int, SimClient] = OrderedDict()
        self._snapshots: dict[int, bytes] = {}
        self._staged: set[int] = set()  # parked by a resume: no rehydration
        self.snapshot_bytes = 0
        self.evictions = 0
        self.rehydrations = 0
        self.creations = 0

    def reserve(self, n: int) -> None:
        """Grow capacity to at least ``n`` resident clients.

        Executors that hold several clients live at once (a cohort chunk)
        declare their working-set floor through this; evicting an in-use
        client mid-round would snapshot stale state.
        """
        if n > self.capacity:
            self.capacity = n

    def __len__(self) -> int:
        return len(self._residents)

    @property
    def parked_clients(self) -> int:
        """Clients held as a snapshot rather than live."""
        return len(self._snapshots)

    def acquire(self, cid: int) -> SimClient:
        """Return the live client for ``cid``, paging it in if needed. A
        parked blob that :func:`restore_blob` refuses stays parked, as it
        was, and every acquire of ``cid`` raises the same error."""
        client = self._residents.get(cid)
        if client is not None:
            self._residents.move_to_end(cid)
            return client
        while len(self._residents) >= self.capacity:
            self._evict_one()
        client = self.factory.create(cid)
        self.creations += 1
        blob = self._snapshots.get(cid)
        if blob is not None:
            try:
                restore_blob(client, blob)
            except BaseException:
                self.factory.release(client)
                raise
            del self._snapshots[cid]
            self.snapshot_bytes -= len(blob)
            if cid not in self._staged:
                self.rehydrations += 1
            self._staged.discard(cid)
        self._residents[cid] = client
        return client

    def acquire_chunk(self, cids: Sequence[int]) -> list[SimClient]:
        """Page a whole chunk in: touch its residents first — so the misses'
        evictions, least recent first, never reach a member while the cache
        holds the chunk — derive the misses' seeds in one pass (those
        :meth:`LazyClientPopulation.prefetch` has not), page their shards
        in as one batch, then :meth:`acquire` each."""
        misses = []
        for cid in cids:
            if cid in self._residents:
                self._residents.move_to_end(cid)
            else:
                misses.append(cid)
        self.factory.derive(misses)
        self.factory.page(misses)
        return [self.acquire(cid) for cid in cids]

    def _evict_one(self) -> None:
        cid, client = self._residents.popitem(last=False)
        self._park(cid, capture_blob(client))
        self.factory.release(client)
        self.evictions += 1

    def _park(self, cid: int, blob: bytes) -> None:
        self.snapshot_bytes += len(blob) - len(self._snapshots.get(cid, b""))
        self._snapshots[cid] = blob

    # ------------------------------------------------------------------
    # Checkpoint integration
    # ------------------------------------------------------------------
    def seed_snapshot(self, cid: int, blob: bytes) -> None:
        """Park ``blob`` as client ``cid``'s kept state — still encoded —
        without materialising the client, dropping a resident copy; it is
        decoded and applied when (and if) the client pages in. A resume
        stages its checkpointed blobs this way, a parallel worker the blobs
        its jobs carry, and the parallel parent the blobs its workers
        return."""
        client = self._residents.pop(cid, None)
        if client is not None:
            self.factory.release(client)
        self._park(cid, blob)
        self._staged.add(cid)

    def capture_run_state(
        self, client_ids: "Iterable[int] | None" = None
    ) -> dict[int, bytes]:
        """``{cid: encoded snapshot}`` of every client (among ``client_ids``,
        when given) that has diverged from its initial state.

        Residents are captured and encoded live; an evicted client's entry
        is the pager's own blob, passed through undecoded. Untouched clients
        are deterministic from ``(seed, cid)`` and need no entry.
        """
        if client_ids is None:
            client_ids = sorted(set(self._residents) | set(self._snapshots))
        return {
            cid: capture_blob(self._residents[cid])
            if cid in self._residents
            else self._snapshots[cid]
            for cid in client_ids
            if cid in self._residents or cid in self._snapshots
        }

    def drain(self) -> dict[int, bytes]:
        """Hand over every client's kept state, ``{cid: blob}``, and hold
        nothing afterwards: residents are captured and released, parked
        blobs given up. A parallel worker ends each round this way."""
        blobs = self.capture_run_state()
        for client in self._residents.values():
            self.factory.release(client)
        self._residents.clear()
        self._snapshots.clear()
        self._staged.clear()
        self.snapshot_bytes = 0
        return blobs


class LazyClientPopulation:
    """Sequence-of-clients facade over a :class:`ResidentClientCache`.

    Supports exactly the access patterns the runtime uses — ``len()``,
    indexing by cid (any integer, NumPy's included) and
    :meth:`acquire_chunk`. Iteration is refused on purpose: iterating would
    materialise every client, which is the O(total clients) cost the pager
    exists to avoid; any code path that tries is a bug to fix, not a
    slowdown to tolerate.
    """

    def __init__(
        self, factory: "ClientFactory", capacity: float = DEFAULT_CACHE_CLIENTS
    ) -> None:
        self.factory = factory
        self.cache = ResidentClientCache(factory, capacity)
        self._mirrored_evictions = 0
        self._mirrored_rehydrations = 0

    def __len__(self) -> int:
        return self.factory.num_clients

    def __getitem__(self, cid: int) -> SimClient:
        cid = operator.index(cid)  # a TypeError for anything but an integer
        if not 0 <= cid < self.factory.num_clients:
            raise IndexError(f"cid {cid} out of range")
        return self.cache.acquire(cid)

    def prefetch(self, cids: Sequence[int]) -> None:
        """Derive the seeds of every one of ``cids`` not resident now in one
        batch, ahead of the chunks that page them in; a resident evicted
        before its chunk derives there."""
        self.factory.derive([cid for cid in cids if cid not in self.cache._residents])

    def acquire_chunk(self, cids: Sequence[int]) -> list[SimClient]:
        """The clients of one engine chunk, paged in together
        (:meth:`ResidentClientCache.acquire_chunk`)."""
        return self.cache.acquire_chunk(cids)

    def __iter__(self) -> Any:
        raise TypeError(
            "iterating a LazyClientPopulation would materialise every client; "
            "index by cid instead"
        )

    # ------------------------------------------------------------------
    @property
    def resident_capacity(self) -> float:
        """How many clients are live at once (``math.inf``: everyone); an
        engine that holds several (a chunk) sizes itself to this."""
        return self.cache.capacity

    def reserve(self, n: int) -> None:
        self.cache.reserve(n)

    def capture_run_state(
        self, client_ids: "Iterable[int] | None" = None
    ) -> dict[int, bytes]:
        return self.cache.capture_run_state(client_ids)

    # ------------------------------------------------------------------
    def mirror_metrics(self, recorder: "Recorder") -> None:
        """Emit paging counters (as deltas) and residency/RSS gauges.

        Counters and gauges never enter history or trace bytes, so runs at
        every capacity stay byte-identical on everything CI compares.
        Paging counts are engine-dependent (each parallel worker pages its
        own cache copy; the parent's only parks the blobs they return) and
        are not checkpointed, so they reset across resume — they are
        operational telemetry, not part of the deterministic record. A
        staged blob (a resume's, or one a parallel job carried or returned)
        is not counted as a rehydration when it pages in: nothing was
        evicted.
        """
        delta_evictions = self.cache.evictions - self._mirrored_evictions
        if delta_evictions:
            recorder.counter("repro_population_evictions_total", delta_evictions)
            self._mirrored_evictions = self.cache.evictions
        delta_rehydrations = self.cache.rehydrations - self._mirrored_rehydrations
        if delta_rehydrations:
            recorder.counter(
                "repro_population_rehydrations_total", delta_rehydrations
            )
            self._mirrored_rehydrations = self.cache.rehydrations
        recorder.gauge("repro_resident_clients", float(len(self.cache)))
        recorder.gauge(
            "repro_population_parked_clients", float(self.cache.parked_clients)
        )
        recorder.gauge(
            "repro_population_snapshot_bytes", float(self.cache.snapshot_bytes)
        )
        recorder.gauge("repro_population_rss_bytes", float(_process_rss_bytes()))
