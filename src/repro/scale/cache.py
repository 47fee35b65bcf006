"""Bounded resident-client cache: the paging half of the scale subsystem.

:class:`LazyClientPopulation` is a drop-in stand-in for the simulator's
eager ``list[SimClient]``: executors index it by cid and call ``len()``,
and behind that interface a :class:`ResidentClientCache` keeps at most
``capacity`` live :class:`~repro.runtime.client.SimClient` objects.

Eviction must not lose state, so it is capture-before-release, in two
steps:

1. ``encode(client.capture_state())`` — batch-stream + speed-trace RNG
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
a resume seeds it back as it is (:meth:`ResidentClientCache.seed_snapshot`
— so the ``capacity`` bound holds right after a resume too).

Rehydration inverts eviction: ``factory.create(cid)`` rebuilds the initial
client bit-identically from ``(seed, cid)``, then the decoded snapshot is
restored on top. A client that was never evicted and one that round-tripped
through eviction are therefore indistinguishable — byte-for-byte — which is
what keeps lazy histories identical to eager ones.

Every resident is treated as dirty: the simulator only indexes clients it
is about to run, so an acquire implies mutation and eviction always
snapshots. This forgoes a clean-eviction fast path in exchange for never
tracking dirtiness wrongly.
"""

from __future__ import annotations

import resource
import sys
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..persist.snapshot import decode, encode
from ..runtime.client import SimClient

if TYPE_CHECKING:
    from ..obs.recorder import Recorder
    from .population import ClientFactory

__all__ = [
    "DEFAULT_CACHE_CLIENTS",
    "ResidentClientCache",
    "LazyClientPopulation",
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


class ResidentClientCache:
    """LRU cache of live clients keyed by cid, with snapshot spill.

    ``_snapshots[cid]`` holds the encoded ``capture_state()`` of every
    client that has state but is not resident — one ``bytes`` object each,
    ``snapshot_bytes`` in total; a cid in neither map is still in its
    initial (round-zero) state and needs no snapshot at all — this is what
    keeps memory flat in total-client count.
    """

    def __init__(self, factory: "ClientFactory", capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.factory = factory
        self.capacity = capacity
        self._residents: OrderedDict[int, SimClient] = OrderedDict()
        self._snapshots: dict[int, bytes] = {}
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
        """Return the live client for ``cid``, paging it in if needed."""
        client = self._residents.get(cid)
        if client is not None:
            self._residents.move_to_end(cid)
            return client
        while len(self._residents) >= self.capacity:
            self._evict_one()
        client = self.factory.create(cid)
        self.creations += 1
        blob = self._snapshots.pop(cid, None)
        if blob is not None:
            self.snapshot_bytes -= len(blob)
            client.restore_state(decode(blob))
            self.rehydrations += 1
        self._residents[cid] = client
        return client

    def acquire_chunk(self, cids: Sequence[int]) -> list[SimClient]:
        """Page a whole chunk in: touch its residents first — so the misses'
        evictions, least recent first, never reach a member while the cache
        holds the chunk — derive the misses' seeds in one pass, then
        :meth:`acquire` each."""
        misses = []
        for cid in cids:
            if cid in self._residents:
                self._residents.move_to_end(cid)
            else:
                misses.append(cid)
        self.factory.derive(misses)
        return [self.acquire(cid) for cid in cids]

    def _evict_one(self) -> None:
        cid, client = self._residents.popitem(last=False)
        self._park(cid, encode(client.capture_state()))
        self.factory.release(client)
        self.evictions += 1

    def _park(self, cid: int, blob: bytes) -> None:
        self.snapshot_bytes += len(blob) - len(self._snapshots.get(cid, b""))
        self._snapshots[cid] = blob

    # ------------------------------------------------------------------
    # Checkpoint integration
    # ------------------------------------------------------------------
    def seed_snapshot(self, cid: int, blob: bytes) -> None:
        """Install a checkpointed client snapshot — still encoded — without
        materialising the client; it is decoded and applied when (and if)
        the client pages in."""
        client = self._residents.pop(cid, None)
        if client is not None:
            self.factory.release(client)
        self._park(cid, blob)

    def capture_run_state(
        self, client_ids: "Iterable[int] | None" = None
    ) -> dict[int, bytes]:
        """``{cid: encoded snapshot}`` of every client (among ``client_ids``,
        when given) that has diverged from its initial state.

        Residents are captured and encoded live; an evicted client's entry
        is the pager's own blob, passed through undecoded. Untouched clients
        are deterministic from ``(seed, cid)`` and need no entry.
        """
        touched = set(self._residents) | set(self._snapshots)
        if client_ids is not None:
            touched &= set(client_ids)
        return {
            cid: encode(self._residents[cid].capture_state())
            if cid in self._residents
            else self._snapshots[cid]
            for cid in sorted(touched)
        }


class LazyClientPopulation:
    """Sequence-of-clients facade over a :class:`ResidentClientCache`.

    Supports exactly the access patterns the runtime uses — ``len()`` and
    integer indexing. Iteration is refused on purpose: iterating would
    materialise every client, which is the O(total clients) cost this
    subsystem exists to avoid; any code path that tries is a bug to fix,
    not a slowdown to tolerate.
    """

    def __init__(
        self, factory: "ClientFactory", capacity: int = DEFAULT_CACHE_CLIENTS
    ) -> None:
        self.factory = factory
        self.cache = ResidentClientCache(factory, capacity)
        self._mirrored_evictions = 0
        self._mirrored_rehydrations = 0

    def __len__(self) -> int:
        return self.factory.num_clients

    def __getitem__(self, cid: int) -> SimClient:
        if not isinstance(cid, int):
            raise TypeError("client populations index by integer cid only")
        if not 0 <= cid < self.factory.num_clients:
            raise IndexError(f"cid {cid} out of range")
        return self.cache.acquire(cid)

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
    def resident_capacity(self) -> int:
        """How many clients are live at once; an engine that holds several
        (a parallel worker's chunk) sizes itself to this."""
        return self.cache.capacity

    def reserve(self, n: int) -> None:
        self.cache.reserve(n)

    def capture_run_state(
        self, client_ids: "Iterable[int] | None" = None
    ) -> dict[int, bytes]:
        return self.cache.capture_run_state(client_ids)

    def restore_client_state(self, cid: int, blob: bytes) -> None:
        self.cache.seed_snapshot(cid, blob)

    # ------------------------------------------------------------------
    def mirror_metrics(self, recorder: "Recorder") -> None:
        """Emit paging counters (as deltas) and residency/RSS gauges.

        Counters and gauges never enter history or trace bytes, so lazy and
        eager runs stay byte-identical on everything CI compares. Paging
        counts are engine-dependent (each parallel worker pages its own
        cache copy; the parent's sits idle) and are not checkpointed, so
        they reset across resume — they are operational telemetry, not part
        of the deterministic record.
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
