"""Deterministic client reconstruction from ``(seed, cid, partition spec)``.

The eager simulator builds every :class:`~repro.runtime.client.SimClient`
up front — O(total clients) memory and setup even when a round touches 50
of them. This module holds the *recipe* half of the lazy-population scale
subsystem (DESIGN.md §15): a :class:`PopulationSpec` bundles everything a
client's construction depends on, and a :class:`ClientFactory` rebuilds
any client on demand, bit-identical to the client the eager loop would
have produced.

Shard access goes through a :class:`ShardProvider`:

* :class:`MaterializedShards` wraps an already-built shard list (the
  eager path, and the lazy path's bitwise-identity mode);
* :class:`LazyDirichletShards` replays the paper's Dirichlet partition
  for one client at a time (:func:`~repro.data.partition.dirichlet_client_indices`);
* :class:`SubsampledShards` is the cross-device partition for populations
  far larger than the dataset — each client holds a per-cid seeded sample
  of a fixed base pool, so a million clients store O(1) each.

Seed derivation
---------------
The eager loop spawns per-client seeds as ``SeedSequence(seed).spawn(N)[cid]``.
:meth:`ClientFactory.client_seeds` uses the equivalent direct form
``SeedSequence(seed, spawn_key=(cid,))`` — NumPy defines ``spawn`` as
exactly this construction, so the derived speed-trace and batch-stream
seeds are identical without touching the other ``N − 1`` children.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..data import Dataset
from ..data.partition import dirichlet_client_indices, dirichlet_shard_sizes
from ..nn import Module
from ..runtime.client import SimClient
from ..sysmodel import LinkModel, SpeedTrace
from ..sysmodel.speed import GAMMA_FAST, GAMMA_SLOW, SLOWDOWN_RANGE

__all__ = [
    "ShardProvider",
    "MaterializedShards",
    "LazyDirichletShards",
    "SubsampledShards",
    "PopulationSpec",
    "ClientFactory",
    "as_shard_provider",
]

#: Domain-separation tag for :class:`SubsampledShards` per-cid draws.
_SUBSAMPLE_SEED_TAG = 0x5D

#: Bound on :meth:`ClientFactory.base_pace`'s memo of a callable pace — a
#: round's selection is asked twice (deadline estimate, then ``create``).
_PACE_MEMO_MAX = 1024


@runtime_checkable
class ShardProvider(Protocol):
    """Per-client training-data source the factory pulls shards from."""

    def __len__(self) -> int:
        """Total number of clients in the population."""

    def shard(self, cid: int) -> Dataset:
        """Materialise client ``cid``'s local dataset."""

    def shard_size(self, cid: int) -> int:
        """Sample count of client ``cid``'s shard without materialising it."""


class MaterializedShards:
    """Adapter over an already-built shard list (the eager data path)."""

    def __init__(self, shards: Sequence[Dataset]) -> None:
        self._shards = list(shards)

    def __len__(self) -> int:
        return len(self._shards)

    def shard(self, cid: int) -> Dataset:
        return self._shards[cid]

    def shard_size(self, cid: int) -> int:
        return len(self._shards[cid])


class LazyDirichletShards:
    """The paper's Dirichlet label-skew partition, one client at a time.

    ``shard(cid)`` replays the partition RNG stream and keeps only the
    target client's indices (bit-identical to
    ``dirichlet_partition(...)[cid]``); nothing O(num_clients) is stored.
    Shard sizes for the whole population come from one extra replay pass
    and are cached (they feed ``run.client_meta`` telemetry).
    """

    def __init__(
        self,
        dataset: Dataset,
        num_clients: int,
        *,
        alpha: float = 0.1,
        min_samples: int = 2,
        seed: int = 0,
        max_retries: int = 100,
    ) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        self.dataset = dataset
        self.num_clients = num_clients
        self.alpha = alpha
        self.min_samples = min_samples
        self.seed = seed
        self.max_retries = max_retries
        self._sizes: np.ndarray | None = None

    def __len__(self) -> int:
        return self.num_clients

    def shard(self, cid: int) -> Dataset:
        idx = dirichlet_client_indices(
            self.dataset,
            self.num_clients,
            cid,
            alpha=self.alpha,
            min_samples=self.min_samples,
            seed=self.seed,
            max_retries=self.max_retries,
        )
        return self.dataset.subset(idx)

    def shard_size(self, cid: int) -> int:
        if self._sizes is None:
            self._sizes = dirichlet_shard_sizes(
                self.dataset,
                self.num_clients,
                alpha=self.alpha,
                min_samples=self.min_samples,
                seed=self.seed,
                max_retries=self.max_retries,
            )
        return int(self._sizes[cid])


class SubsampledShards:
    """Cross-device partition: a fixed base pool, per-cid seeded samples.

    The Dirichlet partition assigns each pool sample to exactly one client,
    so it needs ``len(dataset) >= min_samples · num_clients`` — a structural
    ceiling on population size. Cross-device populations (the regime FedCA
    targets) instead have each device hold its *own* small dataset; this
    provider models that by giving client ``cid`` a deterministic
    ``shard_size``-sample draw from the pool, label-skewed by a per-client
    Dirichlet composition when ``alpha`` is set. Storage is O(pool), compute
    O(shard_size) per materialised client — a million clients cost nothing
    until touched.
    """

    def __init__(
        self,
        dataset: Dataset,
        num_clients: int,
        shard_size: int,
        *,
        alpha: float | None = 0.5,
        seed: int = 0,
    ) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if alpha is not None and alpha <= 0:
            raise ValueError("alpha must be positive (or None for uniform)")
        self.dataset = dataset
        self.num_clients = num_clients
        self.alpha = alpha
        self.seed = seed
        self._shard_size = shard_size
        # Flat per-class index pools so a label-skewed draw is vectorised:
        # sample classes from the client's composition, then a uniform
        # position inside each class pool.
        pools = [
            np.flatnonzero(dataset.y == c) for c in range(dataset.num_classes)
        ]
        if any(p.size == 0 for p in pools):
            raise ValueError("every class needs at least one pool sample")
        self._pool_flat = np.concatenate(pools)
        self._pool_lens = np.array([p.size for p in pools], dtype=np.int64)
        self._pool_offsets = np.concatenate(
            ([0], np.cumsum(self._pool_lens)[:-1])
        )

    def __len__(self) -> int:
        return self.num_clients

    def shard_size(self, cid: int) -> int:
        return self._shard_size

    def shard(self, cid: int) -> Dataset:
        if not 0 <= cid < self.num_clients:
            raise ValueError(f"cid {cid} out of range")
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, cid, _SUBSAMPLE_SEED_TAG])
        )
        if self.alpha is None:
            idx = rng.integers(0, len(self.dataset), size=self._shard_size)
        else:
            num_classes = self.dataset.num_classes
            composition = rng.dirichlet(np.full(num_classes, self.alpha))
            classes = rng.choice(num_classes, size=self._shard_size, p=composition)
            within = (rng.random(self._shard_size) * self._pool_lens[classes]).astype(
                np.int64
            )
            idx = self._pool_flat[self._pool_offsets[classes] + within]
        return self.dataset.subset(np.sort(idx))


def as_shard_provider(shards: "ShardProvider | Sequence[Dataset]") -> ShardProvider:
    """Wrap a plain shard list in :class:`MaterializedShards`; pass a
    provider (anything with a ``shard`` method) through unchanged."""
    if hasattr(shards, "shard"):
        return shards  # type: ignore[return-value]
    return MaterializedShards(shards)


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Everything one client's deterministic reconstruction depends on.

    ``pace`` is either the eager per-client array (bitwise-identity mode)
    or a ``cid → seconds/iteration`` callable (the scale path, where an
    O(total clients) array is itself the thing being avoided — see
    :func:`~repro.sysmodel.heterogeneity.iteration_time_for`).
    """

    shards: ShardProvider
    model_fn: Callable[[], Module]
    batch_size: int
    pace: "Sequence[float] | Callable[[int], float]"
    link_fn: Callable[[int], LinkModel]
    seed: int = 0
    dynamic: bool = True
    gamma_fast: tuple[float, float] = GAMMA_FAST
    gamma_slow: tuple[float, float] = GAMMA_SLOW
    slowdown_range: tuple[float, float] = SLOWDOWN_RANGE

    @property
    def num_clients(self) -> int:
        return len(self.shards)


class ClientFactory:
    """Rebuilds any :class:`~repro.runtime.client.SimClient` on demand,
    bit-identical to the one the eager constructor loop produces.

    A model replica is scratch space a cache slot owns, not client state:
    ``load_global`` overwrites every parameter and buffer and sets the mode
    before the first step, and the one thing it leaves — the layer RNG — is
    carried by ``capture_state``. So ``create`` calls ``model_fn`` only when
    no emptied slot has handed a replica back (:meth:`release`); rewound to a
    fresh replica's layer RNG, a handed-off one *is* a fresh ``model_fn()``.
    Eager populations never release: one model per client, as before.
    """

    def __init__(self, spec: PopulationSpec) -> None:
        self.spec = spec
        self._fresh_rng: list[bytes] | None = None
        self._model_bytes = 0
        self._spare_models: list[Module] = []
        self._pace_memo: dict[int, float] = {}

    @property
    def num_clients(self) -> int:
        return self.spec.num_clients

    def __len__(self) -> int:
        return self.spec.num_clients

    # ------------------------------------------------------------------
    def base_pace(self, cid: int) -> float:
        """Client ``cid``'s static fast-mode seconds per iteration."""
        pace = self.spec.pace
        if not callable(pace):
            return float(pace[cid])
        value = self._pace_memo.get(cid)
        if value is None:
            if len(self._pace_memo) >= _PACE_MEMO_MAX:
                self._pace_memo.clear()
            value = self._pace_memo[cid] = float(pace(cid))
        return value

    def client_seeds(self, cid: int) -> tuple[int, int]:
        """``(speed-trace seed, batch-stream seed)`` for client ``cid``.

        ``SeedSequence(seed, spawn_key=(cid,))`` is NumPy's definition of
        ``SeedSequence(seed).spawn(n)[cid]``, so this matches the historical
        eager derivation exactly — without spawning all n children.
        """
        child = np.random.default_rng(
            np.random.SeedSequence(self.spec.seed, spawn_key=(cid,))
        )
        return int(child.integers(2**31)), int(child.integers(2**31))

    def create(self, cid: int) -> SimClient:
        """Build client ``cid`` in its initial (round-zero) state."""
        if not 0 <= cid < self.spec.num_clients:
            raise IndexError(
                f"cid {cid} out of range for population of {self.spec.num_clients}"
            )
        trace_seed, stream_seed = self.client_seeds(cid)
        spec = self.spec
        trace = SpeedTrace(
            self.base_pace(cid),
            seed=trace_seed,
            dynamic=spec.dynamic,
            gamma_fast=spec.gamma_fast,
            gamma_slow=spec.gamma_slow,
            slowdown_range=spec.slowdown_range,
        )
        return SimClient(
            cid,
            spec.shards.shard(cid),
            model_fn=self._replica,
            batch_size=spec.batch_size,
            trace=trace,
            link=spec.link_fn(cid),
            seed=stream_seed,
        )

    def _replica(self) -> Module:
        """The next client's model: a released replica, else a new one."""
        self._ensure_template()
        if not self._spare_models:
            return self.spec.model_fn()
        model = self._spare_models.pop()
        if self._fresh_rng:
            model.load_rng_state(self._fresh_rng)
        return model

    def release(self, client: SimClient) -> None:
        """Take back the replica of a client whose cache slot is emptied.
        The client is dead afterwards: a stale reference to it must fail
        rather than train the next owner's model."""
        self._spare_models.append(client.model)
        del client.model

    # ------------------------------------------------------------------
    # Population-wide metadata without materialising clients: drives the
    # run.client_meta telemetry and the server's bootstrap pace estimates.
    # ------------------------------------------------------------------
    def shard_size(self, cid: int) -> int:
        return self.spec.shards.shard_size(cid)

    def _ensure_template(self) -> None:
        """One template model, built lazily — every client shares the
        architecture. It measures the model's bytes, fixes what a fresh
        replica's layer RNG looks like, and is the first replica handed out."""
        if self._fresh_rng is None:
            template = self.spec.model_fn()
            self._fresh_rng = template.rng_state()
            self._model_bytes = template.nbytes()
            self._spare_models.append(template)

    @property
    def model_bytes(self) -> int:
        """Bytes of one model replica."""
        self._ensure_template()
        return self._model_bytes
