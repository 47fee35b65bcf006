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
  for a batch of clients at a time (:func:`~repro.data.partition.dirichlet_clients_indices`);
* :class:`SubsampledShards` is the cross-device partition for populations
  far larger than the dataset — each client holds a per-cid seeded sample
  of a fixed base pool, so a million clients store O(1) each.

Seed derivation
---------------
Every per-client generator is ``Generator(PCG64(s))`` for a ``SeedSequence``:

=================  ============================================================
stream             ``SeedSequence``
=================  ============================================================
client seeds       ``(seed, spawn_key=(cid,))`` = ``SeedSequence(seed).spawn(N)[cid]``
speed trace        ``(t)``, ``t`` the client seeds' first ``integers(2**31)``
batch stream       ``(b)``, ``b`` their second
subsampled shard   ``([seed, cid, 0x5D])`` (:class:`SubsampledShards`)
=================  ============================================================

(The pace draw, ``[seed, cid, 0x9A]``, is the ``pace`` callable's own.)
:meth:`ClientFactory.derive` derives a batch's seeds in two vectorised
uint32 passes that reproduce ``SeedSequence``'s mixing (:func:`seed_states`):
the spawn-key rows, then the rest — entropy of at most four words hashes
exactly like its zero-padded four-word form, so those rows share one pass.
Generators are built from the words through NumPy's public
``ISeedSequence`` interface (~3 µs against ~15 µs for ``default_rng(int)``);
``create(cid)`` is the batch of one. A factory checks its first row
against NumPy when built and raises :class:`SeedDerivationError` if a NumPy
release changed the mixing. Traced on ``lazy_fedavg_obs`` (seed 0), one
creation (``scale.create_s`` per creation) went from 128 µs to 44 µs; the
chunk's seed pass adds ~16 µs per creation outside ``create``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, zip_longest
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ..data import Dataset
from ..data.partition import dirichlet_clients_indices, dirichlet_shard_sizes
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
    "SeedDerivationError",
    "as_shard_provider",
]

#: Domain-separation tag for :class:`SubsampledShards` per-cid draws.
_SUBSAMPLE_SEED_TAG = 0x5D

#: Bound on :meth:`ClientFactory.base_pace`'s memo of a callable pace — a
#: round's selection is asked twice (deadline estimate, then ``create``).
_PACE_MEMO_MAX = 1024

# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx). The k-th
# hashmix call xors with _HASH_A[k] and multiplies by _HASH_A[k + 1] whatever
# the data, so the constant chains are precomputed (for up to 64-word rows).
_MASK32 = 0xFFFFFFFF


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    chain = accumulate(range(n), lambda h, _: h * mult & _MASK32, initial=init)
    return np.array(list(chain), dtype=np.uint32)[:, None]


_HASH_A = _chain(0x43B0D7E5, 0x931E8875, 256)
_HASH_B = _chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]


def _hashmix(value: np.ndarray, k: int, n: int) -> np.ndarray:
    """Hashmix calls ``k … k+n-1``, one per row of the ``(n, m)`` result."""
    value = (value ^ _HASH_A[k : k + n]) * _HASH_A[k + 1 : k + 1 + n]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _uint32_words(values: "int | Sequence[int]") -> list[int]:
    values = [values] if isinstance(values, (int, np.integer)) else values
    if min(values, default=0) < 0:
        raise ValueError("seed entropy must be non-negative")
    return [v >> s & _MASK32 for v in map(int, values) for s in range(0, v.bit_length() or 1, 32)]


def entropy_words(entropy: "int | Sequence[int]", spawn_key: Sequence[int] = ()) -> list[int]:
    """The uint32 words ``SeedSequence(entropy, spawn_key=...)`` hashes."""
    run = _uint32_words(entropy)
    if not spawn_key:
        return run
    return run + [0] * (4 - len(run)) + _uint32_words(spawn_key)  # NumPy pads to 4 here


def seed_states(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """``SeedSequence``'s ``generate_state(4, np.uint64)`` for every row of
    :func:`entropy_words`, as one ``(len(rows), 4)`` array — one vectorised
    pass when every row has at most four words or all have the same length
    (a row of fewer than four hashes like its zero-padded form), else one
    pass per length."""
    width = max(map(len, rows), default=0)
    if width > 4 and min(map(len, rows)) != width:
        out = np.empty((len(rows), 4), dtype=np.uint64)
        for length in sorted({max(4, len(row)) for row in rows}):
            index = [i for i, row in enumerate(rows) if max(4, len(row)) == length]
            out[index] = seed_states([rows[i] for i in index])
        return out
    if width > 64:
        raise ValueError("seed entropy longer than 64 words")
    entropy = np.zeros((max(width, 4), len(rows)), dtype=np.uint32)
    entropy[:width] = list(zip_longest(*rows, fillvalue=0))
    pool = _hashmix(entropy[:4], 0, 4)
    k = 4
    for src in range(4):
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, 3))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, k, 4))
        k += 4
    state = (np.concatenate((pool, pool)) ^ _HASH_B[:8]) * _HASH_B[1:]
    state ^= state >> _SHIFT
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed whose PCG64 state words are already derived."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("derived seed words only seed PCG64")
        return self.words


class SeedDerivationError(RuntimeError):
    """The vectorised seed pass disagrees with this NumPy's ``SeedSequence``."""


@runtime_checkable
class ShardProvider(Protocol):
    """Per-client training-data source the factory pulls shards from.
    Optional batch hooks (:meth:`ClientFactory.derive`): ``page(cids)``, and
    ``seed_entropy(cid)`` — a seed the factory derives and passes as
    ``shard(cid, seed)``."""

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
    """The paper's Dirichlet label-skew partition, one batch at a time.

    ``page(cids)`` replays the partition RNG stream once and keeps only the
    batch's indices (bit-identical to ``dirichlet_partition(...)[cid]``) until
    ``shard(cid)`` takes them; a cid not paged is a batch of one. Nothing
    O(num_clients) is stored. Shard sizes for the whole population come
    from one extra replay pass and are cached (they feed ``run.client_meta``
    telemetry).
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
        self._paged: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return self.num_clients

    def page(self, cids: Sequence[int]) -> None:
        self._paged.update(
            dirichlet_clients_indices(
                self.dataset,
                self.num_clients,
                cids,
                alpha=self.alpha,
                min_samples=self.min_samples,
                seed=self.seed,
                max_retries=self.max_retries,
            )
        )

    def shard(self, cid: int) -> Dataset:
        if cid not in self._paged:
            self.page([cid])
        return self.dataset.subset(self._paged.pop(cid))

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
        self._concentration = None if alpha is None else np.full(dataset.num_classes, alpha)
        self._pool_flat = np.concatenate(pools)
        self._pool_lens = np.array([p.size for p in pools], dtype=np.int64)
        self._pool_offsets = np.concatenate(
            ([0], np.cumsum(self._pool_lens)[:-1])
        )

    def __len__(self) -> int:
        return self.num_clients

    def shard_size(self, cid: int) -> int:
        return self._shard_size

    def seed_entropy(self, cid: int) -> list[int]:
        return [self.seed, cid, _SUBSAMPLE_SEED_TAG]

    def shard(self, cid: int, seed: "ISeedSequence | None" = None) -> Dataset:
        if not 0 <= cid < self.num_clients:
            raise ValueError(f"cid {cid} out of range")
        if seed is None:
            seed = _Words(seed_states([entropy_words(self.seed_entropy(cid))])[0])
        rng = np.random.default_rng(seed)
        if self.alpha is None:
            idx = rng.integers(0, len(self.dataset), size=self._shard_size)
        else:
            composition = rng.dirichlet(self._concentration)
            # Generator.choice(num_classes, p=composition) minus its checks.
            cdf = composition.cumsum()
            cdf /= cdf[-1]
            classes = cdf.searchsorted(rng.random(self._shard_size), side="right")
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
        self._derived: dict[int, list[_Words]] = {}
        self._check_seed_pass()

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

    def client_seeds(self, cids: Sequence[int]) -> list[tuple[int, int]]:
        """``(speed-trace seed, batch-stream seed)`` per client: the first two
        ``integers(2**31)`` draws of ``default_rng(SeedSequence(seed,
        spawn_key=(cid,)))``, as the eager loop's ``spawn`` gave them. Those
        are the top 31 bits of each 32-bit half of a fresh PCG64's first
        output (Lemire's bound never rejects at 2**31)."""
        first = seed_states([entropy_words(self.spec.seed, (cid,)) for cid in cids])
        raws = [int(np.random.PCG64(_Words(words)).random_raw()) for words in first]
        return [((raw & _MASK32) >> 1, raw >> 33) for raw in raws]

    def _check_seed_pass(self) -> None:
        """Client 0's seeds and trace words must be NumPy's own."""
        (seeds,) = self.client_seeds([0])
        reference = np.random.default_rng(np.random.SeedSequence(self.spec.seed, spawn_key=(0,)))
        numpy_seeds = (int(reference.integers(2**31)), int(reference.integers(2**31)))
        words = np.random.SeedSequence(seeds[0]).generate_state(4, np.uint64)
        if seeds != numpy_seeds or (seed_states([[seeds[0]]])[0] != words).any():
            raise SeedDerivationError(
                f"numpy {np.__version__} derives SeedSequence streams differently "
                "from repro.scale.population.seed_states; update it before running"
            )

    def derive(self, cids: Sequence[int]) -> None:
        """Derive the generator seeds of clients about to be created — one
        seed pass per ``SeedSequence`` level for the whole batch — and let the
        shard provider page the batch in (module docstring)."""
        if not cids:
            return
        for cid in cids:
            if not 0 <= cid < self.spec.num_clients:
                raise IndexError(
                    f"cid {cid} out of range for population of {self.spec.num_clients}"
                )
        shards = self.spec.shards
        rows = [[seed] for pair in zip(*self.client_seeds(cids)) for seed in pair]
        if hasattr(shards, "seed_entropy"):
            rows += [entropy_words(shards.seed_entropy(cid)) for cid in cids]
        levels = seed_states(rows).reshape(-1, len(cids), 4)
        for i, cid in enumerate(cids):
            self._derived[cid] = [_Words(words[i]) for words in levels]
        if hasattr(shards, "page"):
            shards.page(cids)

    def create(self, cid: int) -> SimClient:
        """Build client ``cid`` in its initial (round-zero) state, from the
        seeds :meth:`derive` left for it (a batch of one if it left none)."""
        if cid not in self._derived:
            self.derive([cid])
        trace_seed, stream_seed, *shard_seed = self._derived.pop(cid)
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
            spec.shards.shard(cid, *shard_seed),
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
