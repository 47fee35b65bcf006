"""Deterministic client reconstruction from ``(seed, cid, partition spec)``.

No run builds its clients up front — that would be O(total clients) memory
and setup even when a round touches 50 of them. This module holds the
*recipe* half of the population (DESIGN.md §15): a :class:`PopulationSpec`
bundles everything a client's construction depends on, and a
:class:`ClientFactory` builds any client on demand, the same bytes however
often it is rebuilt; the pager (:mod:`repro.scale.cache`) decides when.

Shard access goes through a :class:`ShardProvider`:

* :class:`MaterializedShards` wraps an already-built shard list (what the
  presets and tests hand the simulator);
* :class:`SubsampledShards` is the cross-device partition for populations
  far larger than the dataset — each client holds a per-cid seeded sample
  of a fixed base pool, so a million clients store O(1) each.

Seed derivation
---------------
Every per-client generator is ``default_rng(SeedSequence(s))``:

=================  ============================================================
stream             ``SeedSequence``
=================  ============================================================
client seeds       ``(seed, spawn_key=(cid,))`` = ``SeedSequence(seed).spawn(N)[cid]``
speed trace        ``(t)``, ``t`` the client seeds' first ``integers(2**31)``
batch stream       ``(b)``, ``b`` their second
subsampled shard   ``([seed, cid, 0x5D])`` (:class:`SubsampledShards`)
pace               ``([seed, cid, 0x9A])`` (:func:`~repro.sysmodel.iteration_time_for`)
=================  ============================================================

Each is ``Generator(PCG64(words))`` from one vectorised pass over a batch
(:mod:`repro.rngstate`): a selection's paces share one
(:meth:`ClientFactory.paces`); a chunk's new clients share one for their
spawn-key rows, whose first outputs are the client seeds, and one for the
trace, stream and shard rows (:meth:`ClientFactory.derive`; a row of at
most four words hashes like its zero-padded form). The provider pages the
shards in as arrays (:meth:`SubsampledShards.page`). A factory checks every
hand-rolled form against NumPy's own when built and raises
:class:`SeedDerivationError` on a mismatch. DESIGN.md §15 has the
per-client page-cycle budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..data import Dataset
from ..nn import Module
from ..rngstate import cid_rows, entropy_words, first_outputs, generator, seed_states
from ..runtime.client import SimClient
from ..sysmodel import LinkModel, SpeedTrace
from ..sysmodel.heterogeneity import lognormal
from ..sysmodel.speed import GAMMA_FAST, GAMMA_SLOW, SLOWDOWN_RANGE

__all__ = [
    "ShardProvider",
    "MaterializedShards",
    "SubsampledShards",
    "PopulationSpec",
    "ClientFactory",
    "SeedDerivationError",
    "as_shard_provider",
]

#: Domain-separation tag for :class:`SubsampledShards` per-cid draws.
_SUBSAMPLE_SEED_TAG = 0x5D

#: Bound on :meth:`ClientFactory.paces`'s memo beyond one call's cids.
_PACE_MEMO_MAX = 1024
#: Below this concentration ``Generator.dirichlet`` breaks sticks instead.
_DIRICHLET_BY_GAMMA = 0.1


def _classes(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``cdf[i].searchsorted(u[i], side="right")`` for every row — the class
    search ``Generator.choice(p=)`` runs, without its checks — as the count
    of each row's (non-decreasing) cdf entries at or below each draw."""
    return (cdf[:, None, :] <= u[:, :, None]).sum(axis=2)


def _gamma_compositions(gammas: np.ndarray) -> np.ndarray:
    """Rows of ``standard_gamma(α)`` draws made, in place, the ``dirichlet``
    draws they are (α ≥ 0.1): times ``1 / (sequential sum)``."""
    gammas *= 1.0 / gammas.cumsum(axis=1)[:, -1:]
    return gammas


class SeedDerivationError(RuntimeError):
    """The vectorised seed pass disagrees with this NumPy's ``SeedSequence``."""


@runtime_checkable
class ShardProvider(Protocol):
    """Per-client training-data source the factory pulls shards from.
    Optional batch hooks (:meth:`ClientFactory.derive`): ``page(cids)``, or
    ``seed_rows(cids)`` — entropy rows whose seeds the factory derives in its
    own pass and hands over as ``page(cids, seeds)``."""

    def __len__(self) -> int:
        """Total number of clients in the population."""

    def shard(self, cid: int) -> Dataset:
        """Materialise client ``cid``'s local dataset."""

    def shard_size(self, cid: int) -> int:
        """Sample count of client ``cid``'s shard without materialising it."""


class MaterializedShards:
    """Adapter over an already-built shard list."""

    def __init__(self, shards: Sequence[Dataset]) -> None:
        self._shards = list(shards)

    def __len__(self) -> int:
        return len(self._shards)

    def shard(self, cid: int) -> Dataset:
        return self._shards[cid]

    def shard_size(self, cid: int) -> int:
        return len(self._shards[cid])


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
        self._paged: dict[int, Dataset] = {}

    def __len__(self) -> int:
        return self.num_clients

    def shard_size(self, cid: int) -> int:
        return self._shard_size

    def seed_rows(self, cids: np.ndarray) -> "np.ndarray | list[list[int]]":
        """The ``SeedSequence([seed, cid, 0x5D])`` entropy rows of ``cids``."""
        return cid_rows(entropy_words(self.seed), cids, (_SUBSAMPLE_SEED_TAG,))

    def page(self, cids: Sequence[int], seeds: "np.ndarray | None" = None) -> None:
        """Draw the shards of ``cids`` (their ``seeds`` words, derived here
        if not given) and hold them until :meth:`shard` takes them.

        Each client draws ``dirichlet`` (as gammas), ``random(2s)`` from its
        own generator (``integers`` when uniform); the rest runs once over
        the page's arrays, and each shard is a row view of one block."""
        cids = np.asarray(cids, dtype=np.int64)
        bad = (cids < 0) | (cids >= self.num_clients)
        if bad.any():
            raise ValueError(f"cid {cids[bad][0]} out of range")
        if seeds is None:
            seeds = seed_states(self.seed_rows(cids))
        n, size = len(cids), self._shard_size
        if self.alpha is None:
            idx = np.empty((n, size), dtype=np.int64)
            for i, words in enumerate(seeds):
                idx[i] = generator(words).integers(0, len(self.dataset), size=size)
        else:
            by_gamma, k = self.alpha >= _DIRICHLET_BY_GAMMA, len(self._concentration)
            composition = np.empty((n, k))
            uv = np.empty((n, 2, size))
            for i, words in enumerate(seeds):
                rng = generator(words)
                composition[i] = (
                    rng.standard_gamma(self.alpha, k) if by_gamma
                    else rng.dirichlet(self._concentration)
                )
                rng.random(out=uv[i])
            if by_gamma:
                _gamma_compositions(composition)
            cdf = composition.cumsum(axis=1)
            cdf /= cdf[:, -1:]
            classes = _classes(cdf, uv[:, 0])
            within = (uv[:, 1] * self._pool_lens[classes]).astype(np.int64)
            idx = self._pool_flat[self._pool_offsets[classes] + within]
        idx.sort(axis=1)
        block = self.dataset.subset(idx)  # (n, size, ...) features, (n, size) labels
        for i, cid in enumerate(cids.tolist()):
            self._paged[cid] = block.subset(i)  # an int index: row i, a view

    def shard(self, cid: int) -> Dataset:
        if cid not in self._paged:
            self.page([cid])
        return self._paged.pop(cid)


def as_shard_provider(shards: "ShardProvider | Sequence[Dataset]") -> ShardProvider:
    """Wrap a plain shard list in :class:`MaterializedShards`; pass a
    provider (anything with a ``shard`` method) through unchanged."""
    if hasattr(shards, "shard"):
        return shards  # type: ignore[return-value]
    return MaterializedShards(shards)


@dataclass(frozen=True, eq=False)
class PopulationSpec:
    """Everything one client's deterministic reconstruction depends on.

    ``pace`` is either a per-client array (the presets') or a callable from
    a cid array to seconds/iteration (a scalar answers for all) — the scale
    path, where an O(total clients) array is itself the thing being avoided
    (:func:`~repro.sysmodel.heterogeneity.iteration_time_for`).
    """

    shards: ShardProvider
    model_fn: Callable[[], Module]
    batch_size: int
    pace: "Sequence[float] | Callable[[np.ndarray], np.ndarray | float]"
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
    """Builds any :class:`~repro.runtime.client.SimClient` on demand, in
    the same initial bytes every time.

    A model replica is scratch space a cache slot owns, not client state:
    ``load_global`` overwrites every parameter and buffer and sets the mode
    before the first step, and the one thing it leaves — the layer RNG — is
    carried in the client's blob. So ``create`` calls ``model_fn`` only when
    no emptied slot has handed a replica back (:meth:`release`); rewound to a
    fresh replica's layer RNG, a handed-off one *is* a fresh ``model_fn()``.
    A pager with room for everyone never releases: one model per client.
    """

    def __init__(self, spec: PopulationSpec) -> None:
        self.spec = spec
        self._fresh_rng: list[bytes] | None = None
        self._template: Module | None = None
        self._step_bytes: int | None = None
        self._spare_models: list[Module] = []
        self._pace_table = None if callable(spec.pace) else np.asarray(spec.pace, dtype=np.float64)
        self._pace_memo: dict[int, float] = {}
        self._derived: dict[int, list] = {}  # cid -> trace, stream, shard words
        self._spawn_prefix = entropy_words(spec.seed, (0,))[:-1]  # spawn key cid goes last
        self._check_seed_pass()

    @property
    def num_clients(self) -> int:
        return self.spec.num_clients

    # ------------------------------------------------------------------
    def paces(self, cids: Sequence[int]) -> np.ndarray:
        """Static fast-mode seconds per iteration of ``cids``: a callable pace
        is asked once for every cid not memoised, and the memo keeps at least
        the latest call's cids, so a selection's paces are drawn once."""
        cids = np.asarray(cids, dtype=np.int64)
        if self._pace_table is not None:
            return self._pace_table[cids]
        memo, wanted = self._pace_memo, cids.tolist()
        missing = [cid for cid in dict.fromkeys(wanted) if cid not in memo]
        if missing:
            drawn = np.broadcast_to(self.spec.pace(np.array(missing)), len(missing))
            if len(memo) + len(missing) > _PACE_MEMO_MAX:  # keep only this call's
                memo = self._pace_memo = {cid: memo[cid] for cid in wanted if cid in memo}
            memo.update(zip(missing, drawn.astype(np.float64).tolist()))
        return np.array([memo[cid] for cid in wanted])

    def base_pace(self, cid: int) -> float:
        """Client ``cid``'s static fast-mode seconds per iteration."""
        value = self._pace_memo.get(cid)
        return float(self.paces([cid])[0]) if value is None else value

    def client_seeds(self, cids: Sequence[int]) -> np.ndarray:
        """``(speed-trace seed, batch-stream seed)`` per client, as an
        ``(n, 2)`` array: the first two ``integers(2**31)`` draws of
        ``default_rng(SeedSequence(seed, spawn_key=(cid,)))``, as
        ``SeedSequence(seed).spawn(N)[cid]`` gives them. Those are the top
        31 bits of each 32-bit half of a fresh PCG64's first output
        (Lemire's bound never rejects at 2**31)."""
        states = seed_states(cid_rows(self._spawn_prefix, np.asarray(cids, dtype=np.int64)))
        raw = np.array(first_outputs(states), dtype=np.uint64)
        return (raw[:, None] >> np.uint64([1, 33]) & np.uint64(0x7FFFFFFF)).astype(np.int64)

    def _check_seed_pass(self) -> None:
        """Every hand-rolled form must be NumPy's own: client 0's seeds and
        trace words, and a composition and a pace drawn from those words."""
        seeds = tuple(self.client_seeds([0])[0].tolist())
        reference = np.random.default_rng(np.random.SeedSequence(self.spec.seed, spawn_key=(0,)))
        words, sequence = seed_states([[seeds[0]]])[0], np.random.SeedSequence(seeds[0])
        built, numpy = generator(words), np.random.default_rng(sequence)
        gammas = _gamma_compositions(built.standard_gamma(0.5, (1, 10)))[0]
        if not (
            seeds == (int(reference.integers(2**31)), int(reference.integers(2**31)))
            and (words == sequence.generate_state(4, np.uint64)).all()
            and (gammas == numpy.dirichlet(np.full(10, 0.5))).all()
            and lognormal(built, 0.6) == numpy.lognormal(0.0, 0.6)
        ):
            raise SeedDerivationError(
                f"numpy {np.__version__} derives SeedSequence streams differently "
                "from repro.rngstate / repro.scale.population; update them before running"
            )

    def derive(self, cids: Sequence[int]) -> None:
        """Derive the generator seeds of clients about to be created (those
        not derived yet) — one seed pass per ``SeedSequence`` level for the
        whole batch — and draw the paces no selection has (a worker's
        chunk). :meth:`page` pages their shards in."""
        cids = np.asarray([cid for cid in cids if cid not in self._derived], dtype=np.int64)
        if not cids.size:
            return
        bad = (cids < 0) | (cids >= self.spec.num_clients)
        if bad.any():
            raise IndexError(
                f"cid {cids[bad][0]} out of range for population of {self.spec.num_clients}"
            )
        self.paces(cids)
        shards, n = self.spec.shards, len(cids)
        rows = self.client_seeds(cids).T.reshape(-1, 1)  # trace seeds, then stream seeds
        shard_rows = shards.seed_rows(cids) if hasattr(shards, "seed_rows") else rows[:0]
        if isinstance(shard_rows, np.ndarray) and shard_rows.shape[1] <= 4:
            # a row of at most four words hashes like its zero-padded form: one pass
            rows = np.hstack((rows, np.zeros((2 * n, shard_rows.shape[1] - 1), dtype=np.int64)))
            words = seed_states(np.concatenate((rows, shard_rows)))
        else:
            words = np.concatenate((seed_states(rows), seed_states(shard_rows)))
        shard_words = words[2 * n :] if hasattr(shards, "seed_rows") else [None] * n
        for cid, *seeds in zip(cids.tolist(), words[:n], words[n : 2 * n], shard_words):
            self._derived[cid] = seeds

    def page(self, cids: Sequence[int]) -> None:
        """Let the shard provider page derived ``cids`` in as one batch,
        handing it the shard seeds :meth:`derive` left (module docstring)."""
        shards = self.spec.shards
        if len(cids) and hasattr(shards, "seed_rows"):
            shards.page(cids, np.array([self._derived[cid][2] for cid in cids]))
        elif len(cids) and hasattr(shards, "page"):
            shards.page(cids)

    def create(self, cid: int) -> SimClient:
        """Build client ``cid`` in its initial (round-zero) state, from the
        seeds :meth:`derive` left for it (a batch of one if it left none)."""
        if cid not in self._derived:
            self.derive([cid])
            self.page([cid])
        trace_words, stream_words, _ = self._derived.pop(cid)
        spec = self.spec
        trace = SpeedTrace(
            self.base_pace(cid),
            seed=generator(trace_words),
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
            seed=generator(stream_words),
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
    # Per-client metadata without materialising the client.
    # ------------------------------------------------------------------
    def shard_size(self, cid: int) -> int:
        """Client ``cid``'s sample count: what a resumed blob's stream
        position is checked against before the client exists."""
        return self.spec.shards.shard_size(cid)

    def step_bytes(self) -> int:
        """Bytes one client's training step holds: a batch of rows at the
        model's :meth:`~repro.nn.Module.row_bytes`, measured once, on the
        template at client 0's feature shape."""
        if self._step_bytes is None:
            shape = self.spec.shards.shard(0).x.shape[1:]
            self._step_bytes = self.spec.batch_size * self._ensure_template().row_bytes(shape)
        return self._step_bytes

    def _ensure_template(self) -> Module:
        """One template model, built lazily — every client shares the
        architecture. It fixes what a fresh replica's layer RNG looks like,
        and is the first replica handed out."""
        if self._template is None:
            template = self._template = self.spec.model_fn()
            self._fresh_rng = template.rng_state()
            self._spare_models.append(template)
        return self._template
