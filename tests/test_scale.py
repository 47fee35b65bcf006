"""Lazy-population scale subsystem tests (repro.scale).

Covers: the per-client Dirichlet replay vs the full-partition oracle,
factory reconstruction bit-equality, LRU paging with capture-before-release
eviction, evict→rehydrate round-trip exactness (hypothesis), lazy↔eager
bitwise run identity on all three engines, checkpointing through the lazy
path, the history spill switch, and the ``--population`` spec parser.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import OptimizerSpec, build_strategy
from repro.core import FedCAConfig
from repro.data import (
    dirichlet_clients_indices,
    dirichlet_partition,
    dirichlet_shard_sizes,
    make_workload_data,
)
from repro.nn import Dropout, LeNetCNN, WideResNet
from repro.obs import TraceRecorder, events_to_jsonl
from repro.persist.snapshot import decode, encode
from repro.runtime import (
    FederatedSimulator,
    RunHistory,
    SerialExecutor,
    resolve_executor,
    shm_available,
)
from repro.runtime.export import history_to_json
from repro.runtime.history import RoundRecord
from repro.runtime.parallel import fork_available
from repro.scale import (
    DEFAULT_CACHE_CLIENTS,
    ClientFactory,
    LazyClientPopulation,
    LazyDirichletShards,
    MaterializedShards,
    PopulationSpec,
    SeedDerivationError,
    SubsampledShards,
    as_shard_provider,
    parse_population_spec,
)
from repro.scale.population import (
    _SUBSAMPLE_SEED_TAG,
    _Words,
    entropy_words,
    seed_states,
)
from repro.runtime.client import SimClient
from repro.sysmodel import LinkModel, SpeedTrace, iteration_time_for

from .helpers import held_array_bytes, per_client_holdings, same_tree

OPT = OptimizerSpec(lr=0.05, weight_decay=0.01)
NUM_CLIENTS = 5
ITERS = 6
PACE = [0.01, 0.012, 0.015, 0.02, 0.03]

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)
needs_shm = pytest.mark.skipif(
    not shm_available()[0], reason="platform lacks POSIX shared memory"
)


@pytest.fixture(scope="module")
def env_data():
    train, test = make_workload_data("cnn", num_samples=400, seed=3)
    parts = dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=4, min_samples=8)
    return train, [train.subset(p) for p in parts], test


def lenet():
    return LeNetCNN(rng=np.random.default_rng(7))


def micro_wrn(dropout=0.3, norm="group"):
    """Micro WideResNet whose dropout layers share the init generator —
    the one model family with cross-round layer-RNG state."""
    return WideResNet(
        depth=10, widen_factor=1, num_classes=10, dropout=dropout, norm=norm,
        rng=np.random.default_rng(7),
    )


def make_factory(env_data, *, seed=1, model_fn=lenet, pace=PACE):
    _, shards, _ = env_data
    return ClientFactory(
        PopulationSpec(
            shards=as_shard_provider(shards),
            model_fn=model_fn,
            batch_size=8,
            pace=pace,
            link_fn=lambda _cid: LinkModel(),
            seed=seed,
        )
    )


def assert_state_equal(a, b, path="state"):
    """Recursive bit-exact comparison of snapshot trees (dicts/lists/arrays)."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: keys differ"
        for key in a:
            assert_state_equal(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, f"{path}: dtypes differ"
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


# ----------------------------------------------------------------------
# Lazy shard slicing vs the full-partition oracle
# ----------------------------------------------------------------------
def reference_dirichlet_partition(
    dataset, num_clients, *, alpha, min_samples, seed, max_retries=100
):
    """``dirichlet_partition`` as it was written before it became the batch
    replay over every cid — kept as the independent oracle of that replay."""
    rng = np.random.default_rng(seed)
    labels = dataset.y
    class_indices = [np.flatnonzero(labels == c) for c in range(dataset.num_classes)]

    for _ in range(max_retries):
        shards = [[] for _ in range(num_clients)]
        for idx in class_indices:
            if idx.size == 0:
                continue
            perm = rng.permutation(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            # Cumulative split points; np.split handles zero-width shards.
            cuts = (np.cumsum(props)[:-1] * idx.size).astype(int)
            for client, chunk in enumerate(np.split(perm, cuts)):
                if chunk.size:
                    shards[client].append(chunk)
        result = [
            np.sort(np.concatenate(s)) if s else np.array([], dtype=np.int64)
            for s in shards
        ]
        if min(r.size for r in result) >= min_samples:
            return result
    raise RuntimeError("reference partition exhausted its retries")


class TestDirichletReplay:
    def test_client_indices_match_full_partition(self, env_data):
        train, _, _ = env_data
        full = reference_dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=4,
                                             min_samples=8)
        for cid in range(NUM_CLIENTS):
            lazy = dirichlet_clients_indices(train, NUM_CLIENTS, [cid], alpha=0.5,
                                             seed=4, min_samples=8)[cid]
            np.testing.assert_array_equal(lazy, full[cid])

    def test_shard_sizes_match_full_partition(self, env_data):
        train, _, _ = env_data
        full = reference_dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=4,
                                             min_samples=8)
        sizes = dirichlet_shard_sizes(train, NUM_CLIENTS, alpha=0.5, seed=4,
                                      min_samples=8)
        assert [int(s) for s in sizes] == [len(p) for p in full]

    def test_replay_covers_retry_loop(self, env_data):
        # alpha small enough that the first draw usually violates
        # min_samples — the replay must consume rejected draws identically.
        train, _, _ = env_data
        full = reference_dirichlet_partition(train, NUM_CLIENTS, alpha=0.1, seed=11,
                                             min_samples=8)
        for cid in (0, NUM_CLIENTS - 1):
            lazy = dirichlet_clients_indices(train, NUM_CLIENTS, [cid], alpha=0.1,
                                             seed=11, min_samples=8)[cid]
            np.testing.assert_array_equal(lazy, full[cid])

    def test_cid_out_of_range(self, env_data):
        train, _, _ = env_data
        with pytest.raises(ValueError, match="out of range"):
            dirichlet_clients_indices(train, NUM_CLIENTS, [0, NUM_CLIENTS])

    @pytest.mark.parametrize(
        "alpha, min_samples, seed", [(0.5, 8, 4), (0.1, 8, 11)]  # 11: retried draws
    )
    def test_batch_replay_matches_full_partition(self, env_data, alpha, min_samples, seed):
        train, _, _ = env_data
        kwargs = dict(alpha=alpha, min_samples=min_samples, seed=seed)
        full = reference_dirichlet_partition(train, NUM_CLIENTS, **kwargs)
        for got, want in zip(dirichlet_partition(train, NUM_CLIENTS, **kwargs), full):
            np.testing.assert_array_equal(got, want)
        batch = dirichlet_clients_indices(train, NUM_CLIENTS, [3, 0, 4], **kwargs)
        assert sorted(batch) == [0, 3, 4]
        for cid, idx in batch.items():
            np.testing.assert_array_equal(idx, full[cid])
        provider = LazyDirichletShards(train, NUM_CLIENTS, **kwargs)
        provider.page(range(NUM_CLIENTS))
        for cid in range(NUM_CLIENTS):
            np.testing.assert_array_equal(provider.shard(cid).y, train.y[full[cid]])
        assert provider._paged == {}  # a paged shard is handed out once
        np.testing.assert_array_equal(provider.shard(2).x, train.x[full[2]])

    def test_lazy_dirichlet_shards_provider(self, env_data):
        train, shards, _ = env_data
        provider = LazyDirichletShards(train, NUM_CLIENTS, alpha=0.5, seed=4,
                                       min_samples=8)
        assert len(provider) == NUM_CLIENTS
        for cid in range(NUM_CLIENTS):
            shard = provider.shard(cid)
            np.testing.assert_array_equal(shard.x, shards[cid].x)
            np.testing.assert_array_equal(shard.y, shards[cid].y)
            assert provider.shard_size(cid) == len(shards[cid])


# ----------------------------------------------------------------------
# Factory reconstruction vs the eager constructor loop
# ----------------------------------------------------------------------
def reference_shard(shards, cid):
    """A provider's shard as the per-client code drew it before the batched
    seed pass — one ``default_rng(SeedSequence(...))`` and ``rng.choice(p=)``
    for a subsampled draw, the full partition for a Dirichlet one."""
    if isinstance(shards, SubsampledShards):
        self = shards
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
    if isinstance(shards, LazyDirichletShards):
        full = reference_dirichlet_partition(
            shards.dataset, shards.num_clients, alpha=shards.alpha,
            min_samples=shards.min_samples, seed=shards.seed,
            max_retries=shards.max_retries,
        )
        return shards.dataset.subset(full[cid])
    return shards.shard(cid)


def reference_create(factory, cid):
    """``ClientFactory.create`` as one client at a time built it: a
    ``SeedSequence`` and a ``default_rng`` per stream."""
    child = np.random.default_rng(
        np.random.SeedSequence(factory.spec.seed, spawn_key=(cid,))
    )
    trace_seed, stream_seed = int(child.integers(2**31)), int(child.integers(2**31))
    spec = factory.spec
    trace = SpeedTrace(
        factory.base_pace(cid),
        seed=trace_seed,
        dynamic=spec.dynamic,
        gamma_fast=spec.gamma_fast,
        gamma_slow=spec.gamma_slow,
        slowdown_range=spec.slowdown_range,
    )
    return SimClient(
        cid,
        reference_shard(spec.shards, cid),
        model_fn=spec.model_fn,
        batch_size=spec.batch_size,
        trace=trace,
        link=spec.link_fn(cid),
        seed=stream_seed,
    )


def assert_same_client(built, reference):
    np.testing.assert_array_equal(built.shard.x, reference.shard.x)
    np.testing.assert_array_equal(built.shard.y, reference.shard.y)
    assert encode(built.capture_state()) == encode(reference.capture_state())


_entropy_word = st.one_of(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2**32, max_value=2**80),  # hashes as several words
)


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(
        st.tuples(
            st.lists(_entropy_word, min_size=1, max_size=8),
            st.lists(_entropy_word, max_size=2),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_seed_pass_matches_numpy_seed_sequence(seeds):
    """One vectorised pass over any mix of rows equals NumPy's
    ``SeedSequence(...).generate_state(4, np.uint64)`` row by row, and a
    generator built from the words is ``default_rng`` of that sequence."""
    rows = [entropy_words(entropy, spawn_key) for entropy, spawn_key in seeds]
    words = seed_states(rows)
    for (entropy, spawn_key), got in zip(seeds, words):
        sequence = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
        np.testing.assert_array_equal(got, sequence.generate_state(4, np.uint64))
        built = np.random.Generator(np.random.PCG64(_Words(got)))
        reference = np.random.default_rng(sequence)
        assert built.bit_generator.state == reference.bit_generator.state
        assert built.random() == reference.random()
    # A one-word int seed hashes like the same int given as a sequence.
    entropy, spawn_key = seeds[0]
    np.testing.assert_array_equal(
        seed_states([entropy_words(entropy[0])])[0],
        np.random.SeedSequence(entropy[0]).generate_state(4, np.uint64),
    )


class TestClientFactory:
    @pytest.mark.parametrize(
        "provider", ["materialized", "dirichlet", "subsampled", "subsampled-uniform"]
    )
    def test_batched_creation_matches_per_client_reference(self, env_data, provider):
        train, shards, _ = env_data
        provider = {
            "materialized": lambda: as_shard_provider(shards),
            "dirichlet": lambda: LazyDirichletShards(
                train, NUM_CLIENTS, alpha=0.5, seed=4, min_samples=8
            ),
            "subsampled": lambda: SubsampledShards(train, 300, 16, alpha=0.5, seed=2),
            "subsampled-uniform": lambda: SubsampledShards(
                train, 300, 16, alpha=None, seed=2
            ),
        }[provider]()
        factory = ClientFactory(
            PopulationSpec(
                shards=provider,
                model_fn=lenet,
                batch_size=8,
                pace=lambda cid: iteration_time_for(cid, 0.01, seed=3),
                link_fn=lambda _cid: LinkModel(),
                seed=5,
            )
        )
        cids = [4, 0, 2, 1] if len(provider) == NUM_CLIENTS else [299, 0, 7, 150]
        factory.derive(cids[:3])
        built = [factory.create(cid) for cid in cids]  # the last, a batch of one
        assert factory._derived == {}
        for cid, client in zip(cids, built):
            reference = reference_create(factory, cid)
            assert_same_client(client, reference)
            for _ in range(5):
                for a, b in zip(client.stream.next_batch(), reference.stream.next_batch()):
                    np.testing.assert_array_equal(a, b)
            assert client.trace.work_finish_time(3.0, 250.0) == (
                reference.trace.work_finish_time(3.0, 250.0)
            )
            assert_same_client(client, reference)

    def test_seed_pass_self_check_raises_on_drift(self, env_data, monkeypatch):
        import repro.scale.population as population

        make_factory(env_data)
        real = population.seed_states
        monkeypatch.setattr(population, "seed_states", lambda rows: real(rows) ^ np.uint64(1))
        with pytest.raises(SeedDerivationError, match="numpy"):
            make_factory(env_data)

    def test_seed_derivation_matches_spawn(self, env_data):
        factory = make_factory(env_data)
        ss = np.random.SeedSequence(1)
        children = ss.spawn(NUM_CLIENTS)
        for cid in range(NUM_CLIENTS):
            rng = np.random.default_rng(children[cid])
            expected = (int(rng.integers(2**31)), int(rng.integers(2**31)))
            assert factory.client_seeds([cid]) == [expected]

    def test_created_client_matches_eager(self, env_data):
        _, shards, test = env_data
        factory = make_factory(env_data)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OPT),
            shards=shards,
            test_set=test,
            base_iteration_times=PACE,
            batch_size=8,
            local_iterations=ITERS,
            seed=1,
        )
        for cid in range(NUM_CLIENTS):
            built = factory.create(cid)
            eager = sim.clients[cid]
            assert built.client_id == eager.client_id
            assert built.num_samples == eager.num_samples
            assert built.model_bytes == eager.model_bytes
            assert_state_equal(built.capture_state(), eager.capture_state())
        sim.close()

    def test_metadata_without_materialisation(self, env_data):
        _, shards, _ = env_data
        factory = make_factory(env_data)
        assert factory.num_clients == NUM_CLIENTS
        for cid in range(NUM_CLIENTS):
            assert factory.shard_size(cid) == len(shards[cid])
            assert factory.base_pace(cid) == PACE[cid]
        assert factory.model_bytes == factory.create(0).model_bytes

    def test_model_rng_entry_only_for_models_that_draw(self, env_data):
        plain = make_factory(env_data).create(0)
        assert set(plain.capture_state()) == {"stream", "trace"}
        no_drop = make_factory(env_data, model_fn=lambda: micro_wrn(dropout=0.0))
        assert set(no_drop.create(0).capture_state()) == {"stream", "trace"}

        client = make_factory(env_data, model_fn=micro_wrn).create(0)
        snapshot = client.capture_state()
        draw_masks(client, 3)
        assert client.model.rng_state() != snapshot["model_rng"]
        # A checkpoint written before the entry existed still restores.
        client.restore_state({k: v for k, v in snapshot.items() if k != "model_rng"})
        assert client.model.rng_state() != snapshot["model_rng"]
        client.restore_state(snapshot)
        assert client.model.rng_state() == snapshot["model_rng"]

    def test_create_out_of_range(self, env_data):
        with pytest.raises(IndexError):
            make_factory(env_data).create(NUM_CLIENTS)

    def test_base_pace_memo_is_exact_and_bounded(self, env_data):
        from repro.scale.population import _PACE_MEMO_MAX

        calls = []

        def pace(cid):
            calls.append(cid)
            return iteration_time_for(cid, 0.01, seed=3)

        factory = make_factory(env_data, pace=pace)
        assert factory.base_pace(4) == pace(4) == factory.base_pace(4)
        assert calls == [4, 4]  # the factory asked once for two reads
        for cid in range(3 * _PACE_MEMO_MAX):
            assert factory.base_pace(cid) == iteration_time_for(cid, 0.01, seed=3)
            assert len(factory._pace_memo) <= _PACE_MEMO_MAX

    @pytest.mark.parametrize("norm", ["batch", "group"])
    def test_handed_off_replica_equals_fresh_after_load_global(self, env_data, norm):
        """A replica whose previous owner trained is, once the next round's
        broadcast is loaded, the model a fresh ``model_fn()`` would be."""
        from repro.nn import SGD

        model_fn = lambda: micro_wrn(norm=norm)  # noqa: E731
        reference = model_fn()
        params, buffers = reference.arena().values, reference.arena().buffers

        def start_round(client):
            client.load_global(params, buffers)
            return client

        factory = make_factory(env_data, model_fn=model_fn)
        owner = start_round(factory.create(0))
        for _ in range(2):
            owner.train_step(SGD(owner.model, lr=0.1))
        used = owner.model
        factory.release(owner)
        assert not hasattr(owner, "model")  # a stale reference cannot train it
        recycled = start_round(factory.create(1))
        assert recycled.model is used
        fresh = start_round(
            make_factory(env_data, model_fn=model_fn).create(1)
        )
        assert fresh.model is not used
        assert_state_equal(recycled.model.state_dict(), fresh.model.state_dict())
        assert_state_equal(recycled.model.buffer_dict(), fresh.model.buffer_dict())
        assert_state_equal(recycled.capture_state(), fresh.capture_state())
        for name, layer in recycled.model.named_modules():
            assert layer.training, name
            assert held_array_bytes(layer) == 0, name  # no activation cached
        # ... and it trains to the same bytes, dropout masks included.
        for client in (recycled, fresh):
            client.train_step(SGD(client.model, lr=0.1))
        assert_state_equal(recycled.model.state_dict(), fresh.model.state_dict())
        assert_state_equal(recycled.model.buffer_dict(), fresh.model.buffer_dict())


# ----------------------------------------------------------------------
# LRU paging
# ----------------------------------------------------------------------
class TestLazyClientPopulation:
    def test_len_and_indexing(self, env_data):
        pop = LazyClientPopulation(make_factory(env_data), capacity=2)
        assert len(pop) == NUM_CLIENTS
        assert pop[3].client_id == 3
        with pytest.raises(IndexError):
            pop[NUM_CLIENTS]
        with pytest.raises(TypeError):
            pop["0"]

    def test_iteration_refused(self, env_data):
        pop = LazyClientPopulation(make_factory(env_data), capacity=2)
        with pytest.raises(TypeError, match="materialise"):
            list(pop)

    def test_lru_eviction_and_counters(self, env_data):
        pop = LazyClientPopulation(make_factory(env_data), capacity=2)
        cache = pop.cache
        cache.acquire(0)
        cache.acquire(1)
        assert sorted(cache._residents) == [0, 1]
        assert cache.evictions == 0
        cache.acquire(2)  # evicts 0 (least recent)
        assert sorted(cache._residents) == [1, 2]
        assert cache.evictions == 1
        cache.acquire(1)  # hit refreshes recency
        cache.acquire(3)  # now evicts 2, not 1
        assert sorted(cache._residents) == [1, 3]
        cache.acquire(0)  # snapshot-backed rehydration
        assert cache.rehydrations == 1

    def test_a_chunk_never_evicts_its_own_members(self, env_data):
        """Paging a chunk's misses evicts only non-members: residents
        a b c d (a least recent) then chunk [x, a] evict b alone — paged one
        cid at a time, x would evict a and a would evict b to come back."""
        population = LazyClientPopulation(make_factory(env_data), capacity=4)
        cache = population.cache
        for cid in (0, 1, 2, 3):
            population[cid].stream.next_batch()
            assert len(cache._residents) <= cache.capacity
        x, a = 4, 0
        chunk = population.acquire_chunk([x, a])
        assert [c.client_id for c in chunk] == [x, a]
        assert len(cache._residents) <= cache.capacity
        assert (cache.evictions, cache.rehydrations) == (1, 0)
        assert list(cache._residents) == [2, 3, x, a]
        assert list(cache._snapshots) == [1]
        population.acquire_chunk([1, 2])  # a parked member pages back in
        assert len(cache._residents) <= cache.capacity
        assert (cache.evictions, cache.rehydrations) == (2, 1)

    def test_reserve_grows_capacity(self, env_data):
        pop = LazyClientPopulation(make_factory(env_data), capacity=1)
        pop.reserve(4)
        assert pop.cache.capacity == 4
        pop.reserve(2)  # never shrinks
        assert pop.cache.capacity == 4

    def test_evict_rehydrate_round_trip(self, env_data):
        pop = LazyClientPopulation(make_factory(env_data), capacity=1)
        client = pop[0]
        client.stream.next_batch()
        client.trace.iteration_finish_time(0.0, 5)
        before = client.capture_state()
        pop.cache.acquire(1)  # evicts 0
        assert sorted(pop.cache._residents) == [1]
        after = pop[0].capture_state()
        assert_state_equal(after, before)

    def test_rehydrated_equals_never_evicted(self, env_data):
        roomy = LazyClientPopulation(make_factory(env_data), capacity=5)
        tight = LazyClientPopulation(make_factory(env_data), capacity=1)
        for pop in (roomy, tight):
            c0 = pop[0]
            c0.stream.next_batch()
            pop[1].stream.next_batch()  # evicts 0 in the tight cache only
            c0 = pop[0]
            c0.stream.next_batch()
        assert tight.cache.rehydrations >= 1
        assert roomy.cache.rehydrations == 0
        assert_state_equal(tight[0].capture_state(), roomy[0].capture_state())

    def test_strategy_state_round_trips_through_eviction(self, env_data):
        # Wire codecs carry evolving state (quant8: RNG position; top-k:
        # error-feedback residuals). It is kept on the client, so the
        # client's own snapshot must carry it through eviction bit-exactly.
        from repro.runtime import parse_wire_spec

        update = {"w": np.linspace(-1.0, 1.0, 32, dtype=np.float32)}
        for spec in ("quant8", "topk:0.1"):
            strategy = build_strategy("fedavg", OPT)
            strategy.set_wire(parse_wire_spec(spec))
            pop = LazyClientPopulation(make_factory(env_data), capacity=1)
            strategy.wire.encode(pop[0], update)
            before = pop[0].capture_state()["kept"]["wire"]

            pop.cache.acquire(1)  # evicts 0; its codec leaves with it
            assert sorted(pop.cache._residents) == [1]
            # The evicted client's state exists nowhere but in the pager's
            # snapshot: the strategy and its wire layer hold nothing.
            assert_state_equal(decode(pop.cache._snapshots[0])["kept"]["wire"], before)
            assert per_client_holdings(strategy) == []
            assert per_client_holdings(strategy.wire) == []
            client = pop.cache.acquire(0)  # rehydrates client and codec
            assert_state_equal(client.capture_state()["kept"]["wire"], before)
            # ...and the rehydrated codec continues where the evicted one
            # stopped, exactly like one that never left.
            twin = LazyClientPopulation(make_factory(env_data), capacity=2)
            strategy.wire.encode(twin[0], update)
            got, _ = strategy.wire.encode(client, update)
            want, _ = strategy.wire.encode(twin[0], update)
            np.testing.assert_array_equal(got["w"], want["w"])

    def test_capture_run_state_merges_resident_and_evicted(self, env_data):
        pop = LazyClientPopulation(make_factory(env_data), capacity=1)
        pop[0].stream.next_batch()
        pop[1].stream.next_batch()  # 0 evicted with advanced state
        state = pop.capture_run_state()
        assert sorted(state) == [0, 1]
        # Untouched clients need no entry: they are (seed, cid)-determined.
        assert 2 not in state
        # The evicted client's entry is the pager's blob itself, undecoded,
        # the resident's a live capture; a slice returns only what it names.
        assert state[0] is pop.cache._snapshots[0]
        assert_state_equal(decode(state[1]), pop[1].capture_state())
        assert sorted(pop.capture_run_state([1, 3])) == [1]


def draw_masks(client, n):
    """Advance the replica's layer RNG the way ``n`` training forwards do."""
    dropouts = [m for _, m in client.model.named_modules() if isinstance(m, Dropout)]
    for i in range(n):
        dropouts[i % len(dropouts)].forward(np.ones((2, 3), dtype=np.float32))


def fedca_with_wire():
    from repro.runtime import parse_wire_spec

    strategy = build_strategy("fedca", OPT, fedca_config=FedCAConfig(profile_every=2))
    strategy.set_wire(parse_wire_spec("topk:0.25"))
    return strategy


def run_anchor(strategy, client, steps):
    """Profile ``client`` the way an anchor round of ``steps`` iterations
    does, without training: drifted parameters stand in for SGD."""
    from repro.core import AnchorRecorder

    anchor = client.model.state_dict()
    profile = strategy.profile(client)
    recorder = AnchorRecorder(profile.sampler(client.model))
    for tau in range(1, steps + 1):
        drifted = {
            name: arr + 0.01 * tau * (1 + np.abs(arr)) for name, arr in anchor.items()
        }
        recorder.record(drifted, anchor)
    profile.curves = recorder.finalize(round_index=0)


@settings(max_examples=25, deadline=None)
@given(
    cid=st.integers(min_value=0, max_value=NUM_CLIENTS - 1),
    batches=st.integers(min_value=0, max_value=7),
    trace_iters=st.integers(min_value=0, max_value=9),
    masks=st.integers(min_value=0, max_value=5),
    encodes=st.integers(min_value=0, max_value=3),
    anchor_steps=st.sampled_from([0, 3]),
    churn=st.lists(
        st.integers(min_value=0, max_value=NUM_CLIENTS - 1),
        min_size=1, max_size=6,
    ),
)
def test_evict_rehydrate_round_trip_property(
    precomputed_env, cid, batches, trace_iters, masks, encodes, anchor_steps, churn
):
    """Any mutation sequence survives any eviction churn bit-exactly —
    including the layer RNG of the one replica every client here shares and
    whatever the strategy and the wire layer keep on the client."""
    pop = LazyClientPopulation(
        make_factory(precomputed_env, model_fn=micro_wrn), capacity=1
    )
    strategy = fedca_with_wire()
    update = {"w": np.linspace(-1.0, 1.0, 16, dtype=np.float32)}
    fresh_rng = micro_wrn().rng_state()
    client = pop[cid]
    assert client.model.rng_state() == fresh_rng
    for _ in range(batches):
        client.stream.next_batch()
    if trace_iters:
        client.trace.iteration_finish_time(0.0, trace_iters)
    draw_masks(client, masks)
    for i in range(encodes):
        strategy.wire.encode(client, {"w": update["w"] * (i + 1)})
    if anchor_steps:
        run_anchor(strategy, client, anchor_steps)
    before = client.capture_state()
    assert len(before["model_rng"]) == 1  # WRN's dropouts share one generator
    owners = ["fedca"] * bool(anchor_steps) + ["wire"] * bool(encodes)
    assert list(before.get("kept", {})) == owners
    seen = {cid}
    for other in churn:
        if other != cid:
            visitor = pop[other]
            if other not in seen:  # a never-seen cid gets a fresh replica's RNG
                assert visitor.model.rng_state() == fresh_rng
                seen.add(other)
            visitor.stream.next_batch()
            draw_masks(visitor, 1 + masks)
            strategy.wire.encode(visitor, update)
    # Rehydrated but not yet touched by any owner: pending snapshots are
    # carried; once the owners adopt them, the live objects say the same.
    client = pop[cid]
    assert_state_equal(client.capture_state(), before)
    strategy.profile(client)  # an empty profile adds no entry
    if encodes:
        strategy.wire.codec_for(client)
    assert_state_equal(client.capture_state(), before)
    # restore_state(s) → capture_state() is the identity with no owner around.
    other = make_factory(precomputed_env, model_fn=micro_wrn).create(cid)
    other.restore_state(before)
    assert_state_equal(other.capture_state(), before)


def _mutate_fedavg_raw(strategy, client):
    pass


def _mutate_fedca_curves(strategy, client):
    run_anchor(strategy, client, 3)


def _mutate_topk_residuals(strategy, client):
    strategy.wire.encode(client, {"w": np.linspace(-1.0, 1.0, 32, dtype=np.float32)})


def _mutate_dropout_rng(strategy, client):
    draw_masks(client, 3)


@pytest.mark.parametrize(
    "model_fn, wire, mutate, entries",
    [
        (lenet, None, _mutate_fedavg_raw, {"stream", "trace"}),
        (lenet, None, _mutate_fedca_curves, {"stream", "trace", "kept"}),
        (lenet, "topk:0.1", _mutate_topk_residuals, {"stream", "trace", "kept"}),
        (micro_wrn, None, _mutate_dropout_rng, {"stream", "trace", "model_rng"}),
    ],
    ids=["fedavg-raw", "fedca-curves", "topk-residuals", "dropout-rng"],
)
def test_parked_client_equals_never_evicted(env_data, model_fn, wire, mutate, entries):
    """A client that sat in the pager as a blob is the client that never
    left: same captured state, same next batches, same next compute times."""
    from repro.runtime import parse_wire_spec

    strategy = build_strategy("fedca", OPT, fedca_config=FedCAConfig(profile_every=2))
    if wire:
        strategy.set_wire(parse_wire_spec(wire))
    roomy = LazyClientPopulation(make_factory(env_data, model_fn=model_fn), capacity=5)
    tight = LazyClientPopulation(make_factory(env_data, model_fn=model_fn), capacity=1)
    for pop in (roomy, tight):
        client = pop[2]
        client.stream.next_batch()
        client.trace.forget_before(30.0)
        client.trace.iteration_finish_time(31.0, 40)
        mutate(strategy, client)
        pop[3].stream.next_batch()  # parks client 2 in the tight cache only
    assert sorted(tight.cache._residents) == [3] and type(tight.cache._snapshots[2]) is bytes
    assert roomy.cache.evictions == 0
    parked, live = tight[2], roomy[2]
    assert tight.cache.rehydrations == 1
    assert set(live.capture_state()) == entries
    assert_state_equal(parked.capture_state(), live.capture_state())
    for _ in range(3):
        for got, want in zip(parked.stream.next_batch(), live.stream.next_batch()):
            np.testing.assert_array_equal(got, want)
    t = 35.0
    for _ in range(3):
        t = live.trace.iteration_finish_time(t, 50)
        assert parked.trace.iteration_finish_time(t - 1.0, 50) == \
            live.trace.iteration_finish_time(t - 1.0, 50)
    assert_state_equal(parked.capture_state(), live.capture_state())


# ----------------------------------------------------------------------
# Damage to a real client's blob
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def client_blob(env_data):
    """The encoded state of a client that drew batches, compute times and
    dropout masks and holds FedCA curves and top-k residuals."""
    client = make_factory(env_data, model_fn=micro_wrn).create(0)
    strategy = fedca_with_wire()
    client.stream.next_batch()
    client.trace.iteration_finish_time(0.0, 4)
    draw_masks(client, 2)
    strategy.wire.encode(client, {"w": np.linspace(-1, 1, 16, dtype=np.float32)})
    run_anchor(strategy, client, 3)
    state = client.capture_state()
    assert set(state) == {"stream", "trace", "model_rng", "kept"}
    return encode(state)


def test_every_proper_prefix_of_a_blob_is_corrupt(client_blob):
    from repro.persist import CheckpointCorruptError

    for cut in range(len(client_blob)):
        with pytest.raises(CheckpointCorruptError):
            decode(client_blob[:cut])
    with pytest.raises(CheckpointCorruptError, match="trailing"):
        decode(client_blob + b"\x00")


def test_every_single_byte_corruption_is_caught_or_differs(client_blob):
    # Only CheckpointCorruptError may escape (a struct.error or IndexError
    # fails the test); a blob that still decodes must say something else.
    from repro.persist import CheckpointCorruptError

    original = decode(client_blob)
    rng = np.random.default_rng(0)
    raised = 0
    for pos in range(len(client_blob)):
        for value in {0x00, 0xFF, client_blob[pos] ^ 0x01, int(rng.integers(256))}:
            if value == client_blob[pos]:
                continue
            damaged = client_blob[:pos] + bytes((value,)) + client_blob[pos + 1 :]
            try:
                tree = decode(damaged)
            except CheckpointCorruptError:
                raised += 1
            else:
                assert not same_tree(tree, original), f"byte {pos} -> {value:#x} unnoticed"
    assert raised > 100  # tags, lengths, keys, dtype codes: the structure


@pytest.fixture(scope="module")
def precomputed_env(env_data):
    # hypothesis forbids function-scoped fixtures; reuse the module data.
    return env_data


# ----------------------------------------------------------------------
# Lazy ↔ eager bitwise run identity (history JSON + JSONL trace)
# ----------------------------------------------------------------------
def run_traced(env_data, scheme, *, executor, population, model_fn=lenet, **overrides):
    _, shards, test = env_data
    fedca_cfg = FedCAConfig(profile_every=2) if scheme.startswith("fedca") else None
    rec = TraceRecorder()
    kwargs = dict(
        model_fn=model_fn,
        strategy=build_strategy(scheme, OPT, fedca_config=fedca_cfg),
        shards=shards,
        test_set=test,
        base_iteration_times=PACE,
        batch_size=8,
        local_iterations=ITERS,
        aggregation_fraction=0.8,
        seed=1,
        executor=executor,
        recorder=rec,
        population=population,
    )
    sim = FederatedSimulator(**{**kwargs, **overrides})
    try:
        hist = sim.run(4)
    finally:
        sim.close()
    # The pager's gauges exist exactly when there is a pager, and (being
    # gauges) are in neither byte stream the identity tests compare.
    pager_gauges = {
        "repro_population_snapshot_bytes",
        "repro_population_parked_clients",
        "repro_population_rss_bytes",
    }
    assert (pager_gauges <= set(rec.gauges)) == (population is not None)
    hist_json, trace_jsonl = history_to_json(hist), events_to_jsonl(rec.events())
    assert "repro_population" not in hist_json + trace_jsonl
    return hist_json, trace_jsonl


ENGINES = [
    pytest.param("serial", id="serial"),
    pytest.param("parallel:2@shm", id="parallel-shm",
                 marks=[needs_fork, needs_shm]),
    pytest.param("cohort:4", id="cohort"),
]


@pytest.mark.parametrize("executor", ENGINES)
@pytest.mark.parametrize(
    "scheme, model_fn",
    [("fedavg", lenet), ("fedca", lenet), ("fedavg", micro_wrn)],
    ids=["fedavg", "fedca", "fedavg-dropout"],
)
def test_lazy_matches_eager_bitwise(env_data, scheme, model_fn, executor):
    hist_eager, trace_eager = run_traced(
        env_data, scheme, executor=executor, population=None, model_fn=model_fn
    )
    # cache=2 < both the 4-client selection and the cohort chunk: constant
    # eviction pressure (reserve() lifts it to the engine's floor). With
    # dropout the replica's layer RNG is client state that must survive it.
    hist_lazy, trace_lazy = run_traced(
        env_data, scheme, executor=executor, population="lazy:cache=2",
        model_fn=model_fn,
    )
    assert hist_lazy == hist_eager
    assert trace_lazy == trace_eager


@needs_fork
@needs_shm
def test_parallel_workers_chunk_within_the_residency_bound(env_data):
    """A worker trains its jobs as stacked chunks, but never wider than
    ``cache=N``: each of two workers takes its six clients two at a time,
    ``parallel`` does not raise the bound, and the run is the eager serial
    one (a chunk wider than the cache would evict a member mid-program and
    snapshot stale state)."""
    executor = resolve_executor("parallel:2")
    twelve = dict(
        shards=SubsampledShards(env_data[0], 12, 16, seed=2),
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.01, seed=2),
    )
    lazy = run_traced(
        env_data, "fedca", executor=executor, population="lazy:cache=2", **twelve
    )
    assert lazy == run_traced(
        env_data, "fedca", executor=SerialExecutor(), population=None, **twelve
    )
    assert executor._clients.resident_capacity == 2
    # Every chunk was two wide: two slots offered per batched step.
    occupancy = executor.occupancy()
    assert occupancy["slot_steps"] == 2 * occupancy["steps"] > 0


@pytest.mark.parametrize("executor", ["serial", "cohort:4"])
def test_page_in_builds_no_model(env_data, executor):
    """A cache slot owns its replica: over a whole lazy run ``model_fn``
    runs for the global model, once per slot, and at most once more."""
    train, _, test = env_data
    built = []

    def counting_model_fn():
        built.append(1)
        return lenet()

    sim = FederatedSimulator(
        model_fn=counting_model_fn,
        strategy=build_strategy("fedavg", OPT),
        shards=SubsampledShards(train, 12, 16, seed=2),
        test_set=test,
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.01, seed=2),
        batch_size=8,
        local_iterations=2,
        clients_per_round=12,
        seed=1,
        executor=executor,
        population="lazy:cache=4",
    )
    with sim:
        sim.run(5)
        cache = sim.population.cache
    assert cache.creations >= 5 * 12 - cache.capacity  # every round pages
    assert len(built) <= 1 + cache.capacity + 1


def test_lazy_checkpoint_resume_matches_uninterrupted(env_data):
    check_resume_matches_uninterrupted(env_data, "fedca", lenet, "serial")


@pytest.mark.parametrize("executor", ENGINES)
def test_checkpoint_resume_with_dropout_matches_uninterrupted(env_data, executor):
    check_resume_matches_uninterrupted(env_data, "fedavg", micro_wrn, executor)


def check_resume_matches_uninterrupted(env_data, scheme, model_fn, executor):
    from repro.persist import RunCheckpoint

    _, shards, test = env_data

    def build(population):
        return FederatedSimulator(
            model_fn=model_fn,
            strategy=build_strategy(scheme, OPT,
                                    fedca_config=FedCAConfig(profile_every=2)),
            shards=shards,
            test_set=test,
            base_iteration_times=PACE,
            batch_size=8,
            local_iterations=ITERS,
            seed=1,
            executor=executor,
            population=population,
        )

    with build("lazy:cache=2") as sim:
        sim.run(2)
        ckpt = RunCheckpoint.from_simulator(sim)
        sim.run(2)
        full = history_to_json(sim.history)

    with build("lazy:cache=2") as resumed:
        ckpt.restore_into(resumed)
        resumed.run(2)
        assert history_to_json(resumed.history) == full

    # A lazy checkpoint restores into an eager simulator too (and vice
    # versa): the snapshot format is population-agnostic.
    with build(None) as eager:
        ckpt.restore_into(eager)
        eager.run(2)
        assert history_to_json(eager.history) == full

    # Eager checkpoint → eager resume: with dropout this is the same hole
    # (a rebuilt replica rewinds its layer RNG) without any paging.
    with build(None) as sim:
        sim.run(2)
        eager_ckpt = RunCheckpoint.from_simulator(sim)
    with build(None) as resumed:
        eager_ckpt.restore_into(resumed)
        resumed.run(2)
        assert history_to_json(resumed.history) == full


def build_fedca_topk(env_data, population):
    train, _, test = env_data
    return FederatedSimulator(
        model_fn=lenet,
        strategy=fedca_with_wire(),
        shards=SubsampledShards(train, 12, 16, seed=2),
        test_set=test,
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.01, seed=2),
        batch_size=8,
        local_iterations=ITERS,
        seed=1,
        population=population,
    )


def test_no_strategy_side_per_client_state(env_data):
    """Structural guard: whatever a scheme or the wire layer remembers about
    a client lives on that client, never in a dict on the strategy side."""
    with build_fedca_topk(env_data, None) as sim:
        sim.run(3)
        assert per_client_holdings(sim.strategy) == []
        assert per_client_holdings(sim.strategy.wire) == []
        # ...and it does exist: every client was profiled and transmitted.
        for client in sim.clients:
            assert list(client.capture_state()["kept"]) == ["fedca", "wire"]


def test_resume_keeps_the_residency_bound(env_data, tmp_path):
    """``cache=N`` holds across a resume: the checkpoint seeds snapshots into
    the pager and materialises no client, curve set or codec."""
    from repro.persist import find_latest_checkpoint, save_run_checkpoint

    with build_fedca_topk(env_data, "lazy:cache=2") as sim:
        sim.run(3)
        save_run_checkpoint(sim, str(tmp_path))
        sim.run(1)
        full = history_to_json(sim.history)

    with build_fedca_topk(env_data, "lazy:cache=2") as resumed:
        resumed.resume(find_latest_checkpoint(str(tmp_path)))
        cache = resumed.population.cache
        assert len(cache) == 0 and cache.creations == 0
        assert sorted(cache._snapshots) == list(range(12))
        assert per_client_holdings(resumed.strategy) == []
        assert per_client_holdings(resumed.strategy.wire) == []
        resumed.run(1)
        assert len(cache) <= 2
        assert per_client_holdings(resumed.strategy) == []
        assert per_client_holdings(resumed.strategy.wire) == []
        assert history_to_json(resumed.history) == full


# ----------------------------------------------------------------------
# History spill (unbounded client_events growth fix)
# ----------------------------------------------------------------------
class TestHistorySpill:
    def _record(self, i):
        return RoundRecord(
            round_index=i, start_time=0.0, end_time=1.0, accuracy=0.5,
            mean_loss=0.1, collected_clients=(0,), straggler_clients=(),
            mean_iterations=1.0, total_bytes=10,
            client_events={0: {"early_stop_iteration": 3}},
        )

    def test_retained_by_default(self):
        hist = RunHistory()
        hist.append(self._record(0))
        assert hist.records[0].client_events
        assert hist.early_stop_iterations() == [3]

    def test_spill_drops_events_keeps_summaries(self):
        hist = RunHistory(retain_client_events=False)
        hist.append(self._record(0))
        assert hist.records[0].client_events == {}
        assert hist.records[0].accuracy == 0.5
        assert hist.early_stop_iterations() == []

    def test_simulator_spill_flag(self, env_data):
        _, shards, test = env_data
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OPT),
            shards=shards,
            test_set=test,
            base_iteration_times=PACE,
            batch_size=8,
            local_iterations=ITERS,
            seed=1,
            spill_client_events=True,
        )
        with sim:
            record = sim.run_round()
        assert sim.history.records[0].client_events == {}
        assert record.client_events  # the returned record is untouched


# ----------------------------------------------------------------------
# Scale partition + per-cid pace helpers
# ----------------------------------------------------------------------
class TestSubsampledShards:
    def test_deterministic_and_sized(self, env_data):
        train, _, _ = env_data
        provider = SubsampledShards(train, 1000, 16, alpha=0.5, seed=9)
        assert len(provider) == 1000
        s1, s2 = provider.shard(123), provider.shard(123)
        np.testing.assert_array_equal(s1.x, s2.x)
        np.testing.assert_array_equal(s1.y, s2.y)
        assert len(s1) == 16 == provider.shard_size(123)

    def test_clients_differ(self, env_data):
        train, _, _ = env_data
        provider = SubsampledShards(train, 1000, 16, alpha=0.5, seed=9)
        a, b = provider.shard(0), provider.shard(1)
        assert not (a.x.shape == b.x.shape and np.array_equal(a.x, b.x))

    def test_uniform_mode(self, env_data):
        train, _, _ = env_data
        provider = SubsampledShards(train, 10, 8, alpha=None, seed=9)
        assert len(provider.shard(3)) == 8

    @pytest.mark.parametrize("alpha", [0.5, None])
    def test_draws_equal_the_per_client_reference(self, env_data, alpha):
        """The vectorised seed and the checks-free class draw give the
        shards ``default_rng(SeedSequence(...))`` + ``choice(p=)`` gave."""
        train, _, _ = env_data
        provider = SubsampledShards(train, 300, 16, alpha=alpha, seed=9)
        for cid in range(300):
            np.testing.assert_array_equal(
                provider.shard(cid).y, reference_shard(provider, cid).y
            )

    def test_validation(self, env_data):
        train, _, _ = env_data
        with pytest.raises(ValueError):
            SubsampledShards(train, 0, 16)
        with pytest.raises(ValueError):
            SubsampledShards(train, 10, 0)
        with pytest.raises(ValueError):
            SubsampledShards(train, 10, 16, alpha=-1.0)
        with pytest.raises(ValueError):
            SubsampledShards(train, 10, 16).shard(10)


class TestIterationTimeFor:
    def test_deterministic_per_cid(self):
        a = iteration_time_for(42, 0.01, seed=5)
        assert a == iteration_time_for(42, 0.01, seed=5)
        assert a != iteration_time_for(43, 0.01, seed=5)
        assert a != iteration_time_for(42, 0.01, seed=6)

    def test_bounds(self):
        for cid in range(200):
            t = iteration_time_for(cid, 0.01, max_ratio=10.0, seed=0)
            assert 0.01 <= t <= 0.1 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            iteration_time_for(0, 0.0)
        with pytest.raises(ValueError):
            iteration_time_for(-1, 0.01)
        with pytest.raises(ValueError):
            iteration_time_for(0, 0.01, sigma=-1)
        with pytest.raises(ValueError):
            iteration_time_for(0, 0.01, max_ratio=0.5)


# ----------------------------------------------------------------------
# Spec parsing + misc plumbing
# ----------------------------------------------------------------------
class TestParsePopulationSpec:
    def test_eager_forms(self):
        assert parse_population_spec(None) == ("eager", None)
        assert parse_population_spec("eager") == ("eager", None)

    def test_lazy_forms(self):
        assert parse_population_spec("lazy") == ("lazy", DEFAULT_CACHE_CLIENTS)
        assert parse_population_spec("lazy:cache=7") == ("lazy", 7)

    @pytest.mark.parametrize(
        "bad", ["lazy:cache=0", "lazy:cache=x", "lazy:weird=1", "keen", "lazy:"]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="population spec|cache size"):
            parse_population_spec(bad)


def test_as_shard_provider_passthrough(env_data):
    train, shards, _ = env_data
    wrapped = as_shard_provider(shards)
    assert isinstance(wrapped, MaterializedShards)
    assert as_shard_provider(wrapped) is wrapped
    provider = SubsampledShards(train, 10, 8, seed=0)
    assert as_shard_provider(provider) is provider


def test_parked_clients_are_small_flat_blobs():
    """200 rounds over 300 clients at ``cache=4``: what the pager holds per
    parked client is one ``bytes`` object of a few hundred bytes — no dict,
    list or array is reachable from ``_snapshots`` — and the running total
    it reports is their exact sum."""
    from repro.data import make_image_dataset, train_test_split

    pool = make_image_dataset(
        num_samples=400, num_classes=4, channels=1, image_size=8, seed=5
    )
    train, test = train_test_split(pool, test_fraction=0.2, seed=6)
    rec = TraceRecorder()
    sim = FederatedSimulator(
        model_fn=lambda: LeNetCNN(
            in_channels=1, image_size=8, num_classes=4, conv_channels=(2, 2),
            fc_sizes=(8, 8), rng=np.random.default_rng(7),
        ),
        strategy=build_strategy("fedavg", OPT),
        shards=SubsampledShards(train, 300, 16, alpha=0.5, seed=2),
        test_set=test,
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.5, seed=2),
        batch_size=8,
        local_iterations=2,
        clients_per_round=4,
        seed=1,
        population="lazy:cache=4",
        recorder=rec,
    )
    with sim:
        sim.run(200)
        cache = sim.population.cache
    parked = cache.parked_clients
    assert parked > 200 and sim.time > 200.0  # most of the population, many modes
    assert per_client_holdings(cache, at_rest=(bytes,)) == ["_residents"]
    assert cache.snapshot_bytes == sum(map(len, cache._snapshots.values()))
    assert cache.snapshot_bytes / parked <= 450
    assert rec.gauges["repro_population_snapshot_bytes"] == cache.snapshot_bytes
    assert rec.gauges["repro_population_parked_clients"] == parked


def test_lazy_run_bounds_materialisation(env_data):
    """A lazy run touches only selected clients — creations stay well under
    the population when participation is sparse."""
    _, shards, test = env_data
    sim = FederatedSimulator(
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
        strategy=build_strategy("fedavg", OPT),
        shards=shards,
        test_set=test,
        base_iteration_times=PACE,
        batch_size=8,
        local_iterations=ITERS,
        clients_per_round=2,
        seed=1,
        population="lazy:cache=2",
    )
    with sim:
        sim.run(2)
    assert len(sim.population.cache) <= 2
    assert sim.population.cache.creations <= 2 * 2 + sim.population.cache.rehydrations
