"""The flat parameter arena: one ``(name, offset, shape)`` table per tensor
kind, every parameter, gradient and buffer a view into one vector.

Covers the ``flatten``/``views`` round trip over generated layouts, that
every engine leaves every live replica and every stack inside its arena at
the table's offsets (nothing rebinds ``p.data`` / ``p.grad`` / a buffer),
that a descendant's walk adopts its run of the ancestor's arena, and the
one read-only ``layer_bytes`` mapping an architecture's replicas share.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import OptimizerSpec, build_strategy
from repro.core import FedCAConfig
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import SGD, Linear, ReLU, Sequential, WideResNet
from repro.nn.layout import Layout
from repro.runtime import FederatedSimulator

NUM_CLIENTS = 5


def assert_in_arena(module) -> None:
    """Every parameter, gradient and buffer of ``module`` is the view of
    its arena that the layout tables say — same memory, offset, shape and
    strides."""
    arena = module.arena()
    lead = module.lead

    def check(tensors, layout, flat):
        assert len(tensors) == len(layout.entries)
        for (name, tensor), (entry, offset, shape) in zip(tensors, layout.entries):
            assert name == entry
            want = flat[..., offset : offset + math.prod(shape)].reshape(lead + shape)
            assert tensor.shape == want.shape, name
            assert tensor.strides == want.strides, name
            assert (
                tensor.__array_interface__["data"][0]
                == want.__array_interface__["data"][0]
            ), name
            if tensor.size:
                assert np.shares_memory(tensor, flat), name

    named = list(module.named_parameters())
    check([(n, p.data) for n, p in named], arena.layout, arena.values)
    check([(n, p.grad) for n, p in named], arena.layout, arena.grads)
    check(list(module.named_buffers()), arena.buffer_layout, arena.buffers)


# ----------------------------------------------------------------------
class TestLayout:
    @given(
        shapes=st.lists(
            st.lists(st.integers(0, 4), min_size=0, max_size=3).map(tuple),
            max_size=6,
        ),
        lead=st.sampled_from([(), (1,), (3,)]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_flatten_of_views_is_the_vector(self, shapes, lead, seed):
        layout = Layout.of(tuple((f"t{i}", s) for i, s in enumerate(shapes)))
        assert layout.size == sum(math.prod(s) for s in shapes)
        x = (
            np.random.default_rng(seed)
            .normal(size=lead + (layout.size,))
            .astype(np.float32)
        )
        views = layout.views(x)
        assert list(views) == [f"t{i}" for i in range(len(shapes))]
        for i, s in enumerate(shapes):
            assert views[f"t{i}"].shape == lead + s
        for row in np.ndindex(*lead):
            member = layout.views(x[row])
            assert layout.flatten(member).tobytes() == x[row].tobytes()
        # Views are zero-copy: a write lands in the vector.
        x[...] = 7.0
        assert all((v == 7.0).all() for v in views.values())

    def test_layouts_are_interned_and_picklable(self):
        import copy
        import pickle

        spec = (("a", (2, 3)), ("b", (4,)))
        layout = Layout.of(spec)
        assert Layout.of(spec) is layout
        assert pickle.loads(pickle.dumps(layout)) is layout
        assert copy.deepcopy(layout) is layout
        assert [e for e in layout.entries] == [("a", 0, (2, 3)), ("b", 6, (4,))]


# ----------------------------------------------------------------------
class TestModuleArena:
    def test_descendant_walk_adopts_its_run_of_the_ancestor_arena(self):
        rng = np.random.default_rng(0)
        inner = Sequential(Linear(4, 3, rng=rng), ReLU(), Linear(3, 2, rng=rng))
        model = Sequential(Linear(5, 4, rng=rng), inner)
        values = model.arena().values
        assert_in_arena(model)
        # Walking the descendant adopts a slice of the ancestor's arena
        # instead of laying out one of its own.
        sub = inner.arena()
        assert np.shares_memory(sub.values, values)
        assert_in_arena(inner)
        assert model.arena().values is values
        assert_in_arena(model)

    def test_walked_descendant_is_re_laid_into_a_new_ancestor(self):
        rng = np.random.default_rng(1)
        inner = Sequential(Linear(4, 3, rng=rng))
        before = inner.state_dict()
        inner.arena()  # inner lays out its own arena first
        model = Sequential(Linear(2, 4, rng=rng), inner)
        model.arena()
        assert_in_arena(model)
        assert_in_arena(inner)  # re-adopted inside the ancestor's arena
        assert np.shares_memory(inner.arena().values, model.arena().values)
        for name, value in inner.state_dict().items():
            assert value.tobytes() == before[name].tobytes()
        # A step through the ancestor moves what the descendant's layers read.
        model.arena().grads[...] = 1.0
        SGD(model, lr=0.5).step()
        np.testing.assert_allclose(
            inner._modules["0"].weight.data, before["0.weight"] - 0.5
        )

    def test_layer_bytes_is_one_read_only_mapping_per_architecture(self):
        train, test = make_workload_data("cnn", num_samples=200, seed=3)
        parts = dirichlet_partition(train, 3, alpha=0.5, seed=4, min_samples=8)
        from repro.nn import LeNetCNN

        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01] * 3,
            batch_size=8,
            local_iterations=2,
            seed=0,
        )
        a, b = sim.clients[0], sim.clients[1]
        assert a.model is not b.model
        assert a.layer_bytes is b.layer_bytes
        assert a.layer_bytes is sim.global_model.layer_bytes()
        with pytest.raises(TypeError):
            a.layer_bytes["conv1.weight"] = 0
        assert a.model_bytes == sum(a.layer_bytes.values())


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def env_data():
    train, test = make_workload_data("cnn", num_samples=400, seed=3)
    parts = dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=4, min_samples=8)
    return [train.subset(p) for p in parts], test


class TestArenaIntegrityAfterRuns:
    """Four rounds on each engine touch every path that writes a replica or
    a stack (loads, steps, write-back, the lazy pager's replica hand-off);
    afterwards every live model is still exactly its arena's views."""

    @staticmethod
    def run(env_data, executor, population=None):
        shards, test = env_data
        sim = FederatedSimulator(
            model_fn=lambda: WideResNet(
                depth=10, widen_factor=1, num_classes=10, dropout=0.3,
                norm="batch", rng=np.random.default_rng(7),
            ),
            strategy=build_strategy(
                "fedca", OptimizerSpec(lr=0.05, weight_decay=0.01, momentum=0.5),
                fedca_config=FedCAConfig(profile_every=2),
            ),
            shards=shards,
            test_set=test,
            base_iteration_times=[0.01, 0.012, 0.015, 0.02, 0.03],
            batch_size=8,
            local_iterations=3,
            aggregation_fraction=0.8,
            seed=1,
            executor=executor,
            population=population,
        )
        sim.run(4)
        return sim

    def test_serial(self, env_data):
        sim = self.run(env_data, "serial")
        assert_in_arena(sim.global_model)
        for cid in range(len(sim.clients)):
            assert_in_arena(sim.clients[cid].model)

    def test_cohort(self, env_data):
        sim = self.run(env_data, "cohort:4")
        stack = sim.executor._model
        assert stack.module.lead == (stack.width,)
        assert_in_arena(stack.module)
        for name, p in stack.params.items():
            assert p is dict(stack.module.named_parameters())[name]
        for cid in range(len(sim.clients)):
            assert_in_arena(sim.clients[cid].model)

    def test_lazy_replica_hand_off(self, env_data):
        sim = self.run(env_data, "serial", population="lazy:cache=2")
        cache = sim.population.cache
        assert cache.evictions > 0  # replicas changed hands
        live = [c.model for c in cache._residents.values()]
        live += cache.factory._spare_models
        assert live
        for model in live:
            assert_in_arena(model)
