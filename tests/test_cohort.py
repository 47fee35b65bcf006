"""Tests for the cohort executor: batched layer/model equivalence against the
serial oracle, ragged-cohort masking, FedCA early-stop parity via the JSONL
trace, executor-spec parsing, and the one round body per scheme that both
``Strategy`` drivers feed.

The serial executor is the oracle and a stacked member equals its serial
twin in bytes wherever its GEMMs have serial's operand shapes — tensors,
losses and simulated-time bookkeeping alike (DESIGN.md §12). That is every
member of an unpadded engine (what a ``parallel`` worker runs) and every
full-width member of a padded one; a member ``cohort[:M]`` zero-pads runs
its products at the padded row count, where BLAS promises no bits, so only
those are held to ``PAD_RTOL`` / ``PAD_ATOL`` — with timelines and
decisions still exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    STRATEGY_NAMES,
    FedAvg,
    FedCAAdaptiveBatch,
    OptimizerSpec,
    Strategy,
    build_strategy,
)
from repro.data import Dataset
from repro.experiments.configs import get_workload, make_environment
from repro.experiments.runner import RunSpec, run_scheme
from repro.nn import (
    SGD,
    BatchNorm2d,
    CohortModel,
    CohortSGD,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    GroupNorm2d,
    Identity,
    LeNetCNN,
    Linear,
    LSTM,
    LSTMClassifier,
    MaxPool2d,
    Module,
    ProxSGD,
    ReLU,
    Sequential,
    WideResNet,
    cohort_softmax_cross_entropy,
    softmax_cross_entropy,
    stack_module,
)
from repro.obs import TraceRecorder
from repro.runtime import (
    Binding,
    CohortEngine,
    CohortExecutor,
    RoundContext,
    SerialExecutor,
    resolve_executor,
)
from repro.runtime.client import SimClient
from repro.runtime.cohort import DEFAULT_COHORT_SIZE, STACK_BYTES, bound_width, chunk_widths
from repro.scale.cache import capture_blob
from repro.sysmodel import LinkModel, SpeedTrace

from .helpers import global_vectors
from .test_executor import history_fingerprint


# ----------------------------------------------------------------------
# Fixtures (same idiom as tests/test_algorithms.py)
# ----------------------------------------------------------------------
def tiny_shard(n=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3, 12, 12)).astype(np.float32)
    y = (np.arange(n) % 4).astype(np.int64)
    return Dataset(x, y, 10)


def model_fn():
    return LeNetCNN(rng=np.random.default_rng(3))


def make_client(cid=0, *, n=24, model=model_fn, base_time=0.01, mbps=10.0):
    return SimClient(
        cid,
        tiny_shard(n=n, seed=cid),
        model_fn=model,
        batch_size=8,
        trace=SpeedTrace(base_time, seed=cid, dynamic=False),
        link=LinkModel(uplink_mbps=mbps, downlink_mbps=mbps),
        seed=cid,
    )


class Population(list):
    """Hand-built clients as the population an engine binds: room for
    everyone, a chunk paged in by indexing."""

    resident_capacity = math.inf

    def reserve(self, n):
        pass

    def prefetch(self, cids):
        pass

    def acquire_chunk(self, cids):
        return [self[cid] for cid in cids]


class PagedPopulation(Population):
    """A population whose resident capacity bounds an engine sized at bind
    (every member step is one byte, so :data:`STACK_BYTES` never does),
    recording the chunks paged in."""

    def __init__(self, clients, capacity):
        super().__init__(clients)
        self.resident_capacity = capacity
        self.factory = types.SimpleNamespace(step_bytes=lambda: 1)
        self.chunks = []

    def acquire_chunk(self, cids):
        self.chunks.append(list(cids))
        return super().acquire_chunk(cids)


def ctx(round_index=0, iterations=6, deadline=100.0, assigned=None):
    return RoundContext(
        round_index=round_index,
        round_start=0.0,
        iterations=iterations,
        deadline=deadline,
        assigned_iterations=assigned,
    )


OPT = OptimizerSpec(lr=0.05, weight_decay=0.0)


def _all_subclasses(cls):
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | _all_subclasses(sub)
    return out


def clone_members(template_fn, c):
    """c independent serial models sharing the template's init weights."""
    return [template_fn() for _ in range(c)]


# ----------------------------------------------------------------------
# Layer-level equivalence: a stack of C independently initialised serial
# layers equals those C layers run one by one
# ----------------------------------------------------------------------
def stack_of(layers):
    """One stacked layer holding the given serial layers' parameters and
    buffers."""
    stacked = stack_module(layers[0], len(layers))
    for i, m in enumerate(layers):
        for (_, p), (_, q) in zip(stacked.named_parameters(), m.named_parameters()):
            p.data[i] = q.data
        for (_, b), (_, q) in zip(stacked.named_buffers(), m.named_buffers()):
            b[i] = q
    return stacked


def member_params(cohort, i):
    """Member ``i``'s parameters of a stack, by name (views of row ``i``)."""
    return {name: p.data[i] for name, p in cohort.params.items()}


def assert_same(got, want, what):
    """Bytes-equal: a stack member is its serial twin, not close to it."""
    assert got.shape == want.shape, what
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes(), what


#: For a zero-padded member only (module docstring): equal on the BLAS the
#: bytes were measured on, rounding-level on one that picks its kernel by
#: row count.
PAD_RTOL, PAD_ATOL = 1e-4, 1e-6


def assert_padded_close(got, want, what):
    np.testing.assert_allclose(got, want, rtol=PAD_RTOL, atol=PAD_ATOL, err_msg=what)


def assert_history_is_serial(got, want, *, padded=False):
    """The nine-field fingerprint in bytes; where the run zero-pads a
    member, the timeline and decision fields in bytes and the two that
    average tensor values at the padded tolerance."""
    if not padded:
        assert history_fingerprint(got) == history_fingerprint(want)
        return
    for g, w in zip(history_fingerprint(got), history_fingerprint(want), strict=True):
        assert g[:3] + g[5:] == w[:3] + w[5:]
        accuracy, mean_loss = w[3:5]
        assert g[3:5] == (
            pytest.approx(accuracy, abs=0.02), pytest.approx(mean_loss, rel=PAD_RTOL)
        )


def assert_stack_matches_members(layers, x, seed):
    """Forward, dX and every parameter gradient of the stack, member by
    member, against the serial layers, in bytes. Returns the stacked layer."""
    stacked = stack_of(layers)
    assert type(stacked) is type(layers[0]) and stacked.lead == (len(layers),)
    out = stacked.forward(x)
    g = np.random.default_rng(seed).normal(size=out.shape).astype(np.float32)
    dx = stacked.backward(g)
    for i, m in enumerate(layers):
        assert_same(out[i], m.forward(x[i]), f"out[{i}]")
        assert_same(dx[i], m.backward(g[i]), f"dx[{i}]")
        for (name, p), (_, q) in zip(stacked.named_parameters(), m.named_parameters()):
            assert_same(p.grad[i], q.grad, f"{name}.grad[{i}]")
    return stacked


COHORT = st.integers(1, 3)
SEED = st.integers(0, 10_000)


class TestCohortLayers:
    @settings(max_examples=25, deadline=None)
    @given(
        fin=st.integers(1, 9), fout=st.integers(1, 6), batch=st.integers(1, 5),
        bias=st.booleans(), cohort=COHORT, seed=SEED,
    )
    def test_linear_matches_serial(self, fin, fout, batch, bias, cohort, seed):
        rng = np.random.default_rng(seed)
        serial = [
            Linear(fin, fout, bias=bias, rng=np.random.default_rng(seed + s))
            for s in range(cohort)
        ]
        x = rng.normal(size=(cohort, batch, fin)).astype(np.float32)
        assert_stack_matches_members(serial, x, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        in_ch=st.integers(1, 3),
        out_ch=st.integers(1, 4),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad_frac=st.integers(0, 2),
        hw=st.integers(4, 9),
        batch=st.integers(1, 4),
        bias=st.booleans(),
        cohort=COHORT,
        seed=SEED,
    )
    def test_conv_property_matches_serial(
        self, in_ch, out_ch, k, stride, pad_frac, hw, batch, bias, cohort, seed
    ):
        """Forward/backward parity over random conv geometries (the member
        axis rides through ``F.im2col`` / ``F.col2im`` and broadcasts in the
        GEMMs)."""
        pad = min(pad_frac, k - 1)
        rng = np.random.default_rng(seed)
        serial = [
            Conv2d(
                in_ch, out_ch, k, stride=stride, padding=pad, bias=bias,
                rng=np.random.default_rng(seed + s),
            )
            for s in range(cohort)
        ]
        x = rng.normal(size=(cohort, batch, in_ch, hw, hw)).astype(np.float32)
        assert_stack_matches_members(serial, x, seed)

    def test_conv_reuses_its_column_buffers_across_steps(self):
        """A stacked conv keeps its rows and column buffers between
        steps: a second batch, and then a different batch width, must not
        see anything of the previous one. A replica keeps none."""
        rng = np.random.default_rng(11)
        serial = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        layer = stack_of([serial])
        seen = []
        for batch in (4, 4, 2):
            x = rng.normal(size=(1, batch, 2, 5, 5)).astype(np.float32)
            out = layer.forward(x)
            seen.append((layer._rows_buf, layer._cols_buf))
            g = rng.normal(size=out.shape).astype(np.float32)
            dx = layer.backward(g)
            layer.zero_grad()
            serial.zero_grad()
            ref_out = serial.forward(x[0])
            ref_dx = serial.backward(g[0])
            assert out[0].tobytes() == ref_out.tobytes()
            assert dx[0].tobytes() == np.ascontiguousarray(ref_dx).tobytes()
        assert seen[0][0] is seen[1][0] and seen[0][1] is seen[1][1]
        assert seen[2][0] is not seen[1][0] and seen[2][1] is not seen[1][1]
        assert serial._rows_buf is None and serial._cols_buf is None

    @pytest.mark.parametrize("layer_type", [ReLU, Identity, Flatten])
    @settings(max_examples=15, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=2, max_size=4),
        cohort=COHORT, seed=SEED,
    )
    def test_elementwise_layers_are_bytes_equal(self, layer_type, shape, cohort, seed):
        x = np.random.default_rng(seed).normal(size=(cohort, *shape)).astype(np.float32)
        x.flat[0] = 0.0  # ReLU's boundary
        stacked = assert_stack_matches_members(
            [layer_type() for _ in range(cohort)], x, seed
        )
        if layer_type is Flatten:
            assert stacked.forward(x).shape == (cohort, shape[0], int(np.prod(shape[1:])))

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 3), hw=st.integers(3, 9), batch=st.integers(1, 3),
        ch=st.integers(1, 3), levels=st.integers(2, 4), cohort=COHORT, seed=SEED,
    )
    def test_maxpool_tie_splitting_matches_serial(
        self, k, hw, batch, ch, levels, cohort, seed
    ):
        """Quantised values force frequent ties inside pooling windows;
        ragged edges are floor-truncated. Both sides run ``F.maxpool2d``."""
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, size=(cohort, batch, ch, hw, hw)).astype(np.float32)
        assert_stack_matches_members([MaxPool2d(k) for _ in range(cohort)], x, seed)

    def test_maxpool_width_one_is_bytes_equal_to_serial(self):
        """A width-1 stack is the serial layer with one more leading axis."""
        rng = np.random.default_rng(5)
        for k, hw in [(2, 8), (2, 7), (3, 10)]:
            x = rng.integers(0, 4, size=(1, 3, 4, hw, hw)).astype(np.float32)
            stacked = assert_stack_matches_members([MaxPool2d(k)], x, 5)
            assert stacked.forward(x).shape == (1, 3, 4, hw // k, hw // k)

    @pytest.mark.parametrize("layer_fn", [lambda k: GlobalAvgPool2d()], ids=["global-avg"])
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(1, 3), hw=st.integers(3, 9), batch=st.integers(1, 3),
        ch=st.integers(1, 3), cohort=COHORT, seed=SEED,
    )
    def test_average_pools_are_bytes_equal(self, layer_fn, k, hw, batch, ch, cohort, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(cohort, batch, ch, hw, hw)).astype(np.float32)
        assert_stack_matches_members([layer_fn(k) for _ in range(cohort)], x, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        groups=st.integers(1, 3), per_group=st.integers(1, 3), hw=st.integers(1, 5),
        batch=st.integers(1, 4), cohort=COHORT, seed=SEED,
    )
    def test_groupnorm_matches_serial(self, groups, per_group, hw, batch, cohort, seed):
        rng = np.random.default_rng(seed)
        ch = groups * per_group
        serial = [GroupNorm2d(groups, ch) for _ in range(cohort)]
        for m in serial:
            m.weight.data[...] = rng.normal(size=ch)
            m.bias.data[...] = rng.normal(size=ch)
        x = rng.normal(size=(cohort, batch, ch, hw, hw)).astype(np.float32)
        assert_stack_matches_members(serial, x, seed)

    @settings(max_examples=25, deadline=None)
    @given(
        p=st.sampled_from([0.0, 0.25, 0.5]),
        rows=st.lists(st.integers(0, 4), min_size=1, max_size=4),
        feat=st.integers(1, 5), seed=SEED,
    )
    def test_dropout_draws_each_members_own_stream(self, p, rows, feat, seed):
        """Member ``i``'s mask rows come from its own serial layer's RNG, in
        member order, exactly ``rows[i]`` of them; a member with no rows
        (inactive this step) draws nothing, and padded rows are zeroed."""
        c, width = len(rows), max(max(rows), 1)
        members = [Dropout(p, rng=np.random.default_rng(seed + i)) for i in range(c)]
        twins = [Dropout(p, rng=np.random.default_rng(seed + i)) for i in range(c)]
        stacked = stack_module(members[0], c)
        stacked.members, stacked.rows = members, np.array(rows)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(c, width, feat)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        out = stacked.forward(x)
        dx = stacked.backward(g)
        for i, (twin, b) in enumerate(zip(twins, rows)):
            if b:
                assert out[i, :b].tobytes() == twin.forward(x[i, :b]).tobytes()
                assert dx[i, :b].tobytes() == twin.backward(g[i, :b]).tobytes()
            if p:
                assert not out[i, b:].any() and not dx[i, b:].any()
            # Same stream position as the twin that trained alone.
            assert members[i]._rng.random() == twin._rng.random()

    @staticmethod
    def assert_loss_is_serial(logits, labels, counts):
        loss, grad = cohort_softmax_cross_entropy(logits, labels, counts)
        assert loss.dtype == np.float64 and grad.dtype == np.float32
        for i, n in enumerate(counts):
            # Padded rows (every row of an absent member) carry exactly-zero
            # gradient; an absent member's loss is 0.0.
            assert not grad[i, n:].any()
            if n == 0:
                assert loss[i] == 0.0
                continue
            ref_loss, ref_grad = softmax_cross_entropy(logits[i, :n], labels[i, :n])
            assert float(loss[i]) == ref_loss
            assert_same(grad[i, :n], ref_grad, f"grad[{i}]")

    def test_loss_matches_serial_with_ragged_counts(self):
        rng = np.random.default_rng(2)
        c, b, k = 3, 8, 5
        logits = rng.normal(size=(c, b, k)).astype(np.float32)
        labels = rng.integers(0, k, size=(c, b)).astype(np.int64)
        self.assert_loss_is_serial(logits, labels, np.array([8, 3, 0]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), c=st.integers(1, 6), b=st.integers(1, 64), k=st.integers(1, 12))
    def test_stacked_loss_is_the_serial_loss_in_bytes(self, data, c, b, k):
        """Loss value and gradient bytes of every member equal
        ``softmax_cross_entropy`` over its valid rows alone — a float32 mean
        and ``grad / n``, for any ``n`` (no power of two needed) and batches
        wide enough to cross numpy's pairwise-sum blocks."""
        counts = np.array(data.draw(st.lists(st.integers(0, b), min_size=c, max_size=c)))
        counts[data.draw(st.integers(0, c - 1))] = b  # the padded width is someone's
        rng = np.random.default_rng(data.draw(SEED))
        logits = (3 * rng.normal(size=(c, b, k))).astype(np.float32)
        labels = rng.integers(0, k, size=(c, b)).astype(np.int64)
        self.assert_loss_is_serial(logits, labels, counts)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(), c=st.integers(1, 6), n=st.integers(1, 12),
        ch=st.integers(1, 5), h=st.integers(1, 6), w=st.integers(1, 6),
    )
    def test_stacked_batchnorm_is_its_serial_members_in_bytes(
        self, training, data, c, n, ch, h, w
    ):
        """A stacked ``BatchNorm2d`` equals ``C`` independent serial layers
        each fed its own valid rows ``x[i, :rows[i]]``: output rows, dx,
        dγ, dβ and both running statistics, in bytes. An absent member's
        buffers and gradients are untouched; dx is zero on every padded row."""
        rows = np.array(data.draw(st.lists(st.integers(0, n), min_size=c, max_size=c)))
        rows[data.draw(st.integers(0, c - 1))] = n
        rng = np.random.default_rng(data.draw(SEED))
        serial = [BatchNorm2d(ch) for _ in range(c)]
        for m in serial:
            m.weight.data[...] = rng.normal(size=ch)
            m.bias.data[...] = rng.normal(size=ch)
            m.running_mean[...] = rng.normal(size=ch)
            m.running_var[...] = rng.uniform(0.5, 2.0, size=ch)
            m.train(training)
        stacked = stack_of(serial).train(training)
        stacked.rows = rows
        x = rng.normal(size=(c, n, ch, h, w)).astype(np.float32)
        g = rng.normal(size=x.shape).astype(np.float32)
        for i, r in enumerate(rows):
            g[i, r:] = 0.0  # what the stacked loss hands back for padded rows
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no empty-slice mean, no 0-division
            out = stacked.forward(x)
            dx = stacked.backward(g)
        for i, (m, r) in enumerate(zip(serial, rows)):
            assert not dx[i, r:].any()
            if r:
                assert_same(out[i, :r], m.forward(x[i, :r]), f"out[{i}]")
                assert_same(dx[i, :r], m.backward(g[i, :r]), f"dx[{i}]")
            for (name, p), (_, q) in zip(stacked.named_parameters(), m.named_parameters()):
                assert_same(p.grad[i], q.grad, f"{name}.grad[{i}]")
            for (name, b), (_, q) in zip(stacked.named_buffers(), m.named_buffers()):
                assert_same(b[i], q, f"{name}[{i}]")


# ----------------------------------------------------------------------
# Model-level training equivalence
# ----------------------------------------------------------------------
def train_serial(model, batches, labels, *, lr, wd, momentum):
    opt = SGD(model, lr, weight_decay=wd, momentum=momentum)
    for x, y in zip(batches, labels):
        logits = model.forward(x)
        _, grad = softmax_cross_entropy(logits, y)
        model.zero_grad()
        model.backward(grad)
        opt.step()


class TestCohortModel:
    @pytest.mark.parametrize(
        "template_fn,xshape",
        [
            (model_fn, (6, 3, 12, 12)),
            (lambda: LSTMClassifier(rng=np.random.default_rng(3)), (6, 12, 8)),
        ],
        ids=["cnn", "lstm"],
    )
    def test_training_matches_serial(self, template_fn, xshape):
        c, steps = 3, 3
        lr, wd, momentum = 0.05, 1e-4, 0.9
        rng = np.random.default_rng(7)
        members = clone_members(template_fn, c)
        cohort = CohortModel(members[0], c)
        cohort.load_global(*global_vectors(members[0]))
        cohort.bind_member_models(members)
        opt = CohortSGD(cohort, lr, weight_decay=wd, momentum=momentum)
        xs = rng.normal(size=(steps, c) + xshape).astype(np.float32)
        ys = rng.integers(0, 10, size=(steps, c, xshape[0])).astype(np.int64)

        counts = np.full(c, xshape[0])
        for t in range(steps):
            cohort.set_member_rows(counts)
            logits = cohort.forward(xs[t])
            _, grad = cohort_softmax_cross_entropy(logits, ys[t], counts)
            cohort.zero_grad()
            cohort.backward(grad)
            opt.step()

        for i, m in enumerate(members):
            ref = template_fn()
            ref.load_state_dict(members[0].state_dict())
            train_serial(
                ref,
                [xs[t, i] for t in range(steps)],
                [ys[t, i] for t in range(steps)],
                lr=lr, wd=wd, momentum=momentum,
            )
            got = member_params(cohort, i)
            for name, p in ref.named_parameters():
                assert_same(got[name], p.data, name)

    @pytest.mark.parametrize("c", [1, 2, 3, 5])
    def test_memoised_member_views_alias_the_stack(self, c):
        """``member_update(i)`` indexes ``(C, …)`` views of the round's
        update, built once per engine whatever rows the members ended in:
        each equals a fresh ``layout.views`` of member ``i``'s update, and a
        write through it lands in that update."""
        template = model_fn()
        clients = [make_client(k) for k in range(c)]
        cohort = CohortModel(template, c)
        params, buffers = global_vectors(template)
        engine = CohortEngine(cohort, clients, buffers)
        engine.load_global(params)
        opt = engine.build_optimizer(OPT, params)
        arena = cohort.module.arena()
        arena.values[...] = np.random.default_rng(c).normal(size=arena.values.shape)
        trained = arena.values.copy()
        want = trained - params
        # The odd members leave first, then the rest.
        live = engine.leave(np.arange(c) % 2 == 0, params, opt)
        order = engine.order[:live].tolist()
        assert sorted(order) == list(range(0, c, 2))
        assert order == [client.client_id for client in engine.clients[:live]]
        assert cohort.width == live
        assert engine.leave(np.zeros(live, dtype=bool), params, opt) == 0
        stacked = engine._update
        assert stacked.shape == (c, arena.values.shape[1])
        for i in range(c):
            got, fresh = engine.member_update(i), arena.layout.views(want[i])
            assert list(got) == list(fresh)
            for name, view in got.items():
                assert view.shape == fresh[name].shape, name
                assert view.tobytes() == fresh[name].tobytes(), name
                assert np.shares_memory(view, stacked), name
                view[...] = i + 0.5
        for i in range(c):
            assert (engine.member_update(i)["conv1.weight"] == np.float32(i + 0.5)).all()
        # Every replica got its own trained row back.
        for i, client in enumerate(clients):
            assert client.model.arena().values.tobytes() == trained[i].tobytes()

    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_unrelated_build_keeps_the_stack_arena(self, c):
        """Building another module re-walks every tree; a stack's arena
        must survive that as the same object, so the member rows a cohort
        round handed out before still write into it (a length-1 lead axis's
        stride is arbitrary)."""
        cohort = CohortModel(LeNetCNN(rng=np.random.default_rng(1)), c)
        values = cohort.module.arena().values
        row = values[0]
        LeNetCNN(rng=np.random.default_rng(2))
        assert cohort.module.arena().values is values
        row[...] = 3.5
        assert (member_params(cohort, 0)["conv1.weight"] == np.float32(3.5)).all()
        assert np.shares_memory(row, cohort.module.arena().values)

    @pytest.mark.parametrize(
        "template_fn",
        [model_fn, lambda: WideResNet(norm="group", rng=np.random.default_rng(3))],
        ids=["cnn", "wrn"],
    )
    def test_narrowed_member_forward_is_its_full_width_bytes(self, template_fn):
        """A narrowed stack runs a narrower input, so each conv lays out
        fresh rows and column buffers for it (their zero border belongs to
        one input shape): a member's forward bytes do not depend on the
        width it runs at, going down or back up."""
        c, xshape = 3, (4, 3, 12, 12)
        members = clone_members(template_fn, c)
        cohort = CohortModel(members[0], c)
        cohort.load_global(*global_vectors(members[0]))
        rng = np.random.default_rng(5)
        for p in cohort.params.values():  # members that differ row by row
            p.data += rng.normal(scale=0.1, size=p.data.shape).astype(np.float32)
        x = rng.normal(size=(c,) + xshape).astype(np.float32)
        cohort.set_member_rows(np.full(c, xshape[0]))
        full = cohort.forward(x)
        cohort.narrow(2, members[:2])
        narrowed = cohort.forward(x[:2])
        for i in range(2):
            assert_same(narrowed[i], full[i], f"member {i}")
        cohort.narrow(c, members)
        assert cohort.forward(x).tobytes() == full.tobytes()

    def test_stacked_lstm_layers_hold_its_own_parameters(self):
        """``LSTM`` builds its per-layer parameter tuples once; a stack's
        deepcopy must hold its own ``Parameter`` objects there (the ones its
        walk re-points into the ``(C, …)`` arenas), never the template's."""
        template = LSTM(5, 4, num_layers=2, rng=np.random.default_rng(1))
        stacked = stack_module(template, 3)
        for module in (template, stacked):
            flat = [p for quad in module._layers for p in quad]
            assert len(flat) == len(module._parameters) == 8
            assert all(a is b for a, b in zip(flat, module._parameters.values()))
        owned = {id(p) for p in template.parameters()}
        assert not any(id(p) in owned for quad in stacked._layers for p in quad)
        assert all(p.data.shape[0] == 3 for quad in stacked._layers for p in quad)

    def test_unrelated_build_keeps_a_narrowed_stack_on_its_prefix(self):
        """A walk rebuilt while the stack is narrowed (any registration
        anywhere bumps the structure token) adopts the first ``width`` rows
        of the same arena instead of copying them out."""
        members = clone_members(model_fn, 3)
        cohort = CohortModel(members[0], 3)
        full = cohort.module.arena().values
        cohort.narrow(2, members[:2])
        LeNetCNN(rng=np.random.default_rng(2))  # bumps the token
        values = cohort.module.arena().values
        assert values.shape == (2, full.shape[1]) and np.shares_memory(values, full)
        assert values.__array_interface__["data"][0] == full.__array_interface__["data"][0]
        values[1] = 7.0
        assert (member_params(cohort, 1)["conv1.weight"] == np.float32(7.0)).all()
        assert (full[1] == np.float32(7.0)).all()

    def test_masked_member_is_bitwise_frozen(self):
        """A member narrowed out of the stack must not move at all —
        including the weight-decay component, which is nonzero even at zero
        gradient — while the live rows step."""
        c = 2
        members = clone_members(model_fn, c)
        cohort = CohortModel(members[0], c)
        cohort.load_global(*global_vectors(members[0]))
        before = {n: p.data[1].copy() for n, p in cohort.params.items()}
        opt = CohortSGD(cohort, 0.1, weight_decay=0.01, momentum=0.9)
        cohort.narrow(1, members[:1])
        for p in cohort.params.values():
            assert p.data.shape[0] == p.grad.shape[0] == 1
            p.grad[...] = np.random.default_rng(0).normal(size=p.grad.shape)
        opt.step()
        cohort.narrow(2, members)
        moved = frozen = 0
        for name, p in cohort.params.items():
            np.testing.assert_array_equal(p.data[1], before[name])
            frozen += 1
            if not np.array_equal(p.data[0], before[name]):
                moved += 1
        assert frozen > 0 and moved > 0

    def test_all_active_mask_steps_like_the_masked_formula(self):
        """With every member active the step skips the mask multiply;
        ``lr * grad * 1.0`` is ``lr * grad`` exactly, so the bytes match."""
        c = 3
        members = clone_members(model_fn, c)
        cohort = CohortModel(members[0], c)
        cohort.load_global(*global_vectors(members[0]))
        rng = np.random.default_rng(3)
        for p in cohort.params.values():
            p.grad[...] = rng.normal(size=p.grad.shape)
        lr, wd = 0.1, 0.01
        expected = {}
        for name, p in cohort.params.items():
            mask = np.ones((c,) + (1,) * (p.data.ndim - 1), dtype=np.float32)
            expected[name] = p.data - lr * (p.grad + wd * p.data) * mask
        CohortSGD(cohort, lr, weight_decay=wd).step()
        for name, p in cohort.params.items():
            assert p.data.tobytes() == expected[name].tobytes(), name

    def test_masked_prox_step_matches_per_member_prox_sgd(self):
        """``CohortSGD(mu > 0)`` is ``ProxSGD`` per member: the proximal pull
        toward the broadcast state follows weight decay, and a member
        narrowed out of the stack does not move."""
        c, steps = 3, 4
        lr, wd, momentum, mu = 0.05, 1e-3, 0.9, 0.5
        members = clone_members(model_fn, c)
        anchor, buffers = global_vectors(members[0])
        cohort = CohortModel(members[0], c)
        cohort.load_global(anchor, buffers)
        opt = CohortSGD(
            cohort, lr, weight_decay=wd, momentum=momentum, mu=mu, anchor=anchor
        )
        refs = []
        for m in members:
            ref = ProxSGD(m, lr, mu=mu, weight_decay=wd, momentum=momentum)
            ref.set_anchor(anchor)
            refs.append(ref)
        rng = np.random.default_rng(13)
        # Member 2 stops after two steps (budgets are prefixes).
        for t in range(steps):
            if t == 2:
                cohort.narrow(2, members[:2])
            for p in cohort.params.values():
                p.grad[...] = rng.normal(size=p.grad.shape)
            for i, m in enumerate(members[: cohort.width]):
                for name, p in m.named_parameters():
                    p.grad[...] = cohort.params[name].grad[i]
                refs[i].step()
            opt.step()
        cohort.narrow(3, members)
        moved = 0
        start = members[0].arena().layout.views(anchor)
        for i, m in enumerate(members):
            got = member_params(cohort, i)
            for name, p in m.named_parameters():
                assert_same(got[name], p.data, f"{i}:{name}")
                moved += not np.array_equal(p.data, start[name])
        assert moved
        with pytest.raises(ValueError):
            CohortSGD(cohort, lr, mu=mu)

    def test_dropout_draws_member_rngs(self):
        """A model with Dropout must consume each member's own serial RNG
        stream, so cohort training stays equivalent to serial training."""
        def template_fn():
            rng = np.random.default_rng(5)
            return Sequential(
                Flatten(), Linear(12, 16, rng=rng), ReLU(),
                Dropout(0.5, rng=np.random.default_rng(9)),
                Linear(16, 4, rng=rng),
                names=["flat", "fc1", "relu", "drop", "fc2"],
            )

        c, steps, b = 2, 4, 6
        members = clone_members(template_fn, c)
        refs = clone_members(template_fn, c)
        cohort = CohortModel(members[0], c)
        cohort.load_global(*global_vectors(members[0]))
        cohort.bind_member_models(members)
        opt = CohortSGD(cohort, 0.05)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(steps, c, b, 12)).astype(np.float32)
        ys = rng.integers(0, 4, size=(steps, c, b)).astype(np.int64)
        counts = np.full(c, b)
        for t in range(steps):
            cohort.set_member_rows(counts)
            logits = cohort.forward(xs[t])
            _, grad = cohort_softmax_cross_entropy(logits, ys[t], counts)
            cohort.zero_grad()
            cohort.backward(grad)
            opt.step()
        for i, ref in enumerate(refs):
            train_serial(
                ref,
                [xs[t, i] for t in range(steps)],
                [ys[t, i] for t in range(steps)],
                lr=0.05, wd=0.0, momentum=0.0,
            )
            got = member_params(cohort, i)
            for name, p in ref.named_parameters():
                assert_same(got[name], p.data, name)

    def test_unsupported_model_reported(self):
        """No model is unsupported: the default (BatchNorm, here with
        dropout) WideResNet stacks — buffers as ``(C, *shape)`` like
        parameters — and trains to the bytes of its serial members,
        parameters and running statistics; the one member on short (padded)
        batches to the padded tolerance."""
        def wrn_fn():
            return WideResNet(dropout=0.3, rng=np.random.default_rng(3))

        c, steps, b = 3, 3, 6
        counts = np.array([b, 2, b])
        members, refs = clone_members(wrn_fn, c), clone_members(wrn_fn, c)
        cohort = CohortModel(members[0], c)
        assert type(cohort.module.bn) is BatchNorm2d and cohort.module.arena().buffers.size
        for (name, buf), (_, q) in zip(
            cohort.module.named_buffers(), members[0].named_buffers()
        ):
            assert buf.shape == (c,) + q.shape, name
        cohort.load_global(*global_vectors(members[0]))
        cohort.bind_member_models(members)
        opt = CohortSGD(cohort, 0.05, weight_decay=1e-3)
        rng = np.random.default_rng(11)
        xs = rng.normal(size=(steps, c, b, 3, 12, 12)).astype(np.float32)
        ys = rng.integers(0, 20, size=(steps, c, b)).astype(np.int64)
        for i, n in enumerate(counts):
            xs[:, i, n:] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in range(steps):
                cohort.set_member_rows(counts)
                logits = cohort.forward(xs[t])
                _, grad = cohort_softmax_cross_entropy(logits, ys[t], counts)
                cohort.zero_grad()
                cohort.backward(grad)
                opt.step()
        cohort.write_back(members, range(c))
        for i, (ref, n) in enumerate(zip(refs, counts)):
            train_serial(
                ref,
                [xs[t, i, :n] for t in range(steps)],
                [ys[t, i, :n] for t in range(steps)],
                lr=0.05, wd=1e-3, momentum=0.0,
            )
            check = assert_same if n == b else assert_padded_close
            for (name, p), (_, q) in zip(ref.named_parameters(), members[i].named_parameters()):
                check(q.data, p.data, f"{i}:{name}")
            for (name, buf), (_, q) in zip(ref.named_buffers(), members[i].named_buffers()):
                check(q, buf, f"{i}:{name}")
            assert not np.array_equal(ref.bn.running_mean, wrn_fn().bn.running_mean)

    def test_stacked_model_reuses_template_classes(self):
        """A cohort is the template's own ``Module`` tree over stacked
        parameters: same classes, same names, and ``repro.nn.cohort`` holds
        no layer library of its own."""
        import repro.nn.cohort as cohort_module

        template = model_fn()
        stacked = CohortModel(template, 3).module
        assert type(stacked) is LeNetCNN and type(stacked.conv1) is Conv2d
        assert [(n, type(m)) for n, m in stacked.named_modules()] == [
            (n, type(m)) for n, m in template.named_modules()
        ]
        for (name, p), (ref_name, q) in zip(
            stacked.named_parameters(), template.named_parameters()
        ):
            assert name == ref_name
            assert p.data.shape == p.grad.shape == (3,) + q.data.shape
        assert stacked.conv1.compute_dx is False and template.lead == ()
        layer_names = {cls.__name__ for cls in _all_subclasses(Module)}
        for name, obj in vars(cohort_module).items():
            if isinstance(obj, type) and obj.__module__ == cohort_module.__name__:
                assert not issubclass(obj, Module), name
                assert name.removeprefix("C") not in layer_names, name
                if obj is not CohortModel:
                    assert not {"forward", "backward"} & set(vars(obj)), name

    def test_rank_guards_are_relative_to_the_lead(self):
        """The same classes serve both ``lead`` values: the LSTM classifier
        still rejects a mis-shaped ``(N, T)`` batch, and a stack rejects a
        replica-shaped one."""
        rng = np.random.default_rng(0)
        serial = LSTMClassifier(rng=np.random.default_rng(3))
        stacked = stack_module(serial, 2)
        x = rng.normal(size=(2, 4, 12, 8)).astype(np.float32)
        assert serial(x[0]).shape == (4, 10) and stacked(x).shape == (2, 4, 10)
        with pytest.raises(ValueError, match="LSTMClassifier expects"):
            serial(x[0, :, :, 0])
        with pytest.raises(ValueError, match="LSTMClassifier expects"):
            serial(x)
        with pytest.raises(ValueError, match="LSTMClassifier expects"):
            stacked(x[0])
        flat, flat2 = Flatten(), stack_module(Flatten(), 2)
        assert flat(x[0]).shape == (4, 96) and flat2(x).shape == (2, 4, 96)
        assert flat.backward(flat(x[0])).shape == x[0].shape
        assert flat2.backward(flat2(x)).shape == x.shape


# ----------------------------------------------------------------------
# Executor spec parsing and construction
# ----------------------------------------------------------------------
class TestResolveExecutor:
    def test_default_cohort_size(self):
        ex = resolve_executor("cohort")
        assert isinstance(ex, CohortExecutor)
        assert ex.cohort_size == 32

    def test_explicit_cohort_size(self):
        assert resolve_executor("cohort:4").cohort_size == 4

    @pytest.mark.parametrize("spec", ["cohort:x", "cohort:", "cohort:4:2"])
    def test_bad_spec_rejected(self, spec):
        with pytest.raises(ValueError):
            resolve_executor(spec)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            CohortExecutor(0)


# ----------------------------------------------------------------------
# Executor-level: ragged cohorts, tail chunks, fallbacks
# ----------------------------------------------------------------------
def run_executor(executor, clients, strategy, jobs):
    executor.bind(Binding(Population(clients), strategy))
    global_state = global_vectors(model_fn())
    return executor.run_round(*global_state, jobs), global_state


class TestCohortExecutor:
    def test_tail_cohort_remainder(self):
        """Regression for selected=5 with M=4: the tail chunk must train
        the remaining client, in order, identically to serial."""
        strategy = FedAvg(OPT)
        clients_a = [make_client(i) for i in range(5)]
        clients_b = [make_client(i) for i in range(5)]
        jobs = [(i, ctx()) for i in range(5)]
        serial, _ = run_executor(SerialExecutor(), clients_a, strategy, jobs)
        cohort, _ = run_executor(CohortExecutor(4), clients_b, FedAvg(OPT), jobs)
        assert len(cohort) == 5
        assert [r.client_id for r in cohort] == [r.client_id for r in serial]
        for rs, rc in zip(serial, cohort):
            assert rc.iterations_run == rs.iterations_run
            assert rc.compute_start_time == rs.compute_start_time
            assert rc.compute_finish_time == rs.compute_finish_time
            assert rc.upload_finish_time == rs.upload_finish_time
            assert rc.bytes_uploaded == rs.bytes_uploaded
            assert rc.mean_loss == rs.mean_loss
            for name in rs.update:
                assert_same(rc.update[name], rs.update[name], name)

    def test_ragged_member_batches(self):
        """A member whose shard is smaller than the batch size trains on
        short batches. Unpadded it gets a program of its own width and
        serial's bytes; padded into the wider member's program, serial's
        timeline and, at the padded tolerance, serial's tensors — the
        full-width member keeps its bytes either way."""
        sizes = [3, 24]
        jobs = [(i, ctx()) for i in range(2)]
        serial, _ = run_executor(
            SerialExecutor(), [make_client(i, n=sizes[i]) for i in range(2)],
            FedAvg(OPT), jobs,
        )
        for pad in (True, False):
            executor = CohortExecutor(2, pad=pad)
            cohort, _ = run_executor(
                executor, [make_client(i, n=sizes[i]) for i in range(2)],
                FedAvg(OPT), jobs,
            )
            # One program of two slots, or two of one.
            assert executor.occupancy()["slot_steps"] == 12.0
            assert executor.occupancy()["steps"] == (6.0 if pad else 12.0)
            for rs, rc in zip(serial, cohort):
                padded = pad and rs.client_id == 0
                assert rc.compute_finish_time == rs.compute_finish_time
                assert rc.mean_loss == (
                    pytest.approx(rs.mean_loss, rel=PAD_RTOL) if padded else rs.mean_loss
                )
                for name in rs.update:
                    check = assert_padded_close if padded else assert_same
                    check(rc.update[name], rs.update[name], name)

    def test_unbatchable_model_falls_back_serially(self):
        """Nothing falls back: the default (BatchNorm) WideResNet trains
        batched without one warning, for FedAvg and FedCA, with one client
        holding fewer samples than a batch and, for FedCA, dropout. Unpadded
        (a ``parallel`` worker's engine), history — ``mean_loss`` included —
        and trace are serial's; under ``cohort:4``, which pads that client,
        the timeline is, and the loss at the padded tolerance."""
        from repro.data import dirichlet_partition, make_workload_data
        from repro.obs import events_to_jsonl

        train, test = make_workload_data("wrn", num_samples=300, num_classes=8, seed=3)
        parts = dirichlet_partition(train, 5, alpha=0.5, seed=4, min_samples=8)
        parts[1] = parts[1][:5]  # batches of 5 in a stack padded to 8
        shards = [train.subset(p) for p in parts]

        def run(scheme, dropout, executor):
            from repro.core import FedCAConfig
            from repro.runtime import FederatedSimulator

            recorder = TraceRecorder()
            sim = FederatedSimulator(
                model_fn=lambda: WideResNet(
                    num_classes=8, dropout=dropout, rng=np.random.default_rng(7)
                ),
                strategy=build_strategy(
                    scheme, OptimizerSpec(lr=0.05, weight_decay=0.01),
                    fedca_config=FedCAConfig(profile_every=2) if scheme == "fedca" else None,
                ),
                shards=shards,
                test_set=test,
                base_iteration_times=[0.01, 0.012, 0.015, 0.02, 0.03],
                batch_size=8,
                local_iterations=4,
                aggregation_fraction=0.8,
                seed=1,
                executor=executor,
                recorder=recorder,
            )
            with sim:
                history = sim.run(4)
            return history, events_to_jsonl(recorder.events()), sim.executor

        for scheme, dropout in [("fedavg", 0.0), ("fedca", 0.3)]:
            ref_history, ref_trace, _ = run(scheme, dropout, SerialExecutor())
            for engine in ("cohort:4", CohortExecutor(4, pad=False)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    history, trace, executor = run(scheme, dropout, engine)
                assert executor.occupancy()["steps"] > 0  # it did train batched
                assert_history_is_serial(history, ref_history, padded=executor.pad)
                assert executor.pad or (trace == ref_trace and trace), scheme

    def test_metrics_mirrored_into_recorder(self):
        recorder = TraceRecorder()
        strategy = FedAvg(OPT)
        clients = Population(make_client(i) for i in range(3))
        executor = CohortExecutor(2)
        executor.bind(Binding(clients, strategy, recorder=recorder))
        executor.run_round(*global_vectors(model_fn()), [(i, ctx()) for i in range(3)])
        assert recorder.gauges["repro_cohort_size"] == 2.0
        # FedAvg never masks: chunks of 2 and 1 over six steps each.
        assert recorder.counters["repro_cohort_steps_total"] == 12
        assert recorder.counters["repro_cohort_slot_steps_total"] == 18
        assert recorder.counters["repro_cohort_member_steps_total"] == 18
        assert executor.occupancy()["occupancy"] == 1.0
        # Metrics never enter the event ring — trace determinism is immune.
        assert recorder.num_events == 0

    def test_one_stack_grows_to_the_widest_chunk(self):
        """Selection and dropouts vary a round's chunk widths over a long
        run; the engine keeps one stack, rebuilt only when a chunk is wider
        than any before, and every narrower program narrows it."""
        executor = CohortExecutor(4, pad=False)
        executor.bind(Binding(Population(make_client(i) for i in range(4)), FedAvg(OPT)))
        state = global_vectors(model_fn())
        stacks = []
        for n in (2, 1, 3, 2, 4, 1, 3):
            executor.run_round(*state, [(i, ctx(iterations=1)) for i in range(n)])
            stacks.append(executor._model)
        assert [m.cohort_size for m in stacks] == [2, 2, 3, 3, 4, 4, 4]
        assert len({id(m) for m in stacks}) == 3

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_balanced_chunks_keep_width_one_bytes(self, data):
        """The default engine sized at a drawn capacity cuts n jobs over
        mixed shard sizes (some smaller than a batch: a program of their
        own inside the chunk) into ⌈n/W⌉ consecutive chunks whose widths
        differ by at most one and never exceed the capacity, drives every
        program on one stack as wide as the widest chunk, and leaves every
        member's result and client its width-1 bytes."""
        n = data.draw(st.integers(1, 12), label="jobs")
        capacity = data.draw(st.integers(1, 12), label="capacity")
        sizes = data.draw(
            st.lists(st.sampled_from([3, 5, 24]), min_size=n, max_size=n), label="shards"
        )
        jobs = [(i, ctx(iterations=2)) for i in range(n)]
        state = global_vectors(model_fn())

        def run(executor, population):
            strategy, stacks = FedAvg(OPT), []
            real = strategy.cohort_round

            def cohort_round(engine, chunk, params):
                stacks.append(engine.model)
                return real(engine, chunk, params)

            strategy.cohort_round = cohort_round
            executor.bind(Binding(population, strategy))
            return executor.run_round(*state, jobs), stacks

        population = PagedPopulation([make_client(i, n=sizes[i]) for i in range(n)], capacity)
        executor = CohortExecutor(pad=False)
        got, stacks = run(executor, population)
        widths = [len(chunk) for chunk in population.chunks]
        assert executor.cohort_size == capacity
        assert len(widths) == -(-n // capacity)
        assert max(widths) - min(widths) <= 1 and max(widths) <= capacity
        assert [cid for chunk in population.chunks for cid in chunk] == list(range(n))
        assert {id(m) for m in stacks} == {id(executor._model)}
        assert executor._model.cohort_size == max(widths)
        alone = Population(make_client(i, n=sizes[i]) for i in range(n))
        want, _ = run(CohortExecutor(1, pad=False), alone)
        for g, w in zip(got, want, strict=True):
            assert_same_result(g, w)
        for g, w in zip(population, alone, strict=True):
            assert_same_client(g, w)

    def test_occupancy_divides_by_the_realised_width(self):
        """Five clients under ``cohort:32`` are one chunk of five: FedAvg
        masks nobody, so every offered slot was live."""
        executor = CohortExecutor(32)
        run_executor(
            executor, [make_client(i) for i in range(5)], FedAvg(OPT),
            [(i, ctx()) for i in range(5)],
        )
        assert executor.occupancy() == {
            "steps": 6.0, "slot_steps": 30.0, "member_steps": 30.0, "occupancy": 1.0,
        }


# ----------------------------------------------------------------------
# Compaction: members leave a stack mid-program with their width-1 bytes
# ----------------------------------------------------------------------
def _lstm():
    return LSTMClassifier(rng=np.random.default_rng(3))


def _wrn_bn():
    return WideResNet(rng=np.random.default_rng(3))


def _dropout_mlp():
    rng = np.random.default_rng(5)
    return Sequential(
        Flatten(), Linear(96, 16, rng=rng), ReLU(),
        Dropout(0.4, rng=np.random.default_rng(9)), Linear(16, 10, rng=rng),
        names=["flat", "fc1", "relu", "drop", "fc2"],
    )


#: family -> (model, one sample's feature shape, classes)
FAMILIES = {
    "lstm": (_lstm, (12, 8), 10),
    "wrn-bn": (_wrn_bn, (3, 12, 12), 20),
    "dropout": (_dropout_mlp, (12, 8), 10),
}


def family_client(cid, family, *, slowed=False, base_time=0.01):
    model, feat, classes = FAMILIES[family]
    rng = np.random.default_rng(100 + cid)
    x = rng.normal(size=(24,) + feat).astype(np.float32)
    y = (np.arange(24) % classes).astype(np.int64)
    trace = (
        SpeedTrace(base_time, seed=cid, **SLOWED)
        if slowed
        else SpeedTrace(base_time, seed=cid, dynamic=False)
    )
    return SimClient(
        cid, Dataset(x, y, classes), model_fn=model, batch_size=8, trace=trace,
        link=LinkModel(uplink_mbps=10.0, downlink_mbps=10.0), seed=cid,
    )


def assert_same_result(got, want):
    """Two ``ClientRoundResult``s, field by field, tensors in bytes."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name in ("update", "buffers"):
            assert list(a) == list(b), field.name
            for name in b:
                assert_same(a[name], b[name], f"{field.name}.{name}")
        else:
            assert a == b, field.name


def assert_same_client(got, want):
    """Replica parameters and buffers, stream, speed trace and layer RNG."""
    import pickle

    mine, theirs = got.model.arena(), want.model.arena()
    assert mine.values.tobytes() == theirs.values.tobytes()
    assert mine.buffers.tobytes() == theirs.buffers.tobytes()
    assert capture_blob(got) == capture_blob(want)


#: Every client always slowed 3x (FedCA+AB then shrinks its batches).
SLOWED = dict(gamma_fast=(2.0, 1e-6), gamma_slow=(2.0, 1e9), slowdown_range=(3.0, 3.0))


class TestCompaction:
    """A member that leaves a stack mid-program — here at a drawn
    server-assigned budget, as FedAda's members do — has its row written
    back at once and the rest close ranks; every member's result, replica,
    stream and layer RNG equal its run alone (width 1) in bytes, and the
    step counters count the widths actually run."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(data=st.data())
    @settings(max_examples=6, deadline=None)
    def test_members_leave_with_their_width_one_bytes(self, family, data):
        c = data.draw(st.integers(1, 4), label="width")
        budgets = data.draw(st.lists(st.integers(1, 5), min_size=c, max_size=c), label="budgets")
        momentum = data.draw(st.sampled_from([0.0, 0.9]), label="momentum")
        strategy = FedAvg(OptimizerSpec(lr=0.05, weight_decay=1e-3, momentum=momentum))
        jobs = [(i, ctx(iterations=5, assigned=b)) for i, b in enumerate(budgets)]
        template = FAMILIES[family][0]()
        state = global_vectors(template)

        def run(width):
            clients = Population(family_client(i, family) for i in range(c))
            executor = CohortExecutor(width, pad=False)
            executor.bind(Binding(clients, strategy))
            return executor.run_round(*state, jobs), clients, executor

        stacked, clients, executor = run(c)
        alone, refs, _ = run(1)
        for got, want in zip(stacked, alone, strict=True):
            assert got.iterations_run == budgets[got.client_id]
            assert_same_result(got, want)
        for got, want in zip(clients, refs):
            assert_same_client(got, want)
        # Every step offers the program's c slots; its live members fill them.
        widths = [sum(b >= tau for b in budgets) for tau in range(1, max(budgets) + 1)]
        assert executor.occupancy() == {
            "steps": float(len(widths)),
            "slot_steps": float(len(widths) * c),
            "member_steps": float(sum(widths)),
            "occupancy": sum(widths) / (len(widths) * c),
        }

    def test_adaptive_batch_members_stop_with_their_width_one_bytes(self):
        """FedCA+AB on slowed clients: ragged batches every step, and in
        the optimised round members stop early at their own iterations."""
        from repro.core import FedCAConfig

        cfg = FedCAConfig(profile_every=2)
        state = global_vectors(FAMILIES["lstm"][0]())
        runs = []
        for width in (4, 1):
            strategy = FedCAAdaptiveBatch(OPT, config=cfg)
            clients = Population(
                family_client(i, "lstm", slowed=True, base_time=0.01 * (1 + i))
                for i in range(4)
            )
            executor = CohortExecutor(width, pad=False)
            executor.bind(Binding(clients, strategy))
            results = [
                executor.run_round(
                    *state, [(i, ctx(round_index=r, deadline=0.2)) for i in range(4)]
                )
                for r in range(2)
            ]
            runs.append((results, clients))
        (stacked, clients), (alone, refs) = runs
        stops = [r.iterations_run for r in stacked[1]]
        assert min(stops) < 6 and len(set(stops)) > 1, stops
        for round_got, round_want in zip(stacked, alone):
            for got, want in zip(round_got, round_want, strict=True):
                assert_same_result(got, want)
        for got, want in zip(clients, refs):
            assert_same_client(got, want)


# ----------------------------------------------------------------------
# End-to-end: full simulations, serial vs cohort
# ----------------------------------------------------------------------
def micro_cfg(workload, num_clients=6):
    cfg = get_workload(workload, "micro")
    return dataclasses.replace(cfg, num_clients=num_clients, local_iterations=6)


def traced_step_peak(template, width, batch, feature_shape):
    """Traced peak bytes of one stacked training step — forward, loss,
    backward and a weight-decayed SGD step — at ``width`` members of
    ``batch`` rows, the stack built beforehand."""
    import tracemalloc

    model = CohortModel(template, width)
    x = np.random.default_rng(0).normal(size=(width, batch) + feature_shape).astype(np.float32)
    y = np.zeros((width, batch), dtype=np.int64)
    rows = np.full(width, batch)
    tracemalloc.start()
    try:
        model.zero_grad()
        model.set_member_rows(rows)
        _, grad = cohort_softmax_cross_entropy(model.forward(x), y, rows)
        model.backward(grad)
        CohortSGD(model, 0.05, weight_decay=0.01).step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWidthByMemory:
    """An engine sized at bind is at most ``STACK_BYTES`` over one member's
    step wide (``bound_width``): the micro workloads keep their width, the
    paper-scale WRN stack narrows, an explicit ``cohort:M`` never does."""

    @staticmethod
    def env(preset, scale="micro", executor=None):
        cfg = get_workload(preset, scale)
        return make_environment(cfg, FedAvg(cfg.optimizer_spec()), executor=executor)

    @pytest.mark.parametrize("preset", ["cnn", "lstm", "wrn"])
    def test_micro_presets_keep_their_width(self, preset):
        """An eager population has room for everyone, so the width is what
        fits :data:`STACK_BYTES` — wider than ``cohort``'s 32 on every micro
        preset — and a round's jobs are one chunk, the step evaluation
        chunks by."""
        with self.env(preset) as sim:
            width = STACK_BYTES // sim.population.factory.step_bytes()
            assert sim.executor.cohort_size == width > DEFAULT_COHORT_SIZE
            jobs = len(sim.clients)  # every client trains each round
            assert sim.clients_per_round is None and jobs <= width
            assert sim.executor.step_rows() == sim.population.factory.spec.batch_size * jobs

    def test_parallel_workers_keep_their_width(self):
        """A ``parallel:2`` worker binds the default engine on its fork of
        the population: the same rule, the same width (never started here)."""
        with self.env("wrn", executor="parallel:2") as sim:
            width = STACK_BYTES // sim.population.factory.step_bytes()
            assert bound_width(sim.population) == width
            # Two workers' five jobs each are one chunk apiece.
            assert width >= 5
            assert sim.executor.step_rows() == 2 * 5 * 8

    def test_lazy_obs_population_keeps_its_width(self):
        """``lazy:cache=64`` binds the width at the capacity (the stack
        would fit hundreds), and 100 jobs a round are two chunks of 50."""
        from .test_experiments import _lazy_lenet_sim

        with _lazy_lenet_sim() as sim:
            assert STACK_BYTES // sim.population.factory.step_bytes() > 64
            assert sim.executor.cohort_size == 64
            assert chunk_widths(100, sim.executor.cohort_size, sim.executor.pad) == [50, 50]
            assert sim.executor.step_rows() == 50 * 8

    def test_paper_wrn_narrows_and_its_step_fits(self):
        with self.env("wrn", "paper") as sim:
            width = sim.executor.cohort_size
            assert 1 <= width < DEFAULT_COHORT_SIZE
            assert width == STACK_BYTES // sim.population.factory.step_bytes()
            peak = traced_step_peak(sim.global_model, width, 50, sim.test_set.x.shape[1:])
        assert peak < STACK_BYTES, (width, peak)

    def test_explicit_cohort_is_never_capped(self):
        with self.env("wrn", "paper", executor="cohort:32") as sim:
            assert sim.executor.cohort_size == 32
        with self.env("wrn", "paper", executor="cohort:48") as sim:
            assert sim.executor.cohort_size == 48

    @pytest.mark.parametrize("preset", ["cnn", "lstm", "wrn"])
    def test_per_row_figure_is_within_2x_of_a_traced_step(self, preset):
        cfg = get_workload(preset)
        with self.env(preset) as sim:
            figure = sim.population.factory.step_bytes() / cfg.batch_size
            traced = traced_step_peak(
                sim.global_model, 1, cfg.batch_size, sim.test_set.x.shape[1:]
            ) / cfg.batch_size
        assert 0.5 <= figure / traced <= 2.0, (figure, traced)


class TestEndToEnd:
    @pytest.mark.parametrize("workload", ["cnn", "lstm"])
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_accuracy_and_timeline_match_serial(self, workload, scheme):
        cfg = micro_cfg(workload)
        spec = RunSpec(cfg, scheme, rounds=3, stop_at_target=False, seed=0)
        hs = run_scheme(dataclasses.replace(spec, engine=SerialExecutor())).history
        hc = run_scheme(dataclasses.replace(spec, engine="cohort:4")).history
        # One history: timelines, byte counts, accuracies and mean losses.
        assert history_fingerprint(hc) == history_fingerprint(hs)

    def test_small_shard_run_stays_on_the_serial_timeline(self):
        """The ``lstm_fedca_cohort`` benchmark configuration (a quarter of
        its 32 shards hold fewer samples than a batch) on the seed where,
        with a float64 masked-sum loss scaled by ``1/n``, ``mean_loss``
        left the oracle in round 0, accuracy in round 5 — run here — and
        the collected set and the simulated clock in rounds 7 and 8."""
        cfg = dataclasses.replace(get_workload("lstm"), num_clients=32)
        hs, hc, hu = (
            run_scheme(
                RunSpec(cfg, "fedca", rounds=6, stop_at_target=False, seed=10, engine=engine)
            ).history
            for engine in (SerialExecutor(), "cohort:8", CohortExecutor(8, pad=False))
        )
        # cohort:8 pads the small shards: the serial timeline, values close.
        assert_history_is_serial(hc, hs, padded=True)
        # Unpadded the loss is all that could differ, and it does not.
        assert_history_is_serial(hu, hs)

    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_group_norm_wrn_trains_batched(self, scheme):
        """Residual topologies are not a fallback: the model's own
        ``forward`` runs over the stacks. History and global model
        serial-equal in bytes, and not one warning."""
        cfg = dataclasses.replace(micro_cfg("wrn"), model_kwargs={"norm": "group"})

        def run(executor):
            strategy = build_strategy(scheme, cfg.optimizer_spec())
            sim = make_environment(cfg, strategy, seed=0, executor=executor)
            try:
                history = sim.run(3)
                return history, sim.global_state, sim.executor
            finally:
                sim.close()

        hs, state_s, _ = run(SerialExecutor())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hc, state_c, executor = run("cohort:4")
        assert executor.occupancy()["steps"] > 0
        assert history_fingerprint(hc) == history_fingerprint(hs)
        for rc, rs in zip(hc.records, hs.records):
            assert {
                cid: ev["iterations_run"] for cid, ev in rc.client_events.items()
            } == {cid: ev["iterations_run"] for cid, ev in rs.client_events.items()}
        assert any("shortcut" in name for name in state_s)  # it is residual
        for name, value in state_s.items():
            assert_same(state_c[name], value, name)

    def test_fedca_early_stop_decisions_match_serial_in_trace(self, tmp_path):
        """Acceptance gate: per-client early-stop decisions (stop round,
        tau, and reason) under the cohort executor must match serial
        exactly — asserted via the JSONL trace files."""
        cfg = micro_cfg("cnn", num_clients=6)

        def decisions(path):
            stops, evals = [], 0
            with open(path) as fh:
                for line in fh:
                    ev = json.loads(line)
                    if ev["kind"] == "fedca.earlystop.stop":
                        stops.append((ev["round"], ev["client"], ev["fields"]))
                    elif ev["kind"] == "fedca.earlystop.eval":
                        evals += 1
            return stops, evals

        paths = {}
        for name, spec in [("serial", SerialExecutor()), ("cohort", "cohort:4")]:
            path = tmp_path / f"{name}.jsonl"
            recorder = TraceRecorder(trace_path=str(path))
            run_scheme(
                RunSpec(cfg, "fedca", rounds=4, stop_at_target=False, seed=0, engine=spec),
                recorder=recorder,
            )
            recorder.close()
            paths[name] = path

        serial_stops, serial_evals = decisions(paths["serial"])
        cohort_stops, cohort_evals = decisions(paths["cohort"])
        assert serial_stops, "expected at least one early stop in 4 rounds"
        assert cohort_stops == serial_stops
        assert cohort_evals == serial_evals



# ----------------------------------------------------------------------
# One client-round body per scheme, two drivers on Strategy
# ----------------------------------------------------------------------
def _adaptive_batch(opt, cfg):
    from repro.core import FedCAConfig

    return FedCAAdaptiveBatch(
        opt, config=FedCAConfig(profile_every=cfg.fedca_profile_every)
    )


#: id -> (strategy factory ``(optimizer_spec, cfg)``, wire spec).
ROUND_BODY_CASES = {
    "fedprox": (lambda opt, cfg: build_strategy("fedprox", opt), None),
    "deadline-stop": (lambda opt, cfg: build_strategy("deadline-stop", opt), None),
    "fedca-v1": ("fedca-v1", None),
    "fedca-v2": ("fedca-v2", None),
    "fedca+ab": (_adaptive_batch, None),
    "fedavg-quant8": ("fedavg", "quant8"),
    "fedavg-topk": ("fedavg", "topk:0.1"),
    "fedca-quant8": ("fedca", "quant8"),
    "fedca-topk": ("fedca", "topk:0.1"),
}


class TestOneRoundBody:
    @pytest.mark.parametrize("name", [*STRATEGY_NAMES, "FedCAAdaptiveBatch"])
    def test_no_scheme_overrides_the_drivers(self, name):
        strategy = (
            FedCAAdaptiveBatch(OPT)
            if name == "FedCAAdaptiveBatch"
            else build_strategy(name, OPT)
        )
        assert type(strategy).client_round is Strategy.client_round
        assert type(strategy).cohort_round is Strategy.cohort_round

    @pytest.mark.parametrize("scheme", ["fedprox", "deadline-stop", "fedca+ab"])
    def test_formerly_serial_schemes_match_serial_tensors(self, scheme):
        """Executor level, two rounds (for FedCA+AB an anchor then an
        optimised round on always-slowed clients, so batches do shrink):
        timelines, bytes, iterations, events and update tensors equal — in
        bytes unpadded (a step takes one pass per row count drawn), at the
        padded tolerance for whoever a padded step widened: the 5-sample
        client, and under FedCA+AB everyone."""
        def build():
            opt = OptimizerSpec(lr=0.05, weight_decay=0.01)
            if scheme == "fedca+ab":
                return FedCAAdaptiveBatch(opt, slowdown_trigger=2.0)
            return build_strategy(scheme, opt)

        def slowed_client(cid):
            client = make_client(cid, n=24 if cid else 5)
            client.trace = SpeedTrace(
                0.01 * (1 + cid), seed=cid, dynamic=True,
                gamma_fast=(2.0, 1e-6), gamma_slow=(2.0, 1e9),
                slowdown_range=(3.0, 3.0),
            )
            return client

        def run(executor):
            executor.bind(Binding(Population(slowed_client(i) for i in range(3)), build()))
            state = global_vectors(model_fn())
            out = []
            for r in range(2):
                jobs = [(i, ctx(round_index=r, deadline=0.12)) for i in range(3)]
                out.append(executor.run_round(*state, jobs))
            return out

        serial = run(SerialExecutor())
        shrunk = False
        for pad in (True, False):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cohort = run(CohortExecutor(4, pad=pad))
            for rs, rc in zip(sum(serial, []), sum(cohort, [])):
                assert rc.iterations_run == rs.iterations_run
                assert rc.compute_finish_time == rs.compute_finish_time
                assert rc.upload_finish_time == rs.upload_finish_time
                assert rc.bytes_uploaded == rs.bytes_uploaded
                assert rc.events == rs.events
                padded = pad and (scheme == "fedca+ab" or rs.client_id == 0)
                for name in rs.update:
                    check = assert_padded_close if padded else assert_same
                    check(rc.update[name], rs.update[name], name)
                full = rs.iterations_run * 0.01 * (1 + rs.client_id) * 3.0
                shrunk |= rs.compute_finish_time - rs.compute_start_time < 0.9 * full
        if scheme == "deadline-stop":
            assert any(r.events["early_stop_iteration"] for r in serial[0])
        if scheme == "fedca+ab":
            assert shrunk and not serial[1][0].events["anchor"]

    @pytest.mark.parametrize("workload", ["cnn", "lstm"])
    @pytest.mark.parametrize("case", list(ROUND_BODY_CASES))
    def test_every_scheme_runs_batched_and_matches_serial(self, workload, case):
        """Every scheme, extension and wire format runs batched: not one
        warning, and the serial history (every shard here holds a batch, so
        only FedCA+AB's shrunken batches are ever padded)."""
        scheme, wire = ROUND_BODY_CASES[case]
        cfg = micro_cfg(workload)

        def run(executor):
            if isinstance(scheme, str):
                return run_scheme(RunSpec(
                    cfg, scheme, rounds=3, stop_at_target=False, seed=0,
                    wire=wire, engine=executor,
                )).history
            sim = make_environment(
                cfg, scheme(cfg.optimizer_spec(), cfg), seed=0, executor=executor
            )
            try:
                return sim.run(3)
            finally:
                sim.close()

        hs = run(SerialExecutor())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hc = run("cohort:4")
        assert_history_is_serial(hc, hs, padded=case == "fedca+ab")
        for rc, rs in zip(hc.records, hs.records):
            assert {
                cid: ev["iterations_run"] for cid, ev in rc.client_events.items()
            } == {cid: ev["iterations_run"] for cid, ev in rs.client_events.items()}
