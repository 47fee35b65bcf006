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
from repro.experiments.runner import run_scheme
from repro.nn import (
    SGD,
    AvgPool2d,
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
    LSTMClassifier,
    MaxPool2d,
    Module,
    ProxSGD,
    ReLU,
    Sequential,
    Tanh,
    WideResNet,
    cohort_softmax_cross_entropy,
    softmax_cross_entropy,
    stack_module,
)
from repro.obs import TraceRecorder
from repro.runtime import CohortExecutor, RoundContext, SerialExecutor, resolve_executor
from repro.runtime.client import SimClient
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
        """A stacked conv keeps its padded and column buffers between
        steps: a second batch, and then a different batch width, must not
        see anything of the previous one. A replica keeps none."""
        rng = np.random.default_rng(11)
        serial = Conv2d(2, 3, 3, padding=1, rng=np.random.default_rng(1))
        layer = stack_of([serial])
        seen = []
        for batch in (4, 4, 2):
            x = rng.normal(size=(1, batch, 2, 5, 5)).astype(np.float32)
            out = layer.forward(x)
            seen.append((layer._padded, layer._cols_buf))
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
        assert serial._padded is None and serial._cols_buf is None

    @pytest.mark.parametrize("layer_type", [ReLU, Tanh, Identity, Flatten])
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

    @pytest.mark.parametrize("layer_fn", [lambda k: AvgPool2d(k), lambda k: GlobalAvgPool2d()],
                             ids=["avg", "global-avg"])
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

        active = np.ones(c, dtype=bool)
        counts = np.full(c, xshape[0])
        for t in range(steps):
            cohort.set_member_rows(counts)
            logits = cohort.forward(xs[t])
            _, grad = cohort_softmax_cross_entropy(logits, ys[t], counts)
            cohort.zero_grad()
            cohort.backward(grad)
            opt.step(active)

        for i, m in enumerate(members):
            ref = template_fn()
            ref.load_state_dict(members[0].state_dict())
            train_serial(
                ref,
                [xs[t, i] for t in range(steps)],
                [ys[t, i] for t in range(steps)],
                lr=lr, wd=wd, momentum=momentum,
            )
            got = cohort.member_params(i)
            for name, p in ref.named_parameters():
                assert_same(got[name], p.data, name)

    def test_masked_member_is_bitwise_frozen(self):
        """An inactive member must not move at all — including the
        weight-decay component, which is nonzero even at zero gradient."""
        c = 2
        members = clone_members(model_fn, c)
        cohort = CohortModel(members[0], c)
        cohort.load_global(*global_vectors(members[0]))
        before = {n: p.data[1].copy() for n, p in cohort.params.items()}
        opt = CohortSGD(cohort, 0.1, weight_decay=0.01, momentum=0.9)
        for p in cohort.params.values():
            p.grad[...] = np.random.default_rng(0).normal(size=p.grad.shape)
        opt.step(np.array([True, False]))
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
        CohortSGD(cohort, lr, weight_decay=wd).step(np.ones(c, dtype=bool))
        for name, p in cohort.params.items():
            assert p.data.tobytes() == expected[name].tobytes(), name

    def test_masked_prox_step_matches_per_member_prox_sgd(self):
        """``CohortSGD(mu > 0)`` is ``ProxSGD`` per member: the proximal pull
        toward the broadcast state follows weight decay, and a masked member
        does not move."""
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
        masks = [np.array([True, True, t < 2]) for t in range(steps)]
        for mask in masks:
            for p in cohort.params.values():
                p.grad[...] = rng.normal(size=p.grad.shape)
            for i, m in enumerate(members):
                if mask[i]:
                    for name, p in m.named_parameters():
                        p.grad[...] = cohort.params[name].grad[i]
                    refs[i].step()
            opt.step(mask)
        moved = 0
        start = members[0].arena().layout.views(anchor)
        for i, m in enumerate(members):
            got = cohort.member_params(i)
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
            got = cohort.member_params(i)
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
        assert type(cohort.module.bn) is BatchNorm2d and cohort.buffers
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
        cohort.write_back(members)
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
    executor.bind(clients, strategy)
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
        clients = [make_client(i) for i in range(3)]
        executor = CohortExecutor(2)
        executor.bind(clients, strategy)
        executor.set_recorder(recorder)
        executor.run_round(*global_vectors(model_fn()), [(i, ctx()) for i in range(3)])
        assert recorder.gauges["repro_cohort_size"] == 2.0
        # FedAvg never masks: chunks of 2 and 1 over six steps each.
        assert recorder.counters["repro_cohort_steps_total"] == 12
        assert recorder.counters["repro_cohort_slot_steps_total"] == 18
        assert recorder.counters["repro_cohort_member_steps_total"] == 18
        assert executor.occupancy()["occupancy"] == 1.0
        # Metrics never enter the event ring — trace determinism is immune.
        assert recorder.num_events == 0

    def test_stack_cache_never_outgrows_two_full_stacks(self):
        """Selection and dropouts vary a round's chunk widths over a long
        run; stacks are reused by width but capped at ``2M`` slots in all,
        least recently used first out."""
        executor = CohortExecutor(4)
        executor.bind([make_client(i) for i in range(4)], FedAvg(OPT))
        state = global_vectors(model_fn())
        for n in (4, 3, 2, 1, 3):
            executor.run_round(*state, [(i, ctx(iterations=1)) for i in range(n)])
        assert list(executor._models) == [2, 1, 3]

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
# End-to-end: full simulations, serial vs cohort
# ----------------------------------------------------------------------
def micro_cfg(workload, num_clients=6):
    cfg = get_workload(workload, "micro")
    return dataclasses.replace(cfg, num_clients=num_clients, local_iterations=6)


class TestEndToEnd:
    @pytest.mark.parametrize("workload", ["cnn", "lstm"])
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_accuracy_and_timeline_match_serial(self, workload, scheme):
        cfg = micro_cfg(workload)
        hs = run_scheme(
            cfg, scheme, rounds=3, stop_at_target=False, seed=0, executor=SerialExecutor()
        ).history
        hc = run_scheme(
            cfg, scheme, rounds=3, stop_at_target=False, seed=0, executor="cohort:4"
        ).history
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
                cfg, "fedca", rounds=6, stop_at_target=False, seed=10, executor=engine
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
                cfg, "fedca", rounds=4, stop_at_target=False, seed=0,
                executor=spec, recorder=recorder,
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
            executor.bind([slowed_client(i) for i in range(3)], build())
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
                return run_scheme(
                    cfg, scheme, rounds=3, stop_at_target=False, seed=0,
                    wire=wire, executor=executor,
                ).history
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
