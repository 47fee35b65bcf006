"""Microbenchmarks of the reproduction's hot paths.

Not a paper artefact — these keep the substrate honest: one local SGD
iteration per model, the Eq. 1 progress metric, the sampled profiler
gather, and a full simulated FedAvg round.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import LayerSampler, statistical_progress
from repro.core.profiler import AnchorRecorder
from repro.nn import LeNetCNN, LSTMClassifier, WideResNet, SGD, softmax_cross_entropy


def _train_step(model, x, y, opt):
    logits = model(x)
    _, grad = softmax_cross_entropy(logits, y)
    model.zero_grad()
    model.backward(grad)
    opt.step()


@pytest.mark.parametrize(
    "name,factory,shape",
    [
        ("cnn", lambda rng: LeNetCNN(rng=rng), (8, 3, 12, 12)),
        ("lstm", lambda rng: LSTMClassifier(rng=rng), (8, 10, 8)),
        ("wrn", lambda rng: WideResNet(rng=rng), (8, 3, 12, 12)),
    ],
)
def test_local_iteration(benchmark, name, factory, shape):
    rng = np.random.default_rng(0)
    model = factory(rng)
    x = rng.normal(size=shape).astype(np.float32)
    y = rng.integers(0, 10, size=shape[0])
    opt = SGD(model, 0.05)
    benchmark(_train_step, model, x, y, opt)


#: (members, batch, C, H, W) as the default engine stacks them.
STACKED_CONVS = [
    ("lenet_conv2", (12, 8, 6, 6, 6), 3, 1, 1),
    ("wrn_12x12", (10, 8, 4, 12, 12), 3, 1, 1),
    ("wrn_stride2", (10, 8, 4, 12, 12), 3, 2, 1),
    ("lazy_lenet_conv2", (32, 8, 2, 4, 4), 3, 1, 1),
]


@pytest.mark.parametrize(
    "name,x_shape,k,stride,pad",
    STACKED_CONVS
    + [
        ("lazy_lenet_conv1", (50, 8, 1, 8, 8), 3, 1, 1),
        ("wrn_shortcut_1x1_stride2", (10, 8, 4, 12, 12), 1, 2, 0),
    ],
)
def test_im2col_stacked(benchmark, name, x_shape, k, stride, pad):
    """The stacked conv's unfold: one rows/cols buffer pair kept across
    calls, as ``Conv2d`` keeps them across steps."""
    from repro.nn import functional as F

    x = np.random.default_rng(3).normal(size=x_shape).astype(np.float32)
    rows = F.unfold_rows(x_shape, k, k, stride, pad)
    cols = F.im2col(x, k, k, stride, pad, rows=rows)
    out = benchmark(F.im2col, x, k, k, stride, pad, out=cols, rows=rows)
    assert out is cols and out.flags.c_contiguous


@pytest.mark.parametrize("name,x_shape,k,stride,pad", STACKED_CONVS)
def test_col2im_stacked(benchmark, name, x_shape, k, stride, pad):
    from repro.nn import functional as F

    out_h, out_w = F.conv_output_size(*x_shape[-2:], k, k, stride, pad)
    rng = np.random.default_rng(3)
    cols_shape = x_shape[:-3] + (x_shape[-3] * k * k, out_h * out_w)
    cols = rng.normal(size=cols_shape).astype(np.float32)
    out = benchmark(F.col2im, cols, x_shape, k, k, stride, pad)
    assert out.shape == x_shape and out.flags.c_contiguous


@pytest.mark.parametrize(
    "name,x_shape",
    [
        ("cnn_pool1", (12, 8, 6, 12, 12)),
        ("cnn_pool2", (12, 8, 16, 6, 6)),
        ("lazy_pool1", (50, 8, 2, 8, 8)),
        ("lazy_pool2", (50, 8, 2, 4, 4)),
    ],
)
def test_maxpool_stacked(benchmark, name, x_shape):
    """A stacked LeNet pool's forward plus backward (2×2, batch-innermost)."""
    from repro.nn import functional as F

    rng = np.random.default_rng(3)
    x = rng.normal(size=x_shape).astype(np.float32)
    g = rng.normal(size=x_shape[:-2] + (x_shape[-2] // 2, x_shape[-1] // 2)).astype(np.float32)

    def step():
        out, ctx = F.maxpool2d(x, 2)
        return out, F.maxpool2d_backward(g, ctx, x_shape, 2)

    out, grad = benchmark(step)
    assert out.shape == g.shape and grad.shape == x_shape and grad.flags.c_contiguous


def test_statistical_progress_metric(benchmark):
    rng = np.random.default_rng(1)
    g_i = rng.normal(size=10_000)
    g_k = rng.normal(size=10_000)
    result = benchmark(statistical_progress, g_i, g_k)
    assert -1.0 <= result <= 1.0


def test_sampled_profiler_record(benchmark):
    rng = np.random.default_rng(2)
    model = LeNetCNN(rng=rng)
    sampler = LayerSampler.for_model(model, seed=0)
    recorder = AnchorRecorder([sampler], 1)
    params = model.arena().values
    anchor = params.copy()

    def record():
        recorder.record(params, anchor)
        recorder._k = 0

    benchmark(record)


def test_simulated_fedavg_round(benchmark):
    from repro.algorithms import OptimizerSpec, build_strategy
    from repro.data import dirichlet_partition, make_workload_data
    from repro.runtime import FederatedSimulator

    train, test = make_workload_data("cnn", num_samples=300, seed=0)
    parts = dirichlet_partition(train, 4, alpha=0.5, seed=1, min_samples=8)
    sim = FederatedSimulator(
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
        strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
        shards=[train.subset(p) for p in parts],
        test_set=test,
        base_iteration_times=[0.01] * 4,
        batch_size=8,
        local_iterations=5,
        seed=0,
    )
    benchmark.pedantic(sim.run_round, rounds=3, iterations=1, warmup_rounds=1)


def _lazy_lenet():
    """The ``lazy_fedavg_obs`` model: a micro LeNet over 1×8×8 inputs."""
    return LeNetCNN(
        in_channels=1, image_size=8, num_classes=4, conv_channels=(2, 2),
        fc_sizes=(8, 8), rng=np.random.default_rng(7),
    )


def test_page_chunk(benchmark):
    """Page one 25-client chunk of a 20 000-client subsampled population in:
    one ``derive`` (seed passes), one shard ``page`` and 25 ``create``s, the
    replicas handed back as an evicting pager does."""
    from repro.data import make_image_dataset
    from repro.scale import ClientFactory, PopulationSpec, SubsampledShards
    from repro.sysmodel import LinkModel

    pool = make_image_dataset(
        num_samples=2048, num_classes=4, channels=1, image_size=8, seed=5
    )
    factory = ClientFactory(
        PopulationSpec(
            shards=SubsampledShards(pool, 20_000, 16, alpha=0.5, seed=1),
            model_fn=_lazy_lenet,
            batch_size=8,
            pace=lambda cid: 0.01,
            link_fn=lambda cid: LinkModel(),
            seed=1,
        )
    )
    cids = np.random.default_rng(0).choice(20_000, 25, replace=False).tolist()

    def page():
        factory.derive(cids)
        factory.page(cids)
        clients = [factory.create(cid) for cid in cids]
        for client in clients:
            factory.release(client)
        return clients

    clients = benchmark(page)
    assert [c.client_id for c in clients] == cids
    assert all(c.num_samples == 16 for c in clients)


def test_member_views(benchmark):
    """Every member's parameter row and update views of a 25-wide stack
    whose members left — what a cohort round hands its strategy and reads
    back."""
    from repro.algorithms import OptimizerSpec
    from repro.nn.cohort import CohortModel
    from repro.runtime import CohortEngine

    width = 25
    template = _lazy_lenet()

    class _Member:
        model = template

    cohort = CohortModel(template, width)
    params = template.arena().values.copy()
    engine = CohortEngine(cohort, [_Member()] * width, template.arena().buffers)
    engine.load_global(params)
    rows = cohort.module.arena().values
    opt = engine.build_optimizer(OptimizerSpec(lr=0.1), params)
    engine.leave(np.zeros(width, dtype=bool), params, opt)

    def views():
        return [(rows[i], engine.member_update(i)) for i in range(width)]

    out = benchmark(views)
    assert len(out) == width and out[0][0].shape == params.shape
    assert out[0][1].keys() == template.arena().layout.layer_bytes.keys()
