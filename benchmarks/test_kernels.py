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


@pytest.mark.parametrize(
    "name,x_shape,k,stride,pad",
    [
        # (members, batch, C, H, W) as the default engine stacks them.
        ("lenet_conv2", (12, 8, 6, 6, 6), 3, 1, 1),
        ("wrn_12x12", (10, 8, 4, 12, 12), 3, 1, 1),
        ("wrn_stride2", (10, 8, 4, 12, 12), 3, 2, 1),
        ("lazy_lenet_conv2", (32, 8, 2, 4, 4), 3, 1, 1),
    ],
)
def test_col2im_stacked(benchmark, name, x_shape, k, stride, pad):
    from repro.nn import functional as F

    out_h, out_w = F.conv_output_size(*x_shape[-2:], k, k, stride, pad)
    rng = np.random.default_rng(3)
    cols_shape = x_shape[:-3] + (x_shape[-3] * k * k, out_h * out_w)
    cols = rng.normal(size=cols_shape).astype(np.float32)
    out = benchmark(F.col2im, cols, x_shape, k, k, stride, pad)
    assert out.shape == x_shape and out.flags.c_contiguous


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
    recorder = AnchorRecorder(sampler)
    params = {n: p.data for n, p in model.named_parameters()}
    anchor = {n: p.data.copy() for n, p in model.named_parameters()}

    def record():
        recorder.record(params, anchor)
        recorder._snapshots.clear()

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
