"""Tests for the §6 client-autonomy extensions (adaptive batch size)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedCAAdaptiveBatch, OptimizerSpec
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.runtime import FederatedSimulator, RoundContext
from repro.runtime.client import SimClient
from repro.sysmodel import LinkModel, SpeedTrace

from .helpers import global_vectors

OPT = OptimizerSpec(lr=0.05, weight_decay=0.01)


def tiny_shard(n=40, seed=0):
    from repro.data import Dataset

    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3, 12, 12)).astype(np.float32)
    y = (np.arange(n) % 4).astype(np.int64)
    return Dataset(x, y, 10)


def make_client(*, trace, seed=0):
    return SimClient(
        0,
        tiny_shard(seed=seed),
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(3)),
        batch_size=8,
        trace=trace,
        link=LinkModel(uplink_mbps=10.0, downlink_mbps=10.0),
        seed=seed,
    )


class TestFedCAAdaptiveBatch:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FedCAAdaptiveBatch(OPT, slowdown_trigger=0.5)
        with pytest.raises(ValueError):
            FedCAAdaptiveBatch(OPT, min_batch_fraction=0.0)

    def test_full_batch_at_full_speed(self):
        strat = FedCAAdaptiveBatch(OPT)
        client = make_client(trace=SpeedTrace(0.1, seed=0, dynamic=False))
        batch, work = strat.step_plan(client, 0.0)
        assert batch == 8
        t = client.trace.iteration_finish_time(0.0, work)
        assert t == pytest.approx(0.1)

    def test_shrinks_batch_under_slowdown(self):
        strat = FedCAAdaptiveBatch(OPT, slowdown_trigger=2.0)
        # Always slowed by 4x.
        trace = SpeedTrace(
            0.1, seed=0, dynamic=True,
            gamma_fast=(2.0, 1e-6), gamma_slow=(2.0, 1e9),
            slowdown_range=(4.0, 4.0),
        )
        client = make_client(trace=trace)
        # Start inside the (enormous) slow segment.
        start = trace.iteration_finish_time(0.0, 1)  # past the tiny fast lead-in
        assert trace.slowdown_at(start + 1.0) == 4.0
        batch, work = strat.step_plan(client, start + 1.0)
        assert batch == 2
        t = trace.iteration_finish_time(start + 1.0, work)
        # Quarter batch at 4x slowdown ~ one base-iteration wall time.
        wall = t - (start + 1.0)
        assert wall == pytest.approx(0.1, rel=0.3)

    def test_min_batch_fraction_floor(self):
        strat = FedCAAdaptiveBatch(OPT, slowdown_trigger=1.0, min_batch_fraction=0.5)
        trace = SpeedTrace(
            0.1, seed=0, dynamic=True,
            gamma_fast=(2.0, 1e-6), gamma_slow=(2.0, 1e9),
            slowdown_range=(5.0, 5.0),
        )
        client = make_client(trace=trace)
        start = trace.iteration_finish_time(0.0, 1) + 1.0
        batch, work = strat.step_plan(client, start)
        assert batch == 4
        t = trace.iteration_finish_time(start, work)
        # Floor 0.5 batch at 5x slowdown => 0.25s, not 0.1s.
        assert (t - start) == pytest.approx(0.5 * 0.1 * 5.0, rel=0.3)

    def test_end_to_end_run(self):
        train, test = make_workload_data("cnn", num_samples=400, seed=3)
        parts = dirichlet_partition(train, 4, alpha=1.0, seed=4, min_samples=8)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=FedCAAdaptiveBatch(OPT),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.02] * 4,
            batch_size=8,
            local_iterations=8,
            gamma_fast=(2.0, 0.5),
            gamma_slow=(2.0, 0.5),
            seed=1,
        )
        hist = sim.run(8)
        assert hist.num_rounds == 8
        assert hist.best_accuracy() > 0.15

    def test_adaptive_rounds_not_slower_than_plain_under_heavy_dynamics(self):
        """Under persistent severe slowdowns the adaptive client finishes its
        compute faster than the plain FedCA client (it sheds work per
        iteration instead of waiting)."""
        from repro.algorithms import FedCA

        state = global_vectors(LeNetCNN(rng=np.random.default_rng(3)))

        def compute_span(strategy_cls, **kwargs):
            strat = strategy_cls(OPT, **kwargs)
            trace = SpeedTrace(
                0.05, seed=0, dynamic=True,
                gamma_fast=(2.0, 1e-6), gamma_slow=(2.0, 1e9),
                slowdown_range=(4.0, 4.0),
            )
            client = make_client(trace=trace)
            ctx0 = RoundContext(0, 0.0, 10, deadline=1e6)
            strat.client_round(client, *state, ctx0)
            ctx1 = RoundContext(1, 0.0, 10, deadline=1e6)
            res = strat.client_round(client, *state, ctx1)
            return (res.compute_finish_time - res.compute_start_time, res.iterations_run)

        plain_span, plain_iters = compute_span(FedCA)
        adaptive_span, adaptive_iters = compute_span(FedCAAdaptiveBatch)
        if plain_iters == adaptive_iters:
            assert adaptive_span < plain_span
