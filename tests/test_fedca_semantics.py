"""Deeper FedCA round semantics: uplink accounting, eager/tail interplay,
and variant edge cases beyond the basics in test_algorithms.py."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FedCA, OptimizerSpec
from repro.core import FedCAConfig
from repro.data import Dataset
from repro.nn import LeNetCNN
from repro.runtime import RoundContext
from repro.runtime.client import SimClient
from repro.sysmodel import LinkModel, SpeedTrace

from .helpers import global_vectors

OPT = OptimizerSpec(lr=0.05, weight_decay=0.0)


def shard(n=24, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        rng.normal(size=(n, 3, 12, 12)).astype(np.float32),
        (np.arange(n) % 4).astype(np.int64),
        10,
    )


def client(*, base_time=0.01, mbps=10.0, seed=0):
    return SimClient(
        0,
        shard(seed=seed),
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(3)),
        batch_size=8,
        trace=SpeedTrace(base_time, seed=seed, dynamic=False),
        link=LinkModel(uplink_mbps=mbps, downlink_mbps=mbps),
        seed=seed,
    )


def ctx(round_index, iterations=8, deadline=1e6):
    return RoundContext(
        round_index=round_index,
        round_start=0.0,
        iterations=iterations,
        deadline=deadline,
    )


def run_two_rounds(strategy, cl, iterations=8, deadline=1e6):
    state = global_vectors(LeNetCNN(rng=np.random.default_rng(3)))
    strategy.client_round(cl, *state, ctx(0, iterations, deadline))
    return strategy.client_round(cl, *state, ctx(1, iterations, deadline)), state


class TestUplinkAccounting:
    def test_upload_finish_covers_all_transfers(self):
        strat = FedCA(OPT, config=FedCAConfig(eager_threshold=0.5))
        cl = client()
        res, _ = run_two_rounds(strat, cl)
        assert res.upload_finish_time >= cl.uplink.busy_until - 1e-12
        for tx in cl.uplink.log:
            assert tx.finish_time <= res.upload_finish_time + 1e-12

    def test_bytes_equal_log_total(self):
        strat = FedCA(OPT, config=FedCAConfig(eager_threshold=0.5))
        cl = client()
        res, _ = run_two_rounds(strat, cl)
        assert res.bytes_uploaded == sum(tx.nbytes for tx in cl.uplink.log)

    def test_all_layers_eager_no_retransmit_means_tiny_tail(self):
        # Threshold so low every layer triggers at iteration 1, retransmit
        # disabled: tail upload should be absent entirely.
        strat = FedCA(OPT, config=FedCAConfig.v2(eager_threshold=0.01))
        cl = client()
        res, _ = run_two_rounds(strat, cl)
        labels = [tx.label for tx in cl.uplink.log]
        assert "tail" not in labels
        assert len(res.events["eager"]) == len(cl.layer_bytes)
        assert res.bytes_uploaded == cl.model_bytes

    def test_retransmit_never_threshold(self):
        # T_r = -1: cosine can never be below it, so nothing retransmits.
        strat = FedCA(
            OPT, config=FedCAConfig(eager_threshold=0.3, retransmit_threshold=-1.0)
        )
        cl = client()
        res, _ = run_two_rounds(strat, cl)
        assert res.events["retransmitted"] == []

    def test_eager_layers_sent_exactly_once_unless_retransmitted(self):
        strat = FedCA(OPT, config=FedCAConfig(eager_threshold=0.5))
        cl = client()
        res, _ = run_two_rounds(strat, cl)
        eager_labels = [
            tx.label for tx in cl.uplink.log if tx.label.startswith("eager:")
        ]
        assert len(eager_labels) == len(set(eager_labels))
        assert len(eager_labels) == len(res.events["eager"])


class TestVariantEdges:
    def test_eager_only_variant_never_early_stops(self):
        cfg = FedCAConfig(
            enable_early_stop=False,
            enable_eager_transmit=True,
            enable_retransmit=True,
            eager_threshold=0.5,
        )
        strat = FedCA(OPT, config=cfg)
        cl = client(base_time=1.0)
        res, _ = run_two_rounds(strat, cl, deadline=0.5)  # brutal deadline
        assert res.events["early_stop_iteration"] is None
        assert res.iterations_run == 8

    def test_fully_disabled_fedca_is_fedavg_shaped(self):
        cfg = FedCAConfig(
            enable_early_stop=False,
            enable_eager_transmit=False,
            enable_retransmit=False,
        )
        strat = FedCA(OPT, config=cfg)
        cl = client()
        res, state = run_two_rounds(strat, cl)
        assert res.iterations_run == 8
        assert res.events["eager"] == {}
        assert res.bytes_uploaded == cl.model_bytes
        # Server receives exactly the local update.
        final = cl.local_update(state[0])
        for name in final:
            np.testing.assert_allclose(res.update[name], final[name], rtol=1e-6)

    def test_min_local_iterations_floor_respected(self):
        cfg = FedCAConfig(min_local_iterations=5)
        strat = FedCA(OPT, config=cfg)
        cl = client(base_time=10.0)  # absurdly slow: wants to stop at once
        res, _ = run_two_rounds(strat, cl, deadline=1.0)
        assert res.iterations_run >= 5

    def test_profile_every_one_always_anchors(self):
        strat = FedCA(OPT, config=FedCAConfig(profile_every=1))
        cl = client()
        state = global_vectors(LeNetCNN(rng=np.random.default_rng(3)))
        for r in range(3):
            res = strat.client_round(cl, *state, ctx(r))
            assert res.events["anchor"], f"round {r} should anchor"


class TestServerReceivedUpdates:
    def test_received_keys_always_complete(self):
        for cfg in (
            FedCAConfig(),
            FedCAConfig.v1(),
            FedCAConfig.v2(eager_threshold=0.3),
            FedCAConfig(eager_threshold=0.3, retransmit_threshold=1.0),
        ):
            strat = FedCA(OPT, config=cfg)
            cl = client()
            res, _ = run_two_rounds(strat, cl)
            assert set(res.update) == set(cl.layer_bytes), cfg
            for v in res.update.values():
                assert np.all(np.isfinite(v))
