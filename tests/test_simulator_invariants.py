"""Cross-strategy simulator invariants: every scheme must produce coherent
round records under the same environment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec, build_strategy
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.runtime import FederatedSimulator, parse_wire_spec
from repro.sysmodel import LinkModel

OPT = OptimizerSpec(lr=0.05, weight_decay=0.01)
NUM_CLIENTS = 5
K = 6


@pytest.fixture(scope="module")
def env_data():
    train, test = make_workload_data("cnn", num_samples=400, seed=9)
    parts = dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=10, min_samples=8)
    return [train.subset(p) for p in parts], test


def build(env_data, strategy, **kwargs):
    shards, test = env_data
    defaults = dict(
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
        strategy=strategy,
        shards=shards,
        test_set=test,
        base_iteration_times=[0.01, 0.012, 0.015, 0.02, 0.03],
        batch_size=8,
        local_iterations=K,
        aggregation_fraction=0.8,
        link_fn=lambda cid: LinkModel(uplink_mbps=2.0, downlink_mbps=2.0),
        gamma_fast=(2.0, 0.5),
        gamma_slow=(2.0, 0.2),
        slowdown_range=(1.5, 3.0),
        seed=4,
    )
    defaults.update(kwargs)
    return FederatedSimulator(**defaults)


ALL_SCHEMES = [
    "fedavg", "fedprox", "fedada", "fedca", "fedca-v1", "fedca-v2",
    "deadline-stop",
]


class TestRecordCoherence:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_round_records_coherent(self, env_data, scheme):
        sim = build(env_data, build_strategy(scheme, OPT))
        hist = sim.run(4)
        for rec in hist.records:
            assert rec.duration > 0
            # 0.8 of 5 clients => 4 collected, 1 straggler.
            assert len(rec.collected_clients) == 4
            assert len(rec.straggler_clients) == 1
            assert 1 <= rec.mean_iterations <= K
            assert rec.total_bytes > 0
            assert 0.0 <= rec.accuracy <= 1.0
            assert np.isfinite(rec.mean_loss)
            # Client events exist for every client that ran.
            assert len(rec.client_events) == NUM_CLIENTS

    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_global_state_stays_finite(self, env_data, scheme):
        sim = build(env_data, build_strategy(scheme, OPT))
        sim.run(3)
        for name, value in sim.global_state.items():
            assert np.all(np.isfinite(value)), f"{scheme}: {name} went non-finite"

    def test_compressed_strategy_record_coherent(self, env_data):
        strategy = build_strategy("fedavg", OPT)
        strategy.set_wire(parse_wire_spec("quant8"))
        sim = build(env_data, strategy)
        rec = sim.run_round()
        # Quantized payloads are far below full-model bytes.
        full = sim.clients[0].model_bytes * NUM_CLIENTS
        assert rec.total_bytes <= full * 0.3


class TestTimeAccountingAcrossSchemes:
    def test_fedca_round_never_slower_than_fedavg_same_env(self, env_data):
        """With identical static heterogeneity (no dynamics), FedCA's round
        time is bounded by FedAvg's: it only removes work and overlaps
        communication — except anchor rounds, which match FedAvg."""
        avg = build(env_data, build_strategy("fedavg", OPT), dynamic=False)
        ca = build(env_data, build_strategy("fedca", OPT), dynamic=False)
        h_avg = avg.run(4)
        h_ca = ca.run(4)
        for r_avg, r_ca in zip(h_avg.records, h_ca.records):
            assert r_ca.duration <= r_avg.duration + 1e-6

    def test_round_time_scales_with_iterations(self, env_data):
        short = build(env_data, build_strategy("fedavg", OPT), local_iterations=3,
                      dynamic=False)
        long = build(env_data, build_strategy("fedavg", OPT), local_iterations=12,
                     dynamic=False)
        assert long.run_round().duration > short.run_round().duration

    def test_slower_links_slow_rounds(self, env_data):
        fast = build(env_data, build_strategy("fedavg", OPT), dynamic=False,
                     link_fn=lambda cid: LinkModel(uplink_mbps=50.0, downlink_mbps=50.0))
        slow = build(env_data, build_strategy("fedavg", OPT), dynamic=False,
                     link_fn=lambda cid: LinkModel(uplink_mbps=0.2, downlink_mbps=0.2))
        assert slow.run_round().duration > fast.run_round().duration
