"""Tests for the FedAvg/FedProx/FedAda/FedCA strategies at the client-round
level, using a tiny hand-built environment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    FedAda,
    FedAvg,
    FedCA,
    FedProx,
    OptimizerSpec,
    build_strategy,
    fedada_budget,
)
from repro.core import FedCAConfig
from repro.data import Dataset
from repro.nn import LeNetCNN
from repro.runtime import FederatedSimulator, RoundContext
from repro.runtime.client import SimClient
from repro.sysmodel import LinkModel, SpeedTrace

from .helpers import global_vectors


def tiny_shard(n=24, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3, 12, 12)).astype(np.float32)
    y = (np.arange(n) % 4).astype(np.int64)
    return Dataset(x, y, 10)


def model_fn():
    return LeNetCNN(rng=np.random.default_rng(3))


def make_client(cid=0, *, dynamic=False, base_time=0.01, mbps=10.0, seed=0):
    return SimClient(
        cid,
        tiny_shard(seed=cid),
        model_fn=model_fn,
        batch_size=8,
        trace=SpeedTrace(base_time, seed=seed, dynamic=dynamic),
        link=LinkModel(uplink_mbps=mbps, downlink_mbps=mbps),
        seed=seed,
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


class TestFedAvgClientRound:
    def test_runs_full_iterations(self):
        res = FedAvg(OPT).client_round(make_client(), *global_vectors(model_fn()), ctx())
        assert res.iterations_run == 6
        assert res.events["iterations_run"] == 6

    def test_update_equals_local_minus_global(self):
        client = make_client()
        params, buffers = global_vectors(model_fn())
        res = FedAvg(OPT).client_round(client, params, buffers, ctx())
        global_state = client.model.arena().layout.views(params)
        for name, p in client.model.named_parameters():
            np.testing.assert_allclose(
                res.update[name], p.data - global_state[name], rtol=1e-6
            )

    def test_timeline_ordering(self):
        res = FedAvg(OPT).client_round(make_client(), *global_vectors(model_fn()), ctx())
        assert res.compute_start_time > 0  # download time
        assert res.compute_finish_time > res.compute_start_time
        assert res.upload_finish_time > res.compute_finish_time

    def test_static_compute_time_exact(self):
        client = make_client(base_time=0.5)
        res = FedAvg(OPT).client_round(client, *global_vectors(model_fn()), ctx())
        assert res.compute_finish_time - res.compute_start_time == pytest.approx(3.0)

    def test_upload_bytes_full_model(self):
        client = make_client()
        res = FedAvg(OPT).client_round(client, *global_vectors(model_fn()), ctx())
        assert res.bytes_uploaded == client.model_bytes

    def test_assigned_iterations_respected(self):
        res = FedAvg(OPT).client_round(
            make_client(), *global_vectors(model_fn()), ctx(assigned=3)
        )
        assert res.iterations_run == 3

    def test_update_changes_model(self):
        res = FedAvg(OPT).client_round(make_client(), *global_vectors(model_fn()), ctx())
        assert any(np.abs(v).max() > 0 for v in res.update.values())


class TestFedProx:
    def test_prox_shrinks_drift(self):
        global_state = global_vectors(model_fn())
        plain = FedAvg(OPT).client_round(make_client(), *global_state, ctx(iterations=10))
        prox = FedProx(OPT, mu=1.0).client_round(make_client(), *global_state, ctx(iterations=10))
        norm = lambda upd: np.sqrt(sum(float((v**2).sum()) for v in upd.values()))
        assert norm(prox.update) < norm(plain.update)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            FedProx(OPT, mu=-1.0)


class TestFedAdaBudget:
    def test_fast_client_full_budget(self):
        assert fedada_budget(100, pace=0.01, deadline=10.0, tradeoff=0.5) == 100

    def test_straggler_trimmed_to_deadline(self):
        # 100 iterations at 0.5s = 50s >> deadline 10s -> fit = 20.
        assert fedada_budget(100, pace=0.5, deadline=10.0, tradeoff=0.5) == 20

    def test_mild_overshoot_tolerated_when_cost_cheap(self):
        # tradeoff near 1: benefit dominates, keep full K.
        assert fedada_budget(100, pace=0.5, deadline=10.0, tradeoff=0.99) == 100

    def test_budget_at_least_one(self):
        assert fedada_budget(10, pace=100.0, deadline=1.0, tradeoff=0.5) == 1

    def test_monotone_in_pace(self):
        budgets = [
            fedada_budget(50, pace=p, deadline=5.0, tradeoff=0.5)
            for p in (0.05, 0.2, 0.5, 1.0)
        ]
        assert budgets == sorted(budgets, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            fedada_budget(0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            fedada_budget(10, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            fedada_budget(10, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            fedada_budget(10, 1.0, 1.0, 1.0)


class TestFedCARounds:
    def _strategy(self, **cfg_overrides):
        cfg = FedCAConfig(**cfg_overrides) if cfg_overrides else FedCAConfig()
        return FedCA(OPT, config=cfg)

    def test_first_round_is_anchor(self):
        strat = self._strategy()
        client = make_client()
        res = strat.client_round(client, *global_vectors(model_fn()), ctx(round_index=0))
        assert res.events["anchor"]
        assert res.iterations_run == 6
        assert strat.profile(client).curves is not None

    def test_anchor_curve_properties(self):
        strat = self._strategy()
        client = make_client()
        strat.client_round(client, *global_vectors(model_fn()), ctx(round_index=0))
        curves = strat.profile(client).curves
        assert curves.num_iterations == 6
        assert curves.model_curve[-1] == pytest.approx(1.0)
        assert np.all(curves.model_curve <= 1.0 + 1e-9)

    def test_unprofiled_client_gets_anchor_even_mid_schedule(self):
        strat = self._strategy()
        client = make_client()
        res = strat.client_round(client, *global_vectors(model_fn()), ctx(round_index=5))
        assert res.events["anchor"]

    def test_optimized_round_after_anchor(self):
        strat = self._strategy()
        client = make_client()
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0))
        res = strat.client_round(client, *state, ctx(round_index=1))
        assert not res.events["anchor"]

    def test_early_stop_with_tight_deadline(self):
        strat = self._strategy()
        client = make_client(base_time=1.0)  # 1s per iteration
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0, iterations=8))
        res = strat.client_round(
            client, *state, ctx(round_index=1, iterations=8, deadline=2.5)
        )
        assert res.events["early_stop_iteration"] is not None
        assert res.iterations_run < 8

    def test_no_early_stop_with_loose_deadline_and_flat_cost(self):
        strat = self._strategy(beta=0.001)
        client = make_client(base_time=0.001)
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0, iterations=4))
        res = strat.client_round(
            client, *state, ctx(round_index=1, iterations=4, deadline=1e6)
        )
        # Cost is ~0; only a fully-flat benefit could stop before K.
        assert res.iterations_run >= 1

    def test_eager_transmission_records_events(self):
        strat = self._strategy(eager_threshold=0.5)
        client = make_client()
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0, iterations=8))
        res = strat.client_round(client, *state, ctx(round_index=1, iterations=8))
        assert len(res.events["eager"]) > 0
        for layer, tau in res.events["eager"].items():
            assert 1 <= tau <= res.iterations_run
            assert layer in client.layer_bytes

    def test_eager_disabled_in_v1(self):
        strat = FedCA(OPT, config=FedCAConfig.v1())
        client = make_client()
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0))
        res = strat.client_round(client, *state, ctx(round_index=1))
        assert res.events["eager"] == {}

    def test_server_receives_stale_value_without_retransmit(self):
        strat = FedCA(OPT, config=FedCAConfig.v2(eager_threshold=0.3))
        client = make_client()
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0, iterations=10))
        res = strat.client_round(client, *state, ctx(round_index=1, iterations=10))
        final = client.local_update(state[0])
        eager_layers = set(res.events["eager"])
        assert eager_layers
        early = [l for l, t in res.events["eager"].items() if t < res.iterations_run]
        stale = [
            l for l in early if not np.allclose(res.update[l], final[l])
        ]
        assert stale, "expected at least one eagerly-sent layer to be stale"

    def test_retransmitted_layers_use_final_value(self):
        # Force retransmission of everything: threshold above any cosine.
        strat = self._strategy(eager_threshold=0.3, retransmit_threshold=1.0)
        client = make_client()
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0, iterations=8))
        res = strat.client_round(client, *state, ctx(round_index=1, iterations=8))
        final = client.local_update(state[0])
        assert set(res.events["retransmitted"]) == set(res.events["eager"])
        for name in res.update:
            np.testing.assert_allclose(res.update[name], final[name], rtol=1e-6)

    def test_retransmission_costs_extra_bytes(self):
        strat = self._strategy(eager_threshold=0.3, retransmit_threshold=1.0)
        client = make_client()
        state = global_vectors(model_fn())
        strat.client_round(client, *state, ctx(round_index=0, iterations=8))
        res = strat.client_round(client, *state, ctx(round_index=1, iterations=8))
        assert res.bytes_uploaded > client.model_bytes

    def test_anchor_round_single_full_upload(self):
        strat = self._strategy()
        client = make_client()
        res = strat.client_round(client, *global_vectors(model_fn()), ctx(round_index=0))
        assert res.bytes_uploaded == client.model_bytes

    def test_eager_overlap_reduces_upload_finish(self):
        # Slow link + compute-heavy round: eager should beat a pure tail upload.
        state = global_vectors(model_fn())

        def run(variant_cfg):
            strat = FedCA(OPT, config=variant_cfg)
            client = make_client(mbps=0.05, base_time=0.3)
            strat.client_round(client, *state, ctx(round_index=0, iterations=10, deadline=1e5))
            res = strat.client_round(
                client, *state, ctx(round_index=1, iterations=10, deadline=1e5)
            )
            return res

        v1 = run(FedCAConfig.v1(beta=0.001))
        v2 = run(FedCAConfig.v2(beta=0.001, eager_threshold=0.5))
        if v1.iterations_run == v2.iterations_run:
            lag_v1 = v1.upload_finish_time - v1.compute_finish_time
            lag_v2 = v2.upload_finish_time - v2.compute_finish_time
            assert lag_v2 < lag_v1


class TestRegistry:
    def test_build_all_names(self):
        for name in ("fedavg", "fedprox", "fedada", "fedca", "fedca-v1",
                      "fedca-v2", "fedca-v3"):
            strat = build_strategy(name, OPT)
            assert strat is not None

    def test_variant_flags(self):
        v1 = build_strategy("fedca-v1", OPT)
        assert not v1.config.enable_eager_transmit
        v2 = build_strategy("fedca-v2", OPT)
        assert v2.config.enable_eager_transmit and not v2.config.enable_retransmit
        v3 = build_strategy("fedca-v3", OPT)
        assert v3.config.enable_retransmit

    def test_custom_config_carries_over(self):
        cfg = FedCAConfig(beta=0.1, eager_threshold=0.9)
        strat = build_strategy("fedca-v1", OPT, fedca_config=cfg)
        assert strat.config.beta == 0.1
        assert strat.config.eager_threshold == 0.9
        assert not strat.config.enable_eager_transmit

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            build_strategy("fedsgd", OPT)

    def test_names_for_display(self):
        assert build_strategy("fedca", OPT).name == "FedCA"
        assert build_strategy("fedca-v2", OPT).name == "FedCA-v2"


class TestFedAdaPrepareRound:
    def test_budgets_follow_estimates(self):
        shards = [tiny_shard(seed=i) for i in range(3)]
        sim = FederatedSimulator(
            model_fn=model_fn,
            strategy=FedAda(OPT),
            shards=shards,
            test_set=tiny_shard(seed=99),
            base_iteration_times=[0.01, 0.01, 10.0],
            batch_size=8,
            local_iterations=10,
            dynamic=False,
            seed=0,
        )
        budgets = sim.strategy.prepare_round(sim, [0, 1, 2], deadline=1.0, round_index=0)
        assert budgets[0] == 10
        assert budgets[1] == 10
        assert budgets[2] < 10


class TestDeadlineStop:
    def test_stops_at_deadline(self):
        from repro.algorithms import DeadlineStop

        strat = DeadlineStop(OPT)
        client = make_client(base_time=1.0)  # 1 s per iteration
        res = strat.client_round(
            client, *global_vectors(model_fn()), ctx(iterations=10, deadline=3.5)
        )
        assert res.iterations_run == 4  # crosses 3.5 s after the 4th iteration
        assert res.events["early_stop_iteration"] == 4

    def test_fast_client_runs_full_round(self):
        from repro.algorithms import DeadlineStop

        strat = DeadlineStop(OPT)
        client = make_client(base_time=0.01)
        res = strat.client_round(
            client, *global_vectors(model_fn()), ctx(iterations=6, deadline=100.0)
        )
        assert res.iterations_run == 6
        assert res.events["early_stop_iteration"] is None

    def test_registry_name(self):
        strat = build_strategy("deadline-stop", OPT)
        assert strat.name == "DeadlineStop"
