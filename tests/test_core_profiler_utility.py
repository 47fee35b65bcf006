"""Tests for the anchor-round profiler and the Eq. 2–4 utility machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AnchorRecorder,
    EagerSchedule,
    EarlyStopPolicy,
    FedCAConfig,
    LayerSampler,
    ProfiledCurves,
    deviated_layers,
    is_anchor_round,
    marginal_benefit,
    marginal_cost,
    needs_retransmission,
    net_benefit,
)

from .helpers import progress_reference


def make_curves(model_curve, layer_curves=None, round_index=0):
    model_curve = np.asarray(model_curve, dtype=np.float64)
    k = len(model_curve)
    layer_curves = layer_curves or {"layer": model_curve.copy()}
    return ProfiledCurves(
        round_index=round_index,
        num_iterations=k,
        layer_curves={n: np.asarray(c, dtype=np.float64) for n, c in layer_curves.items()},
        model_curve=model_curve,
    )


# ----------------------------------------------------------------------
# Anchor rounds / recorder
# ----------------------------------------------------------------------
class TestAnchorRounds:
    def test_round_zero_is_anchor(self):
        assert is_anchor_round(0, 10)

    def test_periodicity(self):
        assert is_anchor_round(10, 10)
        assert not is_anchor_round(9, 10)
        assert is_anchor_round(20, 10)

    def test_profile_every_one_always_anchors(self):
        assert all(is_anchor_round(r, 1) for r in range(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            is_anchor_round(-1, 10)
        with pytest.raises(ValueError):
            is_anchor_round(0, 0)


class TestAnchorRecorder:
    def _sampler(self):
        return LayerSampler({"w": (20,), "b": (4,)}, seed=0)

    def test_records_and_finalizes_curves(self):
        sampler = self._sampler()
        rec = AnchorRecorder(sampler)
        anchor = {"w": np.zeros(20, dtype=np.float32), "b": np.zeros(4, dtype=np.float32)}
        target_w = np.ones(20, dtype=np.float32)
        target_b = np.full(4, 2.0, dtype=np.float32)
        for i in range(1, 6):
            params = {"w": target_w * (i / 5), "b": target_b * (i / 5)}
            rec.record(params, anchor)
        curves = rec.finalize(round_index=7)
        assert curves.round_index == 7
        assert curves.num_iterations == 5
        # Linear accumulation -> P_i = i/K for every layer and the model.
        np.testing.assert_allclose(curves.model_curve, [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-5)
        np.testing.assert_allclose(curves.layer_curves["w"], [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-5)

    def test_finalize_is_bytes_equal_to_per_snapshot_progress(self):
        """``finalize`` takes ``‖G_K‖`` once per curve; every curve must
        still hold exactly the per-snapshot Eq. 1 values."""
        sampler = self._sampler()
        rec = AnchorRecorder(sampler)
        rng = np.random.default_rng(4)
        anchor = {"w": np.zeros(20, np.float32), "b": np.zeros(4, np.float32)}
        snaps = []
        params = {k: v.copy() for k, v in anchor.items()}
        for _ in range(7):
            params["w"] += rng.normal(size=20).astype(np.float32)  # "b" never moves
            rec.record(params, anchor)
            snaps.append(sampler.extract_delta(params, anchor))
        curves = rec.finalize(0)
        for name in ("w", "b"):
            want = [progress_reference(s[name], snaps[-1][name]) for s in snaps]
            assert curves.layer_curves[name].tobytes() == np.array(want).tobytes()
        flat = [np.concatenate([s["w"], s["b"]]) for s in snaps]
        want = [progress_reference(f, flat[-1]) for f in flat]
        assert curves.model_curve.tobytes() == np.array(want).tobytes()
        assert (curves.layer_curves["b"] == 1.0).all()  # zero vs zero

    def test_finalize_clears_snapshots(self):
        sampler = self._sampler()
        rec = AnchorRecorder(sampler)
        anchor = {"w": np.zeros(20, np.float32), "b": np.zeros(4, np.float32)}
        rec.record({"w": np.ones(20, np.float32), "b": np.ones(4, np.float32)}, anchor)
        rec.finalize(0)
        assert rec.num_recorded == 0
        with pytest.raises(RuntimeError):
            rec.finalize(1)

    def test_memory_accounting(self):
        sampler = self._sampler()
        rec = AnchorRecorder(sampler)
        anchor = {"w": np.zeros(20, np.float32), "b": np.zeros(4, np.float32)}
        for _ in range(3):
            rec.record({"w": np.ones(20, np.float32), "b": np.ones(4, np.float32)}, anchor)
        # 50% of 20 = 10 + 50% of 4 = 2 -> 12 scalars * 3 snapshots * 4 bytes
        assert rec.memory_bytes() == 12 * 3 * 4


class TestProfiledCurves:
    def test_p_zero_convention(self):
        curves = make_curves([0.5, 1.0])
        assert curves.p(0) == 0.0
        assert curves.p(1) == 0.5
        assert curves.p(2) == 1.0

    def test_p_out_of_range(self):
        curves = make_curves([0.5, 1.0])
        with pytest.raises(ValueError):
            curves.p(3)
        with pytest.raises(ValueError):
            curves.p(-1)

    def test_layer_trigger_iteration(self):
        curves = make_curves([0.5, 1.0], {"l": [0.3, 0.96, 1.0][:2]})
        # with 2 iterations curve [0.3, 0.96]: trigger at tau=2 for 0.95
        assert curves.layer_trigger_iteration("l", 0.95) == 2
        assert curves.layer_trigger_iteration("l", 0.2) == 1
        assert curves.layer_trigger_iteration("l", 0.99) is None

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ProfiledCurves(0, 3, {"l": np.zeros(3)}, np.zeros(2))
        with pytest.raises(ValueError):
            ProfiledCurves(0, 2, {"l": np.zeros(3)}, np.zeros(2))


# ----------------------------------------------------------------------
# Utility (Eqs. 2–4)
# ----------------------------------------------------------------------
class TestMarginalBenefit:
    def test_concave_curve_uses_delta(self):
        curves = make_curves([0.6, 0.8, 0.9, 1.0])
        # tau=2: delta = 0.2, floor = (1-0.8)/2 = 0.1 -> 0.2
        assert marginal_benefit(curves, 2) == pytest.approx(0.2)

    def test_flat_segment_uses_floor(self):
        curves = make_curves([0.6, 0.6, 0.9, 1.0])
        # tau=2: delta = 0, floor = (1-0.6)/2 = 0.2
        assert marginal_benefit(curves, 2) == pytest.approx(0.2)

    def test_last_iteration_no_floor(self):
        curves = make_curves([0.5, 0.9, 1.0])
        assert marginal_benefit(curves, 3) == pytest.approx(0.1)

    def test_first_iteration_uses_p0(self):
        curves = make_curves([0.7, 1.0])
        assert marginal_benefit(curves, 1) == pytest.approx(0.7)

    def test_tau_bounds(self):
        curves = make_curves([0.5, 1.0])
        with pytest.raises(ValueError):
            marginal_benefit(curves, 0)
        with pytest.raises(ValueError):
            marginal_benefit(curves, 3)

    def test_non_monotone_dip_floored(self):
        # A noisy dip (P decreases) would give negative delta; the floor
        # keeps the benefit positive while P < 1.
        curves = make_curves([0.8, 0.7, 1.0])
        b = marginal_benefit(curves, 2)
        assert b == pytest.approx((1 - 0.7) / 1)


class TestMarginalCost:
    def test_pre_deadline_scaled_by_beta(self):
        assert marginal_cost(5.0, 10.0, 0.01) == pytest.approx(0.01 * 0.5)

    def test_post_deadline_full(self):
        assert marginal_cost(20.0, 10.0, 0.01) == pytest.approx(2.0)

    def test_kink_at_deadline(self):
        at = marginal_cost(10.0, 10.0, 0.01)
        just_after = marginal_cost(10.0 + 1e-9, 10.0, 0.01)
        assert at == pytest.approx(0.01)
        assert just_after == pytest.approx(1.0, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            marginal_cost(-1.0, 10.0, 0.01)
        with pytest.raises(ValueError):
            marginal_cost(1.0, 0.0, 0.01)
        with pytest.raises(ValueError):
            marginal_cost(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            marginal_cost(1.0, 1.0, 1.5)

    def test_net_benefit_is_difference(self):
        curves = make_curves([0.5, 0.75, 1.0])
        n = net_benefit(curves, 2, elapsed=5.0, deadline=10.0, beta=0.01)
        assert n == pytest.approx(0.25 - 0.005)


# ----------------------------------------------------------------------
# Early stop policy
# ----------------------------------------------------------------------
class TestEarlyStopPolicy:
    def test_stops_when_benefit_below_cost(self):
        # Benefit at tau=3 is tiny; post-deadline cost is huge.
        curves = make_curves([0.9, 0.98, 0.99, 1.0])
        policy = EarlyStopPolicy(curves, FedCAConfig())
        assert policy.decide(3, elapsed=20.0, deadline=10.0).stop

    def test_keeps_going_pre_deadline_with_benefit(self):
        curves = make_curves([0.3, 0.6, 0.9, 1.0])
        policy = EarlyStopPolicy(curves, FedCAConfig())
        assert not policy.decide(2, elapsed=1.0, deadline=10.0).stop

    def test_disabled_never_stops(self):
        curves = make_curves([0.99, 0.995, 1.0])
        cfg = FedCAConfig(enable_early_stop=False, enable_eager_transmit=False,
                          enable_retransmit=False)
        policy = EarlyStopPolicy(curves, cfg)
        assert not policy.decide(2, elapsed=100.0, deadline=1.0).stop

    def test_min_iterations_respected(self):
        curves = make_curves([0.99, 0.995, 0.999, 1.0])
        cfg = FedCAConfig(min_local_iterations=3)
        policy = EarlyStopPolicy(curves, cfg)
        assert not policy.decide(2, elapsed=100.0, deadline=1.0).stop
        assert policy.decide(3, elapsed=100.0, deadline=1.0).stop

    def test_beyond_profiled_k_stops(self):
        curves = make_curves([0.5, 1.0])
        policy = EarlyStopPolicy(curves, FedCAConfig())
        assert policy.decide(2, elapsed=0.1, deadline=10.0).stop

    def test_tau_validation(self):
        curves = make_curves([0.5, 1.0])
        policy = EarlyStopPolicy(curves, FedCAConfig())
        with pytest.raises(ValueError):
            policy.decide(0, 1.0, 1.0)


# ----------------------------------------------------------------------
# Eager schedule / retransmission
# ----------------------------------------------------------------------
class TestEagerSchedule:
    def test_triggers_from_threshold(self):
        curves = make_curves(
            [0.5, 0.8, 1.0],
            {"fast": [0.96, 0.99, 1.0], "slow": [0.2, 0.5, 1.0]},
        )
        sched = EagerSchedule(curves, 0.95)
        assert sched.triggers == {"fast": 1, "slow": 3}

    def test_due_returns_each_layer_once(self):
        curves = make_curves([1.0], {"a": [1.0], "b": [1.0]})
        sched = EagerSchedule(curves, 0.95)
        assert set(sched.due(1)) == {"a", "b"}
        assert sched.due(1) == []

    def test_due_catches_up_after_skipped_iterations(self):
        curves = make_curves(
            [0.5, 0.8, 1.0], {"early": [0.96, 0.99, 1.0], "later": [0.2, 0.97, 1.0]}
        )
        sched = EagerSchedule(curves, 0.95)
        # Caller first asks at tau=2: both layers due.
        assert set(sched.due(2)) == {"early", "later"}

    def test_never_converged_layer_absent(self):
        curves = make_curves([0.5, 0.9], {"l": [0.5, 0.9]})
        sched = EagerSchedule(curves, 0.95)
        assert "l" not in sched.triggers

    def test_threshold_validation(self):
        curves = make_curves([1.0])
        with pytest.raises(ValueError):
            EagerSchedule(curves, 0.0)

    def test_due_validation(self):
        sched = EagerSchedule(make_curves([1.0]), 0.95)
        with pytest.raises(ValueError):
            sched.due(0)


class TestRetransmission:
    def test_aligned_updates_pass(self):
        final = np.array([1.0, 2.0, 3.0])
        sent = np.array([0.9, 1.9, 3.1])
        assert not needs_retransmission(final, sent, 0.6)

    def test_deviated_updates_flagged(self):
        final = np.array([1.0, 0.0])
        sent = np.array([0.0, 1.0])
        assert needs_retransmission(final, sent, 0.6)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            needs_retransmission(np.ones(2), np.ones(2), 2.0)

    def test_deviated_layers_filters(self):
        final = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0])}
        sent = {"a": np.array([0.0, 1.0]), "b": np.array([0.9, 1.1])}
        assert deviated_layers(final, sent, 0.6) == ["a"]

    def test_deviated_layers_missing_final_raises(self):
        with pytest.raises(KeyError):
            deviated_layers({}, {"a": np.ones(2)}, 0.6)

    def test_untransmitted_layers_not_checked(self):
        final = {"a": np.ones(2), "b": -np.ones(2)}
        sent = {"a": np.ones(2)}
        assert deviated_layers(final, sent, 0.6) == []


class TestFedCAConfig:
    def test_defaults_match_paper(self):
        cfg = FedCAConfig()
        assert cfg.profile_every == 10
        assert cfg.beta == 0.01
        assert cfg.eager_threshold == 0.95
        assert cfg.retransmit_threshold == 0.6
        assert cfg.sample_cap == 100

    def test_ablation_variants(self):
        v1 = FedCAConfig.v1()
        assert v1.enable_early_stop and not v1.enable_eager_transmit
        v2 = FedCAConfig.v2()
        assert v2.enable_eager_transmit and not v2.enable_retransmit
        v3 = FedCAConfig.v3()
        assert v3.enable_retransmit

    def test_retransmit_requires_eager(self):
        with pytest.raises(ValueError):
            FedCAConfig(enable_eager_transmit=False, enable_retransmit=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            FedCAConfig(profile_every=0)
        with pytest.raises(ValueError):
            FedCAConfig(beta=0.0)
        with pytest.raises(ValueError):
            FedCAConfig(eager_threshold=1.5)
        with pytest.raises(ValueError):
            FedCAConfig(sample_fraction=0.0)
        with pytest.raises(ValueError):
            FedCAConfig(min_local_iterations=0)
