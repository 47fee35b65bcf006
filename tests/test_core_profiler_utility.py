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
)

from repro.core.eager import NEVER

from .helpers import extract_delta_reference, progress_reference


def benefit(curves, tau):
    """Eq. 2 of one member's curves, through a stack's ``P_0 … P_K`` rows."""
    policy = EarlyStopPolicy([curves], FedCAConfig())
    return marginal_benefit(policy.p, policy.num_iterations)[0, tau - 1]


def triggers(sched, member=0):
    """One member's Eq. 5 triggers as ``{layer: tau}``."""
    return {
        name: int(tau)
        for name, tau in zip(sched.names, sched.triggers[member])
        if tau != NEVER
    }


def due(sched, tau, member=0):
    """The layers one member is due to send at ``tau``, in send order."""
    return [name for name, d in zip(sched.names, sched.due(tau)[member]) if d]


def make_curves(model_curve, layer_curves=None, round_index=0):
    layer_curves = layer_curves or {"layer": model_curve}
    rows = [model_curve, *layer_curves.values()]
    return ProfiledCurves(
        round_index, np.asarray(rows, dtype=np.float64), tuple(layer_curves)
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
    """A ``{"w": (20,), "b": (4,)}`` model is one 24-float vector: ``w`` is
    ``[0, 20)``, ``b`` is ``[20, 24)``."""

    def _sampler(self):
        return LayerSampler({"w": (20,), "b": (4,)}, seed=0)

    def test_records_and_finalizes_curves(self):
        sampler = self._sampler()
        rec = AnchorRecorder([sampler], 5)
        anchor = np.zeros(24, dtype=np.float32)
        target = np.concatenate([np.ones(20), np.full(4, 2.0)]).astype(np.float32)
        for i in range(1, 6):
            rec.record(target * (i / 5), anchor)
        (curves,) = rec.finalize(round_index=7)
        assert curves.round_index == 7
        assert curves.num_iterations == 5
        # Linear accumulation -> P_i = i/K for every layer and the model.
        np.testing.assert_allclose(curves.model_curve, [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-5)
        np.testing.assert_allclose(curves.layer_curve("w"), [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-5)

    def test_finalize_is_bytes_equal_to_per_snapshot_progress(self):
        """``finalize`` takes ``‖G_K‖`` once per curve; every curve must
        still hold exactly the per-snapshot Eq. 1 values."""
        sampler = self._sampler()
        rec = AnchorRecorder([sampler], 7)
        rng = np.random.default_rng(4)
        anchor = np.zeros(24, np.float32)
        indices = {"w": sampler.index[:10], "b": sampler.index[10:] - 20}
        snaps = []
        params = anchor.copy()
        for _ in range(7):
            params[:20] += rng.normal(size=20).astype(np.float32)  # "b" never moves
            rec.record(params, anchor)
            views = {"w": params[:20], "b": params[20:]}
            snaps.append(
                extract_delta_reference(indices, views, {"w": anchor[:20], "b": anchor[20:]})
            )
        (curves,) = rec.finalize(0)
        for name in ("w", "b"):
            want = [progress_reference(s[name], snaps[-1][name]) for s in snaps]
            assert curves.layer_curve(name).tobytes() == np.array(want).tobytes()
        flat = [np.concatenate([s["w"], s["b"]]) for s in snaps]
        want = [progress_reference(f, flat[-1]) for f in flat]
        assert curves.model_curve.tobytes() == np.array(want).tobytes()
        assert (curves.layer_curve("b") == 1.0).all()  # zero vs zero

    def test_finalize_clears_snapshots(self):
        sampler = self._sampler()
        rec = AnchorRecorder([sampler], 2)
        rec.record(np.ones(24, np.float32), np.zeros(24, np.float32))
        rec.finalize(0)
        assert rec.snapshots.shape[:2] == (1, 0)
        with pytest.raises(RuntimeError):
            rec.finalize(1)

    def test_memory_accounting(self):
        sampler = self._sampler()
        rec = AnchorRecorder([sampler], 5)
        for _ in range(3):
            rec.record(np.ones(24, np.float32), np.zeros(24, np.float32))
        # 50% of 20 = 10 + 50% of 4 = 2 -> 12 scalars * 3 snapshots * 4 bytes
        assert rec.stats()["profiling_bytes"] == 12 * 3 * 4


class TestProfiledCurves:
    def test_p_zero_convention(self):
        policy = EarlyStopPolicy([make_curves([0.5, 1.0])], FedCAConfig())
        assert policy.p.tolist() == [[0.0, 0.5, 1.0]]

    def test_p_out_of_range(self):
        policy = EarlyStopPolicy([make_curves([0.5, 1.0])], FedCAConfig())
        # One benefit per iteration 1..K, and only those; at K the curve
        # is exhausted.
        assert policy.benefit.shape == (1, 2)
        assert policy.benefit[0].tolist() == [benefit(make_curves([0.5, 1.0]), 1), -np.inf]

    def test_layer_trigger_iteration(self):
        """Eq. 5's trigger, read off the matrix by ``EagerSchedule``."""
        curves = make_curves([0.5, 1.0], {"l": [0.3, 0.96]})

        def trigger(threshold):
            return triggers(EagerSchedule([curves], threshold)).get("l")

        # with 2 iterations curve [0.3, 0.96]: trigger at tau=2 for 0.95
        assert trigger(0.95) == 2
        assert trigger(0.2) == 1
        assert trigger(0.99) is None

    def test_shape_validation(self):
        ProfiledCurves(0, np.zeros((2, 3)), ("l",))
        for bad in (np.zeros((3, 3)), np.zeros((2, 0)), np.zeros(3), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError):
                ProfiledCurves(0, bad, ("l",))


# ----------------------------------------------------------------------
# Utility (Eqs. 2–4)
# ----------------------------------------------------------------------
class TestMarginalBenefit:
    def test_concave_curve_uses_delta(self):
        curves = make_curves([0.6, 0.8, 0.9, 1.0])
        # tau=2: delta = 0.2, floor = (1-0.8)/2 = 0.1 -> 0.2
        assert benefit(curves, 2) == pytest.approx(0.2)

    def test_flat_segment_uses_floor(self):
        curves = make_curves([0.6, 0.6, 0.9, 1.0])
        # tau=2: delta = 0, floor = (1-0.6)/2 = 0.2
        assert benefit(curves, 2) == pytest.approx(0.2)

    def test_last_iteration_no_floor(self):
        curves = make_curves([0.5, 0.9, 1.0])
        assert benefit(curves, 3) == pytest.approx(0.1)

    def test_first_iteration_uses_p0(self):
        curves = make_curves([0.7, 1.0])
        assert benefit(curves, 1) == pytest.approx(0.7)

    def test_tau_bounds(self):
        curves = make_curves([0.5, 1.0])
        policy = EarlyStopPolicy([curves], FedCAConfig())
        assert marginal_benefit(policy.p, policy.num_iterations).shape == (1, 2)

    def test_rows_of_different_k(self):
        """Each row is its own curve: a shorter one's τ = K has no floor,
        and its columns past K are never read."""
        short, long = make_curves([0.5, 0.9]), make_curves([0.5, 0.6, 0.9, 1.0])
        policy = EarlyStopPolicy([short, long], FedCAConfig())
        assert policy.benefit[0].tolist() == [benefit(short, 1), -np.inf, -np.inf, -np.inf]
        assert policy.benefit[1].tolist() == [benefit(long, t) for t in (1, 2, 3)] + [-np.inf]
        assert benefit(short, 2) == pytest.approx(0.4)
        decision = policy.decide(3, np.array([1.0, 1.0]), 10.0)
        assert decision.stop.tolist() == [True, False]
        assert [decision.reason(i) for i in range(2)] == [
            "curve_exhausted", "net_benefit_positive",
        ]

    def test_non_monotone_dip_floored(self):
        # A noisy dip (P decreases) would give negative delta; the floor
        # keeps the benefit positive while P < 1.
        curves = make_curves([0.8, 0.7, 1.0])
        b = benefit(curves, 2)
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


# ----------------------------------------------------------------------
# Early stop policy
# ----------------------------------------------------------------------
class TestEarlyStopPolicy:
    def test_stops_when_benefit_below_cost(self):
        # Benefit at tau=3 is tiny; post-deadline cost is huge.
        curves = make_curves([0.9, 0.98, 0.99, 1.0])
        policy = EarlyStopPolicy([curves], FedCAConfig())
        assert policy.decide(3, elapsed=np.array([20.0]), deadline=10.0).stop

    def test_keeps_going_pre_deadline_with_benefit(self):
        curves = make_curves([0.3, 0.6, 0.9, 1.0])
        policy = EarlyStopPolicy([curves], FedCAConfig())
        assert not policy.decide(2, elapsed=np.array([1.0]), deadline=10.0).stop

    def test_disabled_never_stops(self):
        curves = make_curves([0.99, 0.995, 1.0])
        cfg = FedCAConfig(enable_early_stop=False, enable_eager_transmit=False,
                          enable_retransmit=False)
        policy = EarlyStopPolicy([curves], cfg)
        assert not policy.decide(2, elapsed=np.array([100.0]), deadline=1.0).stop

    def test_min_iterations_respected(self):
        curves = make_curves([0.99, 0.995, 0.999, 1.0])
        cfg = FedCAConfig(min_local_iterations=3)
        policy = EarlyStopPolicy([curves], cfg)
        assert not policy.decide(2, elapsed=np.array([100.0]), deadline=1.0).stop
        assert policy.decide(3, elapsed=np.array([100.0]), deadline=1.0).stop

    def test_beyond_profiled_k_stops(self):
        curves = make_curves([0.5, 1.0])
        policy = EarlyStopPolicy([curves], FedCAConfig())
        assert policy.decide(2, elapsed=np.array([0.1]), deadline=10.0).stop

    def test_tau_validation(self):
        curves = make_curves([0.5, 1.0])
        policy = EarlyStopPolicy([curves], FedCAConfig())
        with pytest.raises(ValueError):
            policy.decide(0, np.ones(1), 1.0)


# ----------------------------------------------------------------------
# Eager schedule / retransmission
# ----------------------------------------------------------------------
class TestEagerSchedule:
    def test_triggers_from_threshold(self):
        curves = make_curves(
            [0.5, 0.8, 1.0],
            {"fast": [0.96, 0.99, 1.0], "slow": [0.2, 0.5, 1.0]},
        )
        sched = EagerSchedule([curves], 0.95)
        assert triggers(sched) == {"fast": 1, "slow": 3}

    def test_due_returns_each_layer_once(self):
        curves = make_curves([1.0], {"a": [1.0], "b": [1.0]})
        sched = EagerSchedule([curves], 0.95)
        assert due(sched, 1) == ["a", "b"]
        assert due(sched, 1) == []

    def test_due_catches_up_after_skipped_iterations(self):
        curves = make_curves(
            [0.5, 0.8, 1.0], {"early": [0.96, 0.99, 1.0], "later": [0.2, 0.97, 1.0]}
        )
        sched = EagerSchedule([curves], 0.95)
        # Caller first asks at tau=2: both layers due.
        assert due(sched, 2) == ["early", "later"]

    def test_never_converged_layer_absent(self):
        curves = make_curves([0.5, 0.9], {"l": [0.5, 0.9]})
        sched = EagerSchedule([curves], 0.95)
        assert "l" not in triggers(sched)

    def test_threshold_validation(self):
        curves = make_curves([1.0])
        with pytest.raises(ValueError):
            EagerSchedule([curves], 0.0)

    def test_due_validation(self):
        sched = EagerSchedule([make_curves([1.0])], 0.95)
        with pytest.raises(ValueError):
            sched.due(0)


class TestRetransmission:
    def test_aligned_updates_pass(self):
        final = {"l": np.array([1.0, 2.0, 3.0])}
        sent = {"l": np.array([0.9, 1.9, 3.1])}
        assert deviated_layers(final, sent, 0.6) == []

    def test_deviated_updates_flagged(self):
        final = {"l": np.array([1.0, 0.0])}
        sent = {"l": np.array([0.0, 1.0])}
        assert deviated_layers(final, sent, 0.6) == ["l"]

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            deviated_layers({"l": np.ones(2)}, {"l": np.ones(2)}, 2.0)

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
