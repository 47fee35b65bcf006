"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    cosine_similarity,
    marginal_benefit,
    marginal_cost,
    sample_size,
    statistical_progress,
)
from repro.core.profiler import ProfiledCurves
from repro.runtime.aggregation import aggregate_updates, apply_update
from repro.runtime.round import ClientRoundResult
from repro.sysmodel import LinkModel, SpeedTrace, UplinkScheduler, select_deadline

finite_vec = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=16),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


# ----------------------------------------------------------------------
# Statistical progress (Eq. 1)
# ----------------------------------------------------------------------
class TestProgressProperties:
    @given(finite_vec)
    def test_self_progress_is_one_or_zero_vector(self, v):
        p = statistical_progress(v, v)
        assert p == pytest.approx(1.0)

    @given(finite_vec, st.floats(min_value=0.01, max_value=100.0))
    def test_bounded_by_one(self, v, scale):
        p = statistical_progress(v * scale, v)
        assert p <= 1.0 + 1e-9

    @given(finite_vec, finite_vec.flatmap(lambda a: st.just(a)))
    def test_symmetric(self, a, b):
        if a.shape != b.shape:
            return
        assert statistical_progress(a, b) == pytest.approx(
            statistical_progress(b, a), abs=1e-9
        )

    @given(finite_vec, st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_of_both_invariant(self, v, s):
        w = v + 1.0  # avoid the zero vector
        assert statistical_progress(s * w, s * (2 * w)) == pytest.approx(
            statistical_progress(w, 2 * w), abs=1e-9
        )

    @given(finite_vec)
    def test_cosine_in_range(self, v):
        w = np.roll(v, 1)
        c = cosine_similarity(v, w)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


# ----------------------------------------------------------------------
# Sampling rule
# ----------------------------------------------------------------------
class TestSamplingProperties:
    @given(st.integers(min_value=1, max_value=10**7))
    def test_paper_rule_bounds(self, n):
        k = sample_size(n)
        assert 1 <= k <= min(n, 100) or (n == 1 and k == 1)
        assert k <= 100
        assert k <= max(1, (n + 1) // 2 + 1)

    @given(
        st.integers(min_value=1, max_value=10000),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=1, max_value=500),
    )
    def test_monotone_in_layer_size(self, n, frac, cap):
        a = sample_size(n, fraction=frac, cap=cap)
        b = sample_size(n + 1, fraction=frac, cap=cap)
        assert b >= a


# ----------------------------------------------------------------------
# Utility (Eqs. 2–4)
# ----------------------------------------------------------------------
@st.composite
def monotone_curve(draw):
    k = draw(st.integers(min_value=2, max_value=30))
    increments = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=k,
            max_size=k,
        )
    )
    total = sum(increments) or 1.0
    curve = np.cumsum([i / total for i in increments])
    curve[-1] = 1.0
    return ProfiledCurves(
        round_index=0,
        num_iterations=k,
        layer_curves={"l": curve.copy()},
        model_curve=curve,
    )


class TestUtilityProperties:
    @given(monotone_curve(), st.data())
    def test_benefit_nonnegative_for_monotone_curves(self, curves, data):
        tau = data.draw(st.integers(min_value=1, max_value=curves.num_iterations))
        assert marginal_benefit(curves, tau) >= -1e-12

    @given(monotone_curve(), st.data())
    def test_benefit_at_least_uniform_floor(self, curves, data):
        tau = data.draw(st.integers(min_value=1, max_value=curves.num_iterations - 1))
        floor = (1.0 - curves.p(tau)) / (curves.num_iterations - tau)
        assert marginal_benefit(curves, tau) >= floor - 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_cost_monotone_in_elapsed(self, elapsed, deadline, beta):
        c1 = marginal_cost(elapsed, deadline, beta)
        c2 = marginal_cost(elapsed * 1.5 + 1e-6, deadline, beta)
        assert c2 >= c1 - 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=1e4),
        st.floats(min_value=1e-4, max_value=1.0),
    )
    def test_cost_jumps_at_deadline(self, deadline, beta):
        before = marginal_cost(deadline * 0.999, deadline, beta)
        after = marginal_cost(deadline * 1.001, deadline, beta)
        assert after >= before


# ----------------------------------------------------------------------
# System substrate
# ----------------------------------------------------------------------
class TestSystemProperties:
    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_finish_bounds(self, base, seed, iters):
        tr = SpeedTrace(base, seed=seed)
        finish = tr.iteration_finish_time(0.0, iters)
        assert iters * base - 1e-9 <= finish <= iters * base * 5.0 + 1e-6

    @given(
        st.floats(min_value=1e-3, max_value=10.0),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_additivity(self, base, seed, a, b):
        tr = SpeedTrace(base, seed=seed)
        direct = tr.iteration_finish_time(0.0, a + b)
        chained = tr.iteration_finish_time(tr.iteration_finish_time(0.0, a), b)
        assert direct == pytest.approx(chained, rel=1e-9, abs=1e-9)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_uplink_fifo_no_overlap(self, submissions):
        sched = UplinkScheduler(LinkModel(uplink_mbps=8.0))
        submissions.sort(key=lambda t: t[0])
        last_finish = 0.0
        for when, nbytes in submissions:
            tx = sched.submit(when, nbytes)
            assert tx.start_time >= when
            assert tx.start_time >= last_finish - 1e-12
            assert tx.finish_time >= tx.start_time
            last_finish = tx.finish_time

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40
        )
    )
    def test_deadline_within_observed_range(self, times):
        d = select_deadline(times)
        assert min(times) <= d <= max(times)

    @given(
        st.lists(
            st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=40
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_deadline_min_fraction_satisfied(self, times, frac):
        d = select_deadline(times, min_fraction=frac)
        covered = sum(1 for t in times if t <= d) / len(times)
        assert covered >= min(frac, 1.0) - 1e-9


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _mk_result(cid, samples, value):
    return ClientRoundResult(
        client_id=cid,
        update={"w": np.full(4, value, dtype=np.float32)},
        num_samples=samples,
        iterations_run=1,
        compute_start_time=0.0,
        compute_finish_time=1.0,
        upload_finish_time=2.0,
        bytes_uploaded=16,
        mean_loss=0.0,
    )


class TestAggregationProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1000),
                st.floats(min_value=-100, max_value=100),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_aggregate_within_convex_hull(self, specs):
        results = [_mk_result(i, s, v) for i, (s, v) in enumerate(specs)]
        agg = aggregate_updates(results)
        values = [v for _, v in specs]
        assert min(values) - 1e-3 <= float(agg[0]) <= max(values) + 1e-3

    @given(
        st.lists(st.integers(min_value=1, max_value=100), min_size=2, max_size=10),
        st.floats(min_value=-10, max_value=10),
    )
    def test_identical_updates_fixed_point(self, weights, value):
        results = [_mk_result(i, w, value) for i, w in enumerate(weights)]
        agg = aggregate_updates(results)
        np.testing.assert_allclose(agg, value, atol=1e-4)

    @given(
        hnp.arrays(
            np.float32, 5, elements=st.floats(min_value=-50, max_value=50, width=32)
        ),
        hnp.arrays(
            np.float32, 5, elements=st.floats(min_value=-50, max_value=50, width=32)
        ),
    )
    def test_apply_update_is_elementwise_sum(self, w, d):
        out = w.copy()
        apply_update(out, d)
        np.testing.assert_array_equal(out, w + d)


# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------
class TestConvKernelProperties:
    @given(
        st.integers(min_value=1, max_value=3),   # channels
        st.integers(min_value=3, max_value=8),   # H = W
        st.integers(min_value=1, max_value=3),   # kernel
        st.integers(min_value=1, max_value=2),   # stride
        st.integers(min_value=0, max_value=1),   # pad
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_col2im_is_adjoint_of_im2col(self, c, hw, k, stride, pad, seed):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        that makes the conv backward pass correct."""
        from repro.nn import functional as F

        if hw + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, c, hw, hw))
        cols = F.im2col(x, k, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, k, k, stride, pad)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=3, max_value=7),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_im2col_preserves_values(self, c, hw, seed):
        """With k=1, stride=1, pad=0, im2col is a pure reshape."""
        from repro.nn import functional as F

        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, c, hw, hw))
        cols = F.im2col(x, 1, 1, 1, 0)
        np.testing.assert_allclose(cols.reshape(1, c, hw, hw), x)


# ----------------------------------------------------------------------
# Module state round-trips
# ----------------------------------------------------------------------
class TestStateRoundtripProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_state_dict_roundtrip_identity(self, seed):
        from repro.nn import LeNetCNN

        model = LeNetCNN(rng=np.random.default_rng(seed))
        clone = LeNetCNN(rng=np.random.default_rng(seed + 1))
        clone.load_state_dict(model.state_dict())
        for (_, a), (_, b) in zip(model.named_parameters(), clone.named_parameters()):
            np.testing.assert_array_equal(a.data, b.data)


# ----------------------------------------------------------------------
# Eager schedule
# ----------------------------------------------------------------------
class TestEagerScheduleProperties:
    @given(monotone_curve(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_triggers_monotone_in_threshold(self, curves, data):
        """Raising T_e can only delay (or remove) a layer's trigger."""
        from repro.core import EagerSchedule

        lo = data.draw(st.floats(min_value=0.05, max_value=0.5))
        hi = data.draw(st.floats(min_value=0.55, max_value=1.0))
        sched_lo = EagerSchedule(curves, lo)
        sched_hi = EagerSchedule(curves, hi)
        for name, tau_hi in sched_hi.triggers.items():
            assert name in sched_lo.triggers
            assert sched_lo.triggers[name] <= tau_hi

    @given(monotone_curve())
    @settings(max_examples=30, deadline=None)
    def test_due_partitions_layers(self, curves):
        """Draining due() across all iterations sends exactly the layers
        that have a trigger; with the never-triggered ones that covers every
        layer exactly once."""
        from repro.core import EagerSchedule

        sched = EagerSchedule(curves, 0.9)
        sent = []
        for tau in range(1, curves.num_iterations + 1):
            sent.extend(sched.due(tau))
        pending = [n for n in curves.layer_curves if n not in sched.triggers]
        assert sorted(sent + pending) == sorted(curves.layer_curves)
        assert len(set(sent)) == len(sent)
