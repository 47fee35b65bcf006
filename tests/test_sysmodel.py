"""Tests for the simulated-time device, network and deadline substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sysmodel import (
    LinkModel,
    SpeedTrace,
    UplinkScheduler,
    base_iteration_times,
    sample_speed_ratios,
    select_deadline,
)

from .helpers import restore_trace, trace_state


class TestSpeedTrace:
    def test_static_trace_is_linear(self):
        tr = SpeedTrace(0.5, seed=0, dynamic=False)
        assert tr.iteration_finish_time(0.0, 10) == pytest.approx(5.0)
        assert tr.slowdown_at(123.0) == 1.0

    def test_dynamic_slowdowns_in_range(self):
        tr = SpeedTrace(0.1, seed=1)
        slowdowns = {tr.slowdown_at(t) for t in np.linspace(0, 500, 400)}
        assert all(1.0 <= s <= 5.0 for s in slowdowns)
        assert len(slowdowns) > 1  # both modes visited

    def test_first_segment_is_fast(self):
        tr = SpeedTrace(0.1, seed=2)
        assert tr.slowdown_at(0.0) == 1.0

    def test_finish_time_monotone_in_iterations(self):
        tr = SpeedTrace(0.1, seed=3)
        t1 = tr.iteration_finish_time(0.0, 5)
        t2 = tr.iteration_finish_time(0.0, 10)
        assert t2 > t1

    def test_finish_time_additive(self):
        # Completing 10 iterations equals completing 5 then 5 more.
        tr = SpeedTrace(0.1, seed=4)
        direct = tr.iteration_finish_time(0.0, 10)
        mid = tr.iteration_finish_time(0.0, 5)
        chained = tr.iteration_finish_time(mid, 5)
        assert direct == pytest.approx(chained, rel=1e-9)

    def test_wall_time_bounded_by_slowdown_range(self):
        tr = SpeedTrace(0.1, seed=5)
        finish = tr.iteration_finish_time(0.0, 100)
        assert 100 * 0.1 <= finish <= 100 * 0.1 * 5.0 + 1e-6

    def test_zero_iterations(self):
        tr = SpeedTrace(0.1, seed=6)
        assert tr.iteration_finish_time(3.0, 0) == 3.0

    def test_deterministic_by_seed(self):
        a = SpeedTrace(0.1, seed=7)
        b = SpeedTrace(0.1, seed=7)
        assert a.iteration_finish_time(0.0, 50) == b.iteration_finish_time(0.0, 50)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpeedTrace(0.0)
        tr = SpeedTrace(0.1, seed=9)
        with pytest.raises(ValueError):
            tr.slowdown_at(-1.0)
        with pytest.raises(ValueError):
            tr.iteration_finish_time(-1.0, 1)
        with pytest.raises(ValueError):
            tr.iteration_finish_time(0.0, -1)

    def test_custom_dynamics_distributions(self):
        tr = SpeedTrace(
            0.1, seed=10,
            gamma_fast=(2.0, 0.1), gamma_slow=(2.0, 10.0),
            slowdown_range=(3.0, 3.0),
        )
        # Slow mode dominates: average pace should be well above base.
        avg = tr.iteration_finish_time(0.0, 200) / 200
        assert avg > 0.15


class TestSpeedTraceSnapshot:
    """Checkpoint/resume contract (see repro.persist): a trace restored
    from a snapshot must be indistinguishable from one that never stopped
    — same already-generated segments, same future lazy extensions."""

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**16),
        warm_time=st.floats(0.0, 200.0, allow_nan=False),
        probes=st.lists(
            st.floats(0.0, 600.0, allow_nan=False), min_size=1, max_size=6
        ),
        iterations=st.integers(0, 40),
    )
    def test_restored_trace_matches_uninterrupted(
        self, seed, warm_time, probes, iterations
    ):
        ref = SpeedTrace(0.1, seed=seed)
        live = SpeedTrace(0.1, seed=seed)
        # Advance both identically (forces lazy segment generation), then
        # snapshot `live` and restore into a trace built with a DIFFERENT
        # seed — every matching observation must come from the snapshot.
        ref.slowdown_at(warm_time)
        live.slowdown_at(warm_time)
        snapshot = trace_state(live)
        restored = SpeedTrace(0.1, seed=seed + 1)
        restore_trace(restored, snapshot)
        for t in probes:
            assert restored.slowdown_at(t) == ref.slowdown_at(t)
        assert restored.iteration_finish_time(
            warm_time, iterations
        ) == ref.iteration_finish_time(warm_time, iterations)

    def test_snapshot_is_isolated_from_live_trace(self):
        tr = SpeedTrace(0.1, seed=3)
        tr.slowdown_at(50.0)
        snapshot = trace_state(tr)
        horizon = snapshot["horizon"]
        tr.slowdown_at(500.0)  # keep evolving the live trace
        assert snapshot["horizon"] == horizon  # snapshot unaffected

    def test_snapshot_roundtrips_through_json(self):
        # Checkpoints once persisted the RNG state as JSON ints; it is 37
        # bytes inside a snapshot blob now, and the 128-bit PCG64 state
        # must survive that round trip exactly.
        from repro.persist.snapshot import decode, encode

        tr = SpeedTrace(0.1, seed=4)
        tr.slowdown_at(100.0)
        snap = trace_state(tr)
        assert len(snap["rng"]) == 37
        back = decode(encode(snap))
        restored = SpeedTrace(0.1, seed=99)
        restore_trace(restored, back)
        assert restored.iteration_finish_time(0.0, 30) == tr.iteration_finish_time(0.0, 30)
        assert restored.slowdown_at(400.0) == tr.slowdown_at(400.0)


class TestSpeedTraceForgetting:
    """``forget_before(t)`` is a promise about future queries, not a change
    of answers: a pruned trace equals the never-pruned one bit for bit."""

    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 2**16),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["forget", "query", "restore"]),
                st.floats(0.0, 150.0, allow_nan=False),
                st.floats(0.0, 120.0, allow_nan=False),
                st.integers(0, 400),
            ),
            min_size=1, max_size=14,
        ),
    )
    def test_pruned_trace_matches_never_pruned(self, seed, steps):
        ref = SpeedTrace(0.1, seed=seed)
        live = SpeedTrace(0.1, seed=seed)
        floor = 0.0  # the round-start clock: it only moves forward
        for op, advance, ahead, iterations in steps:
            if op == "forget":
                floor += advance
                live.forget_before(floor)
                assert all(seg.end > floor for seg in live._segments)
            elif op == "query":
                # Anywhere at or above the floor — and, like a straggler's
                # next round, possibly below this trace's own last query.
                start = floor + ahead
                assert live.iteration_finish_time(start, iterations) == \
                    ref.iteration_finish_time(start, iterations)
                assert live.slowdown_at(start) == ref.slowdown_at(start)
            else:
                from repro.persist.snapshot import decode, encode

                restored = SpeedTrace(0.1, seed=seed + 1)
                restore_trace(restored, decode(encode(trace_state(live))))
                live = restored

    def test_the_past_is_gone_and_says_so(self):
        tr = SpeedTrace(0.1, seed=2)
        tr.iteration_finish_time(0.0, 20_000)  # ~2 000 s: dozens of segments
        grown = len(tr._segments)
        assert grown > 20
        tr.forget_before(1500.0)
        assert len(tr._segments) < grown // 2
        assert tr._segments[0].start <= 1500.0 < tr._segments[0].end
        assert len(trace_state(tr)["segments"]) == len(tr._segments)
        with pytest.raises(ValueError, match="forget_before"):
            tr.slowdown_at(tr._segments[0].start - 1.0)
        with pytest.raises(ValueError, match="forget_before"):
            tr.iteration_finish_time(10.0, 5)
        tr.forget_before(100.0)  # a lower mark than before forgets nothing more
        assert tr._segments[0].start <= 1500.0 < tr._segments[0].end
        with pytest.raises(ValueError):
            tr.forget_before(-1.0)

    def test_forgetting_ahead_of_the_horizon_generates_then_drops(self):
        # A client first selected late: nothing before its round start is
        # kept, and what follows is what an unpruned trace generates.
        ref, tr = SpeedTrace(0.1, seed=9), SpeedTrace(0.1, seed=9)
        tr.forget_before(5000.0)
        assert len(tr._segments) == 1 and tr._segments[0].end > 5000.0
        assert tr.iteration_finish_time(5000.0, 300) == ref.iteration_finish_time(5000.0, 300)

    def test_static_trace_has_nothing_to_forget(self):
        tr = SpeedTrace(0.5, seed=0, dynamic=False)
        before = trace_state(tr)
        tr.forget_before(1e6)
        assert trace_state(tr)["rng"] == before["rng"]
        assert tr.iteration_finish_time(0.0, 10) == pytest.approx(5.0)


class TestHeterogeneity:
    def test_ratios_normalised(self):
        r = sample_speed_ratios(50, seed=0)
        assert r.min() == pytest.approx(1.0)
        assert r.max() <= 10.0

    def test_spread_grows_with_sigma(self):
        tight = sample_speed_ratios(100, sigma=0.1, seed=1)
        wide = sample_speed_ratios(100, sigma=1.0, seed=1)
        assert wide.max() > tight.max()

    def test_zero_sigma_uniform(self):
        r = sample_speed_ratios(10, sigma=0.0, seed=2)
        np.testing.assert_allclose(r, 1.0)

    def test_base_iteration_times_scale(self):
        times = base_iteration_times(20, 0.05, seed=3)
        assert times.min() == pytest.approx(0.05)
        assert np.all(times >= 0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_speed_ratios(0)
        with pytest.raises(ValueError):
            sample_speed_ratios(5, sigma=-1)
        with pytest.raises(ValueError):
            sample_speed_ratios(5, max_ratio=0.5)
        with pytest.raises(ValueError):
            base_iteration_times(5, 0.0)


class TestLinkModel:
    def test_upload_time_formula(self):
        link = LinkModel(uplink_mbps=8.0, rpc_overhead_s=0.0)
        # 1 MB at 8 Mbps = 1 second.
        assert link.upload_seconds(1_000_000) == pytest.approx(1.0)

    def test_rpc_overhead_added(self):
        link = LinkModel(uplink_mbps=8.0, rpc_overhead_s=0.01)
        assert link.upload_seconds(0) == pytest.approx(0.01)

    def test_download_uses_downlink(self):
        link = LinkModel(uplink_mbps=1.0, downlink_mbps=8.0, rpc_overhead_s=0.0)
        assert link.download_seconds(1_000_000) == pytest.approx(1.0)
        assert link.upload_seconds(1_000_000) == pytest.approx(8.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkModel(uplink_mbps=0.0)
        with pytest.raises(ValueError):
            LinkModel(rpc_overhead_s=-1.0)
        link = LinkModel()
        with pytest.raises(ValueError):
            link.upload_seconds(-1)


class TestUplinkScheduler:
    def _sched(self):
        return UplinkScheduler(LinkModel(uplink_mbps=8.0, rpc_overhead_s=0.0))

    def test_idle_link_starts_immediately(self):
        s = self._sched()
        tx = s.submit(1.0, 1_000_000)
        assert tx.start_time == 1.0
        assert tx.finish_time == pytest.approx(2.0)

    def test_busy_link_queues_fifo(self):
        s = self._sched()
        s.submit(0.0, 1_000_000)  # busy until 1.0
        tx = s.submit(0.5, 1_000_000)
        assert tx.start_time == pytest.approx(1.0)
        assert tx.finish_time == pytest.approx(2.0)

    def test_gap_leaves_link_idle(self):
        s = self._sched()
        s.submit(0.0, 1_000_000)
        tx = s.submit(5.0, 1_000_000)
        assert tx.start_time == 5.0

    def test_total_bytes_and_log(self):
        s = self._sched()
        s.submit(0.0, 100, label="a")
        s.submit(0.0, 200, label="b")
        assert s.total_bytes == 300
        assert [t.label for t in s.log] == ["a", "b"]

    def test_reset(self):
        s = self._sched()
        s.submit(0.0, 1_000)
        s.reset(10.0)
        assert s.busy_until == 10.0
        assert s.log == []

    def test_negative_submit_time(self):
        with pytest.raises(ValueError):
            self._sched().submit(-1.0, 10)


class TestSelectDeadline:
    def test_single_client(self):
        assert select_deadline([4.0]) == 4.0

    def test_picks_max_count_per_time(self):
        # counts/time: 1/1=1, 2/2=1, 3/10=0.3 — ties at 1.0, prefer larger T.
        assert select_deadline([1.0, 2.0, 10.0]) == 2.0

    def test_fast_cluster_wins(self):
        times = [1.0, 1.1, 1.2, 9.0, 10.0]
        # counts/time: 3/1.2 = 2.5 beats 5/10 = 0.5.
        assert select_deadline(times) == pytest.approx(1.2)

    def test_min_fraction_floor(self):
        times = [1.0, 1.1, 1.2, 9.0, 10.0]
        # Eligible counts are 4 (T=9, ratio 0.44) and 5 (T=10, ratio 0.5):
        # the fast-cluster deadline is excluded by the floor.
        assert select_deadline(times, min_fraction=0.8) == pytest.approx(10.0)

    def test_min_fraction_one_covers_all(self):
        times = [1.0, 5.0]
        assert select_deadline(times, min_fraction=1.0) == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            select_deadline([])
        with pytest.raises(ValueError):
            select_deadline([0.0, 1.0])
        with pytest.raises(ValueError):
            select_deadline([1.0], min_fraction=1.5)
        with pytest.raises(ValueError):
            select_deadline([float("inf")])

    def test_unsorted_input(self):
        assert select_deadline([10.0, 1.0, 2.0]) == 2.0
