"""Tests for the FL runtime: rounds, aggregation, selection, history."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    ClientRoundResult,
    RoundContext,
    RoundRecord,
    RunHistory,
    aggregate_updates,
    apply_update,
    collect_earliest,
    select_clients,
    weighted_segment_sum,
)


def result(cid, finish, *, update=None, samples=10, iters=5, start=0.0, compute=None):
    compute = compute if compute is not None else finish - 0.1
    return ClientRoundResult(
        client_id=cid,
        update=update or {"w": np.full(3, float(cid), dtype=np.float32)},
        num_samples=samples,
        iterations_run=iters,
        compute_start_time=start,
        compute_finish_time=compute,
        upload_finish_time=finish,
        bytes_uploaded=100,
        mean_loss=1.0,
        events={},
    )


class TestRoundContext:
    def test_effective_iterations_default(self):
        ctx = RoundContext(0, 0.0, 10, 5.0)
        assert ctx.effective_iterations == 10

    def test_effective_iterations_assigned(self):
        ctx = RoundContext(0, 0.0, 10, 5.0, assigned_iterations=4)
        assert ctx.effective_iterations == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            RoundContext(-1, 0.0, 10, 5.0)
        with pytest.raises(ValueError):
            RoundContext(0, 0.0, 0, 5.0)
        with pytest.raises(ValueError):
            RoundContext(0, 0.0, 10, 0.0)
        with pytest.raises(ValueError):
            RoundContext(0, 0.0, 10, 5.0, assigned_iterations=0)


class TestClientRoundResult:
    def test_timeline_validation(self):
        with pytest.raises(ValueError):
            result(0, finish=1.0, compute=2.0)

    def test_observed_pace(self):
        r = result(0, finish=10.0, compute=5.0, start=0.0, iters=5)
        assert r.observed_pace == pytest.approx(1.0)

    def test_observed_pace_zero_iterations(self):
        r = ClientRoundResult(
            client_id=0, update={}, num_samples=1, iterations_run=0,
            compute_start_time=0.0, compute_finish_time=0.0,
            upload_finish_time=0.0, bytes_uploaded=0, mean_loss=0.0,
        )
        assert r.observed_pace is None


class TestCollectEarliest:
    def test_earliest_fraction_kept(self):
        results = [result(i, finish=float(i + 1)) for i in range(10)]
        collected, end = collect_earliest(results, 0.9)
        assert len(collected) == 9
        assert end == 9.0
        assert all(r.client_id != 9 for r in collected)

    def test_full_collection(self):
        results = [result(i, finish=float(i + 1)) for i in range(4)]
        collected, end = collect_earliest(results, 1.0)
        assert len(collected) == 4
        assert end == 4.0

    def test_at_least_one(self):
        results = [result(0, finish=1.0), result(1, finish=2.0)]
        collected, _ = collect_earliest(results, 0.1)
        assert len(collected) == 1

    def test_half_up_rounding_convention(self):
        # Pinned to max(1, floor(fraction·n + 0.5)) — round-half-up, not
        # Python's banker's rounding: 0.9·5 = 4.5 collects 5, 0.9·15 = 13.5
        # collects 14, independent of the parity of the integer part.
        for n, expected in [(5, 5), (15, 14), (10, 9), (20, 18)]:
            results = [result(i, finish=float(i + 1)) for i in range(n)]
            collected, _ = collect_earliest(results, 0.9)
            assert len(collected) == expected, f"n={n}"

    def test_count_never_exceeds_results(self):
        results = [result(i, finish=float(i + 1)) for i in range(3)]
        collected, _ = collect_earliest(results, 1.0)
        assert len(collected) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            collect_earliest([], 0.9)
        with pytest.raises(ValueError):
            collect_earliest([result(0, 1.0)], 0.0)


class TestAggregation:
    def test_weighted_average(self):
        a = result(0, 1.0, update={"w": np.array([1.0, 1.0], np.float32)}, samples=30)
        b = result(1, 2.0, update={"w": np.array([4.0, 4.0], np.float32)}, samples=10)
        agg = aggregate_updates([a, b])
        np.testing.assert_allclose(agg, [1.75, 1.75], rtol=1e-6)
        assert agg.dtype == np.float32

    def test_single_client_identity(self):
        a = result(0, 1.0, update={"w": np.array([2.0], np.float32)})
        np.testing.assert_allclose(aggregate_updates([a]), [2.0])

    def test_layer_mismatch_raises(self):
        a = result(0, 1.0, update={"w": np.ones(2, np.float32)})
        b = result(1, 2.0, update={"v": np.ones(2, np.float32)})
        with pytest.raises(KeyError):
            aggregate_updates([a, b])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            aggregate_updates([])

    def test_apply_update(self):
        values = np.array([1.0, 2.0], np.float32)
        update = np.array([0.5, -0.5], np.float32)
        held = values
        assert apply_update(values, update) is None
        # In place: the vector itself is refined, the update untouched.
        assert held is values
        np.testing.assert_allclose(values, [1.5, 1.5])
        np.testing.assert_allclose(update, [0.5, -0.5])

    def test_apply_update_key_mismatch(self):
        values = np.zeros(2, np.float32)
        with pytest.raises(ValueError, match="shape"):
            apply_update(values, np.zeros(3, np.float32))
        np.testing.assert_array_equal(values, 0.0)

    def test_aggregation_preserves_mean_property(self):
        # Aggregate of identical updates is that update, regardless of weights.
        upd = {"w": np.array([3.0, -1.0], np.float32)}
        rs = [result(i, float(i + 1), update=dict(upd), samples=(i + 1) * 7) for i in range(5)]
        agg = aggregate_updates(rs)
        np.testing.assert_allclose(agg, upd["w"], rtol=1e-6)

    def test_weighted_segment_sum_matches_serial_slices(self):
        """Slicing the column axis commutes with the reduce — down to one
        column, where the zero-column pad keeps numpy off its reduction
        loop (which sums the clients in another order)."""
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(6, 37)).astype(np.float32)
        w = rng.random(6)
        w = w / w.sum()
        full = np.einsum("c,cn->n", w, stack.astype(np.float64)).astype(np.float32)
        assert np.array_equal(weighted_segment_sum(w, stack), full)
        for lo, hi in [(0, 37), (0, 10), (10, 30), (0, 1), (20, 21), (36, 37), (37, 37)]:
            out = weighted_segment_sum(w, [row[lo:hi] for row in stack])
            assert out.tobytes() == full[lo:hi].tobytes(), (lo, hi)
        # A column whose float32 result depends on the summation order:
        # 2⁻⁵³ + 2⁻⁵³ + (1 + 2⁻²⁴) lands just above a float32 midpoint
        # summed in client order, exactly on it summed the other way.
        w = np.array([1.0, 1.0, 1.0 + 2.0**-24])
        rows = np.array([[2.0**-53, 0.0], [2.0**-53, 0.0], [1.0, 0.0]], np.float32)
        one_column = weighted_segment_sum(w, rows[:, :1])
        assert one_column.tobytes() == weighted_segment_sum(w, rows)[:1].tobytes()
        assert one_column[0] > 1.0


class TestSelection:
    def test_full_participation_default(self):
        assert select_clients(5, None, round_index=0) == [0, 1, 2, 3, 4]

    def test_partial_selection_size(self):
        sel = select_clients(10, 4, round_index=3, seed=1)
        assert len(sel) == 4
        assert len(set(sel)) == 4

    def test_deterministic_per_round(self):
        a = select_clients(10, 4, round_index=3, seed=1)
        b = select_clients(10, 4, round_index=3, seed=1)
        assert a == b

    def test_varies_across_rounds(self):
        picks = {tuple(select_clients(20, 5, round_index=r, seed=1)) for r in range(10)}
        assert len(picks) > 1

    def test_oversized_request_selects_all(self):
        assert select_clients(3, 10, round_index=0) == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            select_clients(0, None, round_index=0)
        with pytest.raises(ValueError):
            select_clients(5, 0, round_index=0)


class TestRunHistory:
    def _record(self, idx, end, acc, events=None):
        return RoundRecord(
            round_index=idx,
            start_time=0.0 if idx == 0 else float(idx),
            end_time=end,
            accuracy=acc,
            mean_loss=1.0,
            collected_clients=(0,),
            straggler_clients=(),
            mean_iterations=5.0,
            total_bytes=100,
            client_events=events or {},
        )

    def test_append_order_enforced(self):
        h = RunHistory()
        h.append(self._record(0, 1.0, 0.1))
        with pytest.raises(ValueError):
            h.append(self._record(0, 2.0, 0.2))

    def test_time_to_accuracy(self):
        h = RunHistory()
        h.append(self._record(0, 1.0, 0.1))
        h.append(self._record(1, 2.0, 0.5))
        h.append(self._record(2, 3.0, 0.7))
        assert h.time_to_accuracy(0.5) == (2.0, 2)
        assert h.time_to_accuracy(0.9) is None

    def test_summary_metrics(self):
        h = RunHistory()
        h.append(self._record(0, 2.0, 0.3))
        h.append(self._record(1, 3.0, 0.2))
        assert h.num_rounds == 2
        assert h.total_time == 3.0
        assert h.final_accuracy == 0.2
        assert h.best_accuracy() == 0.3
        assert h.mean_round_time() == pytest.approx((2.0 + 2.0) / 2)

    def test_empty_history(self):
        h = RunHistory()
        assert h.total_time == 0.0
        assert h.final_accuracy == 0.0
        assert h.mean_round_time() == 0.0
        assert h.time_to_accuracy(0.5) is None

    def test_early_stop_iterations_extraction(self):
        h = RunHistory()
        h.append(self._record(0, 1.0, 0.1, events={
            0: {"early_stop_iteration": 7},
            1: {"early_stop_iteration": None},
        }))
        assert h.early_stop_iterations() == [7]

    def test_eager_iterations_effective_accounting(self):
        h = RunHistory()
        h.append(self._record(0, 1.0, 0.1, events={
            0: {
                "eager": {"a": 3, "b": 5},
                "retransmitted": ["b"],
                "iterations_run": 9,
            },
        }))
        assert sorted(h.eager_iterations(effective=False)) == [3, 5]
        assert sorted(h.eager_iterations(effective=True)) == [3, 9]

    def test_accuracy_series(self):
        h = RunHistory()
        h.append(self._record(0, 1.5, 0.4))
        times, accs = h.accuracy_series()
        assert times == [1.5]
        assert accs == [0.4]
