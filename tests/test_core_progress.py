"""Tests for the statistical-progress metric (Eq. 1) and intra-layer sampling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AnchorRecorder,
    LayerSampler,
    cosine_similarity,
    progress_curve,
    sample_size,
    statistical_progress,
)
from repro.nn.layout import Layout

from .helpers import progress_reference, sampler_indices_reference


class TestCosineSimilarity:
    def test_identical(self):
        v = np.array([1.0, 2.0, 3.0])
        assert cosine_similarity(v, v) == pytest.approx(1.0)

    def test_opposite(self):
        v = np.array([1.0, -2.0])
        assert cosine_similarity(v, -v) == pytest.approx(-1.0)

    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_both_zero_is_one(self):
        z = np.zeros(4)
        assert cosine_similarity(z, z) == 1.0

    def test_one_zero_is_zero(self):
        assert cosine_similarity(np.zeros(3), np.ones(3)) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(3), np.ones(4))

    def test_scale_invariance(self):
        a = np.array([0.3, -1.2, 4.0])
        b = np.array([1.0, 0.5, -2.0])
        assert cosine_similarity(a, b) == pytest.approx(
            cosine_similarity(3.7 * a, 0.01 * b), abs=1e-9
        )

    def test_multidimensional_flattened(self):
        a = np.ones((2, 3))
        b = np.ones((2, 3)) * 2
        assert cosine_similarity(a, b) == pytest.approx(1.0)


class TestStatisticalProgress:
    def test_equal_vectors_give_one(self):
        g = np.array([1.0, -0.5, 2.0])
        assert statistical_progress(g, g) == pytest.approx(1.0)

    def test_half_magnitude_same_direction(self):
        g = np.array([2.0, 4.0])
        assert statistical_progress(0.5 * g, g) == pytest.approx(0.5)

    def test_double_magnitude_also_penalised(self):
        # Overshooting |G_K| is as bad as undershooting (min/max symmetric).
        g = np.array([2.0, 4.0])
        assert statistical_progress(2.0 * g, g) == pytest.approx(0.5)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            assert statistical_progress(a, b) <= 1.0 + 1e-12

    def test_opposite_direction_negative(self):
        g = np.array([1.0, 1.0])
        assert statistical_progress(-g, g) == pytest.approx(-1.0)

    def test_zero_partial_update(self):
        assert statistical_progress(np.zeros(3), np.ones(3)) == 0.0

    def test_both_zero(self):
        assert statistical_progress(np.zeros(3), np.zeros(3)) == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            statistical_progress(np.ones(2), np.ones(3))


def _snapshot_families() -> dict[str, list[np.ndarray]]:
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=(12, 37)), axis=0).astype(np.float32)
    mixed = walk * np.logspace(-20, 20, 37).astype(np.float32)
    return {
        "zero": [np.zeros(5, dtype=np.float32)] * 4,
        "zero_then_moving": [np.zeros(9, dtype=np.float32), *walk[:3, :9]],
        "tiny": list(walk * np.float32(1e-30)),
        "below_eps": list(walk.astype(np.float64) * 1e-14),
        "mixed_magnitude": list(mixed),
        "overshoot": list(walk[::-1].copy()),
        "matrix_shaped": [w.reshape(1, 37) for w in walk],
    }


class TestProgressCurve:
    @pytest.mark.parametrize("family", sorted(_snapshot_families()))
    def test_bytes_equal_to_per_call_reference(self, family):
        snaps = _snapshot_families()[family]
        want = np.array([progress_reference(g, snaps[-1]) for g in snaps])
        got = progress_curve(snaps)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        per_call = np.array([statistical_progress(g, snaps[-1]) for g in snaps])
        assert per_call.tobytes() == want.tobytes()

    @given(
        k=st.integers(1, 40),
        s=st.integers(1, 700),
        lo=st.integers(0, 9),
        zero=st.sampled_from([None, "first", "last"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_dots_are_the_per_snapshot_bytes(self, k, s, lo, zero, seed):
        """``progress_curve`` batches each row's two dot products through
        ``np.matmul`` over a float64 block — here a column slice of a wider
        float32 buffer, as ``AnchorRecorder.finalize`` hands it over — and
        every element is the per-snapshot reference in bytes."""
        buf = np.random.default_rng(seed).normal(size=(k, s + 9)).astype(np.float32)
        if zero == "first":
            buf[0] = 0.0
        elif zero == "last":
            buf[-1] = 0.0
        block = buf.astype(np.float64)[:, lo : lo + s]
        want = np.array([progress_reference(g, block[-1]) for g in buf[:, lo : lo + s]])
        assert progress_curve(block).tobytes() == want.tobytes()

    def test_nan_propagates_like_clip(self):
        snaps = [np.array([1.0, np.nan]), np.array([1.0, 2.0])]
        assert np.isnan(progress_curve(snaps)[0])
        assert np.isnan(progress_reference(snaps[0], snaps[1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            progress_curve([np.ones(2), np.ones(3)])

    def test_final_point_is_one(self):
        snaps = [np.array([0.5, 0.0]), np.array([0.8, 0.1]), np.array([1.0, 0.2])]
        curve = progress_curve(snaps)
        assert curve[-1] == pytest.approx(1.0)
        assert len(curve) == 3

    def test_monotone_for_linear_accumulation(self):
        # G_i = (i/K) * G_K: P_i = i/K exactly.
        g_k = np.array([3.0, -1.0, 2.0])
        snaps = [g_k * (i / 5) for i in range(1, 6)]
        curve = progress_curve(snaps)
        np.testing.assert_allclose(curve, [0.2, 0.4, 0.6, 0.8, 1.0], rtol=1e-6)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            progress_curve([])

    def test_single_snapshot(self):
        curve = progress_curve([np.array([1.0, 2.0])])
        assert curve[0] == pytest.approx(1.0)


class TestSampleSize:
    def test_paper_rule_small_layer(self):
        # 50% of 10 = 5 < cap
        assert sample_size(10) == 5

    def test_paper_rule_large_layer(self):
        assert sample_size(10_000) == 100

    def test_ceil_behaviour(self):
        assert sample_size(3) == math.ceil(1.5)

    def test_minimum_one(self):
        assert sample_size(1) == 1

    def test_custom_fraction_cap(self):
        assert sample_size(100, fraction=0.1, cap=5) == 5
        assert sample_size(100, fraction=0.1, cap=50) == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_size(0)
        with pytest.raises(ValueError):
            sample_size(10, fraction=0.0)
        with pytest.raises(ValueError):
            sample_size(10, cap=0)


class TestLayerSampler:
    def _shapes(self):
        return {"a.weight": (8, 8), "a.bias": (8,), "b.weight": (300, 10)}

    def _segments(self, s):
        return {
            name: s.index[lo:hi]
            for name, lo, hi in zip(s.names, s.bounds, s.bounds[1:])
        }

    def test_index_counts_follow_rule(self):
        s = LayerSampler(self._shapes(), seed=0)
        assert np.diff(s.bounds).tolist() == [32, 4, 100]  # 50% of 64, 50% of 8, capped

    def test_indices_sorted_unique_in_range(self):
        s = LayerSampler(self._shapes(), seed=1)
        offset = 0
        for name, idx in self._segments(s).items():
            n = int(np.prod(self._shapes()[name]))
            assert np.all(np.diff(idx) > 0)
            assert idx.min() >= offset and idx.max() < offset + n
            offset += n

    def test_deterministic_by_seed(self):
        a = LayerSampler(self._shapes(), seed=3)
        b = LayerSampler(self._shapes(), seed=3)
        np.testing.assert_array_equal(a.index, b.index)
        assert a.bounds == b.bounds

    def test_extract_pulls_correct_scalars(self):
        """One gather through the flat positions reads, layer after layer,
        the scalars the per-layer draws name."""
        s = LayerSampler(self._shapes(), seed=0)
        ref = sampler_indices_reference(self._shapes(), seed=0)
        flat = np.arange(64 + 8 + 3000, dtype=np.float32)
        views = Layout.of(tuple(self._shapes().items())).views(flat)
        want = np.concatenate([views[n].ravel()[idx] for n, idx in ref.items()])
        assert flat[s.index].tobytes() == want.tobytes()

    def test_extract_delta(self):
        s = LayerSampler({"w": (6,)}, seed=0)
        params = np.arange(6, dtype=np.float32) * 2
        anchor = np.arange(6, dtype=np.float32)
        rec = AnchorRecorder([s], 1)
        rec.record(params, anchor)
        np.testing.assert_array_equal(rec.snapshots[0, 0], np.arange(6)[s.index])

    def test_total_sampled_and_bytes(self):
        s = LayerSampler(self._shapes(), seed=0)
        assert s.total_sampled() == 32 + 4 + 100
        assert s.snapshot_bytes(10) == s.total_sampled() * 10 * 4

    def test_for_model(self):
        from repro.nn import LeNetCNN

        model = LeNetCNN(rng=np.random.default_rng(0))
        s = LayerSampler.for_model(model, seed=0)
        assert s.names == tuple(n for n, _ in model.named_parameters())

    def test_empty_shapes_raises(self):
        with pytest.raises(ValueError):
            LayerSampler({})
