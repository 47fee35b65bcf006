"""Tests for the stateless numerical kernels in repro.nn.functional."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.nn import cohort_softmax_cross_entropy, softmax_cross_entropy
from repro.nn import functional as F

from .helpers import (
    cohort_softmax_cross_entropy_reference,
    col2im_reference,
    im2col_reference,
    softmax_cross_entropy_reference,
)

RNG = np.random.default_rng(3)


class TestActivations:
    def test_relu_values(self):
        x = np.array([-2.0, 0.0, 3.0])
        np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 3.0])

    def test_sigmoid_range_and_symmetry(self):
        x = RNG.normal(size=100) * 10
        s = F.sigmoid(x)
        assert np.all((s > 0) & (s < 1))
        np.testing.assert_allclose(F.sigmoid(-x), 1 - s, rtol=1e-5, atol=1e-7)

    def test_sigmoid_extreme_values_no_overflow(self):
        x = np.array([-500.0, 500.0], dtype=np.float32)
        s = F.sigmoid(x)
        assert np.all(np.isfinite(s))
        assert s[0] < 1e-30 and s[1] > 1 - 1e-7

    def test_sigmoid_at_zero(self):
        assert F.sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


def softmax(x):
    return F.log_softmax_and_softmax(x)[1]


def log_softmax(x):
    return F.log_softmax_and_softmax(x)[0]


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(5, 7))
        np.testing.assert_allclose(softmax(x).sum(axis=1), 1.0, rtol=1e-6)

    def test_shift_invariance(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-5)

    def test_log_softmax_consistent(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(
            log_softmax(x), np.log(softmax(x)), rtol=1e-5, atol=1e-7
        )

    def test_extreme_logits_finite(self):
        x = np.array([[1000.0, -1000.0]])
        assert np.all(np.isfinite(log_softmax(x)))

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.integers(1, 4),
        b=st.integers(1, 6),
        k=st.integers(2, 7),
        scale=st.sampled_from([1.0, 30.0, 1e4]),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_losses_equal_the_two_helper_composition(self, c, b, k, scale, seed, data):
        """One softmax pass per loss is the bytes of the separate
        ``log_softmax`` and ``softmax`` passes, ragged cohorts included."""
        rng = np.random.default_rng(seed)
        logits = (rng.uniform(-1.0, 1.0, size=(c, b, k)) * scale).astype(np.float32)
        labels = rng.integers(0, k, size=(c, b))
        counts = np.array(data.draw(st.lists(st.integers(0, b), min_size=c, max_size=c)))
        got = cohort_softmax_cross_entropy(logits, labels, counts)
        want = cohort_softmax_cross_entropy_reference(logits, labels, counts)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        loss, grad = softmax_cross_entropy(logits[0], labels[0])
        ref_loss, ref_grad = softmax_cross_entropy_reference(logits[0], labels[0])
        assert loss == ref_loss or (np.isnan(loss) and np.isnan(ref_loss))
        assert grad.tobytes() == ref_grad.tobytes()


class TestIm2Col:
    def test_geometry(self):
        assert F.conv_output_size(8, 8, 3, 3, 1, 1) == (8, 8)
        cols = F.im2col(np.zeros((2, 3, 8, 8), dtype=np.float32), 3, 3, 1, 1)
        assert cols.shape == (2, 3 * 9, 64)
        assert cols.flags.c_contiguous

    def test_stride_geometry(self):
        assert F.conv_output_size(8, 8, 3, 3, 2, 1) == (4, 4)

    def test_empty_output_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 2, 5, 5, 1, 0)
        with pytest.raises(ValueError):
            F.im2col(np.zeros((1, 1, 2, 2)), 5, 5, 1, 0)

    def test_im2col_extracts_patches(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        cols = F.im2col(x, 2, 2, 1, 0)
        # First column is the top-left 2x2 patch.
        np.testing.assert_array_equal(cols[0, :, 0], [0, 1, 4, 5])
        # Last column is the bottom-right patch.
        np.testing.assert_array_equal(cols[0, :, -1], [10, 11, 14, 15])

    def test_im2col_never_aliases_its_input(self):
        # k=1, stride=1, pad=0 is a pure reshape; layers hold the columns
        # until backward, so they must still be a copy.
        x = RNG.normal(size=(2, 3, 4, 4))
        cols = F.im2col(x, 1, 1, 1, 0)
        assert not np.shares_memory(cols, x)

    def test_col2im_accumulates_overlaps(self):
        # All-ones columns: each input position receives one contribution per
        # window that covers it.
        cols = np.ones((1, 4, 4))
        out = F.col2im(cols, (1, 1, 3, 3), 2, 2, 1, 0)
        np.testing.assert_array_equal(
            out[0, 0], [[1, 2, 1], [2, 4, 2], [1, 2, 1]]
        )

    def test_padding_roundtrip_shape(self):
        x = RNG.normal(size=(2, 2, 5, 5))
        cols = F.im2col(x, 3, 3, 1, 1)
        back = F.col2im(cols, x.shape, 3, 3, 1, 1)
        assert back.shape == x.shape

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_bytes_equal_to_gather_and_scatter_add_reference(
        self, n, c, h, w, k, stride, pad, seed
    ):
        """The strided-view ``im2col`` is pure data movement, and the
        slice-accumulate ``col2im`` adds into every cell in the order
        ``np.add.at`` does — so both are bytes-equal to the reference
        formulations in float32, not merely close."""
        if h + 2 * pad < k or w + 2 * pad < k:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        cols = F.im2col(x, k, k, stride, pad)
        ref_cols = im2col_reference(x, k, k, stride, pad)
        assert cols.dtype == ref_cols.dtype and cols.shape == ref_cols.shape
        assert cols.tobytes() == ref_cols.tobytes()
        # Wide-magnitude columns make any change of summation order visible.
        y = rng.normal(size=cols.shape) * 10.0 ** rng.integers(-3, 4, size=cols.shape)
        y = y.astype(np.float32)
        back = F.col2im(y, x.shape, k, k, stride, pad)
        ref_back = col2im_reference(y, x.shape, k, k, stride, pad)
        assert back.dtype == ref_back.dtype and back.shape == ref_back.shape
        assert back.tobytes() == ref_back.tobytes()

    @given(
        c=st.integers(1, 4),
        n=st.integers(1, 3),
        ch=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        kh=st.integers(1, 5),
        kw=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_stacked_fold_is_reference_bytes_in_c_order(
        self, c, n, ch, h, w, kh, kw, stride, pad, seed
    ):
        """Over a stack ``(C, N, ch, h, w)`` the batch-innermost fold adds
        into every cell in the scatter-add's order, and hands back a
        C-ordered array: a transposed result would pass its memory order on
        to every elementwise result downstream, and BatchNorm's reductions
        round by memory order."""
        if h + 2 * pad < kh or w + 2 * pad < kw:
            return
        out_h, out_w = F.conv_output_size(h, w, kh, kw, stride, pad)
        rng = np.random.default_rng(seed)
        shape = (c, n, ch * kh * kw, out_h * out_w)
        y = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        y = y.astype(np.float32)
        back = F.col2im(y, (c, n, ch, h, w), kh, kw, stride, pad)
        ref = col2im_reference(
            y.reshape((c * n,) + shape[2:]), (c * n, ch, h, w), kh, kw, stride, pad
        )
        assert back.dtype == ref.dtype and back.shape == (c, n, ch, h, w)
        assert back.tobytes() == ref.tobytes()
        strides = [s for s, d in zip(back.strides, back.shape) if d > 1]
        assert strides == sorted(strides, reverse=True), back.strides

    @given(
        c=st.integers(1, 3),
        n=st.integers(1, 3),
        ch=st.integers(1, 3),
        kh=st.integers(1, 5),
        kw=st.integers(1, 5),
        stride=st.integers(1, 3),
        pad=st.integers(0, 2),
        out_h=st.integers(1, 4),
        out_w=st.integers(1, 4),
        rem_h=st.integers(0, 2),
        rem_w=st.integers(0, 2),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_reused_rows_and_cols_buffers_give_reference_bytes(
        self, c, n, ch, kh, kw, stride, pad, out_h, out_w, rem_h, rem_w, seed
    ):
        """A stacked conv passes one ``rows``/``cols`` pair to every call:
        the unfold writes only the rows buffer's interior, so its zero
        border must survive each call for the next input's padding. The
        input size is derived from the drawn output size (1×1 included)."""
        h = (out_h - 1) * stride + kh - 2 * pad + rem_h % stride
        w = (out_w - 1) * stride + kw - 2 * pad + rem_w % stride
        assume(h >= 1 and w >= 1)
        assert F.conv_output_size(h, w, kh, kw, stride, pad) == (out_h, out_w)
        shape = (c, n, ch, h, w)
        rows = F.unfold_rows(shape, kh, kw, stride, pad)
        cols = None
        rng = np.random.default_rng(seed)
        for _ in range(3):
            x = rng.normal(size=shape).astype(np.float32)
            got = F.im2col(x, kh, kw, stride, pad, out=cols, rows=rows)
            assert cols is None or got is cols
            ref = im2col_reference(x.reshape((c * n, ch, h, w)), kh, kw, stride, pad)
            assert got.shape == (c, n) + ref.shape[1:]
            assert got.tobytes() == ref.tobytes()
            cols = got

    def test_non_square_kernel(self):
        x = RNG.normal(size=(2, 2, 5, 7)).astype(np.float32)
        cols = F.im2col(x, 2, 3, 1, 1)
        assert cols.tobytes() == im2col_reference(x, 2, 3, 1, 1).tobytes()
        y = RNG.normal(size=cols.shape).astype(np.float32)
        back = F.col2im(y, x.shape, 2, 3, 1, 1)
        assert back.tobytes() == col2im_reference(y, x.shape, 2, 3, 1, 1).tobytes()
