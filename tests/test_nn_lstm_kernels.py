"""The fused LSTM kernel set (``functional.lstm_layer_*``) and the mask-free
sigmoid, pinned against the per-timestep / masked references in
``tests/helpers.py`` (DESIGN.md §18)."""

from __future__ import annotations

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import LSTM, LSTMClassifier, stack_module
from repro.nn import functional as F
from repro.nn.rnn import lstm_stack_backward, lstm_stack_forward

from .helpers import lstm_reference, sigmoid_reference


class TestSigmoid:
    @given(
        shape=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        scale=st.sampled_from([0.1, 1.0, 10.0, 100.0]),
        step=st.integers(1, 3),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bytes_equal_to_masked_reference(self, shape, scale, step, seed):
        """Same float ops per element as the gather/scatter form, so the
        float32 result is bytes-equal — contiguous or strided, at ±0 and
        where ``exp(|x|)`` would overflow."""
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=shape) * scale).astype(np.float32)
        x.flat[0] = 0.0
        x.flat[-1] = -0.0
        x.flat[x.size // 2] = np.float32(100.0) * rng.choice([-1.0, 1.0])
        x = x[..., ::step]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = F.sigmoid(x)
        want = sigmoid_reference(x)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_out_buffer_and_aliasing(self):
        x = (np.random.default_rng(0).normal(size=(4, 5)) * 5).astype(np.float32)
        want = sigmoid_reference(x)
        out = np.empty_like(x)
        assert F.sigmoid(x, out=out) is out
        assert out.tobytes() == want.tobytes()
        F.sigmoid(x, out=x)
        assert x.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
def _weights_of(m: LSTM) -> list[tuple[np.ndarray, ...]]:
    return [tuple(p.data for p in quad) for quad in m._layers]


def _grads_of(m: LSTM) -> list[tuple[np.ndarray, ...]]:
    return [tuple(p.grad for p in quad) for quad in m._layers]


class TestKernelAgainstPerTimestepReference:
    @given(
        t=st.integers(1, 6),
        h=st.integers(1, 8),
        layers=st.integers(1, 3),
        n=st.integers(1, 5),
        d=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_forward_and_gradients_match(self, t, h, layers, n, d, seed):
        """Forward differs only by folding ``b_ih + b_hh`` before the
        recurrent term (≤ 1e-6); backward re-associates the gate products
        and batches the weight GEMMs over ``T·n`` rows — rounding level,
        two orders inside the ``assert_grads_close`` tolerances."""
        rng = np.random.default_rng(seed)
        m = LSTM(d, h, num_layers=layers, rng=rng)
        x = rng.normal(size=(n, t, d)).astype(np.float32)
        g = rng.normal(size=(n, h)).astype(np.float32)
        out = m(x)
        dx = m.backward(g)
        ref_out, ref_dx, ref_grads = lstm_reference(x, _weights_of(m), g)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-6)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-4, atol=1e-5)
        for got_quad, ref_quad in zip(_grads_of(m), ref_grads):
            for got, ref in zip(got_quad, ref_quad):
                np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)

    def test_float64_finite_differences(self):
        """The kernels are dtype-generic: run them in float64 and check
        every analytic gradient against central differences."""
        rng = np.random.default_rng(3)
        t, n, d, h = 3, 2, 2, 3
        layers = [
            tuple(
                SimpleNamespace(data=rng.normal(size=s) * 0.5, grad=np.zeros(s))
                for s in ((4 * h, k), (4 * h, h), (4 * h,), (4 * h,))
            )
            for k in (d, h)
        ]
        x = rng.normal(size=(n, t, d))
        w = rng.normal(size=(n, h))

        def loss() -> float:
            return float((lstm_stack_forward(x, layers)[0] * w).sum())

        out, ctxs = lstm_stack_forward(x, layers)
        assert out.dtype == np.float64
        dx = lstm_stack_backward(w, ctxs, layers, True)
        eps = 1e-6
        tensors = [(x, dx)] + [(p.data, p.grad) for quad in layers for p in quad]
        for value, grad in tensors:
            flat = value.reshape(-1)
            numeric = np.empty(flat.size)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss()
                flat[i] = orig - eps
                lo = loss()
                flat[i] = orig
                numeric[i] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(grad.reshape(-1), numeric, rtol=1e-6, atol=1e-8)


# ----------------------------------------------------------------------
def _stack_of(refs: list[LSTM]) -> LSTM:
    """One stacked ``LSTM`` holding the given serial layers' parameters."""
    layer = stack_module(refs[0], len(refs))
    for i, ref in enumerate(refs):
        for p, q in zip(layer.parameters(), ref.parameters()):
            p.data[i] = q.data
    return layer


class TestCohortTwin:
    @given(
        t=st.integers(1, 5),
        h=st.integers(1, 6),
        layers=st.integers(1, 3),
        n=st.integers(1, 4),
        d=st.integers(1, 5),
        cohort=st.integers(1, 3),
        compute_dx=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_stack_is_bytes_equal_to_its_members(
        self, t, h, layers, n, d, cohort, compute_dx, seed
    ):
        """A stack of C independently initialised ``LSTM``s is those C
        layers run one by one: every member's GEMMs keep their serial
        shapes, so forward, dX and every parameter gradient are bytes-equal."""
        rng = np.random.default_rng(seed)
        refs = [LSTM(d, h, num_layers=layers, rng=rng) for _ in range(cohort)]
        for ref in refs:
            ref.compute_dx = compute_dx
        layer = _stack_of(refs)
        assert type(layer) is LSTM and layer.compute_dx is compute_dx
        x = rng.normal(size=(cohort, n, t, d)).astype(np.float32)
        g = rng.normal(size=(cohort, n, h)).astype(np.float32)
        out = layer(x)
        dx = layer.backward(g)
        assert (dx is None) is (not compute_dx)
        for i, ref in enumerate(refs):
            assert out[i].tobytes() == ref(x[i]).tobytes()
            ref_dx = ref.backward(g[i])
            if compute_dx:
                assert (
                    np.ascontiguousarray(dx[i]).tobytes()
                    == np.ascontiguousarray(ref_dx).tobytes()
                )
            for (name, p), q in zip(layer.named_parameters(), ref.parameters()):
                assert p.grad[i].tobytes() == q.grad.tobytes(), name

    def test_width_one_is_bytes_equal_to_scalar(self):
        """A width-1 stack is ``LSTM``'s program with one more leading
        axis; every GEMM has the same shape, so nothing may differ."""
        rng = np.random.default_rng(5)
        m = LSTM(5, 7, num_layers=2, rng=rng)
        layer = _stack_of([m])
        x = rng.normal(size=(4, 6, 5)).astype(np.float32)
        g = rng.normal(size=(4, 7)).astype(np.float32)
        out = m(x)
        dx = m.backward(g)
        c_out = layer.forward(x[None])
        c_dx = layer.backward(g[None])
        assert c_out[0].tobytes() == out.tobytes()
        assert np.ascontiguousarray(c_dx[0]).tobytes() == np.ascontiguousarray(dx).tobytes()
        for (name, p), q in zip(layer.named_parameters(), m.parameters()):
            assert p.grad[0].tobytes() == q.grad.tobytes(), name

    def test_padded_rows_contribute_exactly_zero_weight_gradient(self):
        """Ragged cohorts pad to the widest batch; a padded row gets a
        zero loss gradient, and whatever its input holds must then not
        reach any parameter gradient."""
        rng = np.random.default_rng(6)
        refs = [LSTM(3, 4, num_layers=2, rng=rng) for _ in range(2)]
        x = rng.normal(size=(2, 5, 4, 3)).astype(np.float32)
        g = rng.normal(size=(2, 5, 4)).astype(np.float32)
        g[0, 3:] = 0.0  # member 0 has 3 valid rows, member 1 all 5

        def grads(x_in):
            layer = _stack_of(refs)
            layer.forward(x_in)
            layer.backward(g)
            return [p.grad for p in layer.parameters()]

        garbage = x.copy()
        garbage[0, 3:] = 1e3 * rng.normal(size=(2, 4, 3))
        for a, b in zip(grads(x), grads(garbage)):
            assert a.tobytes() == b.tobytes()
        # ... and equals training member 0 on its valid rows alone.
        refs[0].zero_grad()
        refs[0](x[0, :3])
        refs[0].backward(g[0, :3])
        for got, (_, q) in zip(grads(x), refs[0].named_parameters()):
            np.testing.assert_allclose(got[0], q.grad, rtol=1e-4, atol=1e-5)


class TestModuleSurface:
    def test_compute_dx_false_keeps_parameter_gradients(self):
        rng = np.random.default_rng(8)
        a = LSTM(4, 5, num_layers=2, rng=np.random.default_rng(2))
        b = LSTM(4, 5, num_layers=2, rng=np.random.default_rng(2))
        b.compute_dx = False
        x = rng.normal(size=(3, 4, 4)).astype(np.float32)
        g = rng.normal(size=(3, 5)).astype(np.float32)
        a(x), b(x)
        assert a.backward(g).shape == x.shape
        assert b.backward(g) is None
        for (name, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    def test_classifier_skips_the_sequence_gradient(self):
        assert LSTMClassifier(rng=np.random.default_rng(0)).rnn.compute_dx is False

    def test_backward_needs_a_training_forward(self):
        m = LSTM(3, 4, rng=np.random.default_rng(0))
        x = np.zeros((2, 3, 3), dtype=np.float32)
        g = np.zeros((2, 4), dtype=np.float32)
        with pytest.raises(RuntimeError):
            m.backward(g)
        m.eval()
        m(x)
        with pytest.raises(RuntimeError):
            m.backward(g)
        m.train()
        m(x)
        m.backward(g)
        with pytest.raises(RuntimeError):  # the cache is consumed
            m.backward(g)
        with pytest.raises(RuntimeError):
            stack_module(m, 2).backward(np.stack([g, g]))
