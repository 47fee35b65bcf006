"""Unit tests for repro.nn layers: shapes, gradients, mode behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
)

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm2d, LeNetCNN, WideResNet
from repro.rngstate import rng_state_bytes

from .helpers import assert_grads_close, maxpool_reference

RNG = np.random.default_rng(0)


def randn(*shape):
    return RNG.normal(size=shape).astype(np.float32)


# ----------------------------------------------------------------------
# Parameter / Module plumbing
# ----------------------------------------------------------------------
class TestParameter:
    def test_dtype_and_contiguity(self):
        p = Parameter(np.arange(6, dtype=np.float64).reshape(2, 3))
        assert p.data.dtype == np.float32
        assert p.data.flags["C_CONTIGUOUS"]

    def test_grad_starts_zero_and_zero_grad_resets(self):
        p = Parameter(randn(3, 4))
        assert np.all(p.grad == 0)
        p.grad += 1.5
        p.zero_grad()
        assert np.all(p.grad == 0)

    def test_nbytes_is_four_per_scalar(self):
        p = Parameter(randn(5, 7))
        assert p.nbytes == 5 * 7 * 4
        assert p.size == 35


class TestModule:
    def test_named_parameters_dotted_paths(self):
        model = Sequential(Linear(4, 3, rng=RNG), ReLU(), Linear(3, 2, rng=RNG))
        names = [n for n, _ in model.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_named_parameters_stamps_names(self):
        model = Sequential(Linear(4, 3, rng=RNG))
        list(model.named_parameters())
        assert model._modules["0"].weight.name == "0.weight"

    def test_state_dict_roundtrip(self):
        a = Linear(5, 4, rng=np.random.default_rng(1))
        b = Linear(5, 4, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.data, b.weight.data)
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_rejects_missing_keys(self):
        m = Linear(3, 2, rng=RNG)
        with pytest.raises(KeyError):
            m.load_state_dict({"weight": m.weight.data})

    def test_load_state_dict_rejects_extra_keys(self):
        m = Linear(3, 2, rng=RNG)
        state = m.state_dict()
        state["ghost"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(KeyError):
            m.load_state_dict(state)

    def test_load_state_dict_rejects_shape_mismatch(self):
        m = Linear(3, 2, rng=RNG)
        state = m.state_dict()
        state["weight"] = np.zeros((4, 4), dtype=np.float32)
        with pytest.raises(ValueError):
            m.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = Sequential(Dropout(0.5), Sequential(Dropout(0.5)))
        model.eval()
        assert not model._modules["0"].training
        assert not model._modules["1"]._modules["0"].training
        model.train()
        assert model._modules["0"].training

    def test_num_parameters_and_nbytes(self):
        m = Linear(10, 5, rng=RNG)
        assert m.num_parameters() == 10 * 5 + 5
        assert m.nbytes() == m.num_parameters() * 4

    def test_zero_grad_clears_all(self):
        m = Sequential(Linear(4, 4, rng=RNG), Linear(4, 2, rng=RNG))
        x = randn(3, 4)
        out = m(x)
        m.backward(np.ones_like(out))
        assert any(np.any(p.grad != 0) for p in m.parameters())
        m.zero_grad()
        assert all(np.all(p.grad == 0) for p in m.parameters())

    def test_parameters_list_is_cached_and_matches_named_parameters(self):
        model = Sequential(Linear(4, 3, rng=RNG), ReLU(), Linear(3, 2, rng=RNG))
        first = model.parameters()
        assert model.parameters() is first
        assert [id(p) for p in first] == [id(p) for _, p in model.named_parameters()]
        assert [p.name for p in first] == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_parameters_cache_sees_registration_on_a_descendant(self):
        inner = Sequential(Linear(4, 3, rng=RNG))
        model = Sequential(inner)
        assert len(model.parameters()) == 2
        # Neither assignment touches `model` itself.
        inner.extra = Linear(3, 2, rng=RNG)
        assert len(model.parameters()) == 4
        replacement = Parameter(np.zeros((3, 4), dtype=np.float32))
        inner._modules["0"].weight = replacement
        assert model.parameters()[0] is replacement
        inner._modules["0"].register_parameter("scale", Parameter(np.ones(1)))
        assert len(model.parameters()) == 5

    def test_parameters_cache_does_not_survive_deepcopy_stale(self):
        import copy

        model = Sequential(Linear(4, 3, rng=RNG))
        model.parameters()
        clone = copy.deepcopy(model)
        assert [id(p) for p in clone.parameters()] == [
            id(p) for _, p in clone.named_parameters()
        ]
        assert clone.parameters()[0] is not model.parameters()[0]

    def test_named_walks_see_late_registration_on_a_descendant(self):
        """``named_parameters()`` / ``named_buffers()`` serve one cached
        walk; every kind of registration, anywhere below, must retire it."""
        leaf = BatchNorm2d(2)
        inner = Sequential(leaf)
        model = Sequential(inner)

        def names():
            return (
                [n for n, _ in model.named_parameters()],
                [n for n, _ in model.named_buffers()],
            )

        assert names() == (
            ["0.0.weight", "0.0.bias"], ["0.0.running_mean", "0.0.running_var"]
        )
        leaf.register_parameter("scale", Parameter(np.ones(1, dtype=np.float32)))
        assert names()[0] == ["0.0.weight", "0.0.bias", "0.0.scale"]
        leaf.register_buffer("steps", np.zeros(1))
        assert names()[1] == ["0.0.running_mean", "0.0.running_var", "0.0.steps"]
        assert list(model.buffer_dict()) == names()[1]
        inner.extra = BatchNorm2d(3)
        assert names()[0][-2:] == ["0.extra.weight", "0.extra.bias"]
        assert names()[1][-2:] == ["0.extra.running_mean", "0.extra.running_var"]
        # The walk is by name, never by array: a re-registered buffer is seen.
        leaf.register_buffer("steps", np.ones(1))
        assert dict(model.named_buffers())["0.0.steps"] is leaf.steps
        # A prefixed walk (what a parent's recursion asks for) matches.
        assert [n for n, _ in inner.named_parameters("0.")] == names()[0]
        assert [n for n, _ in inner.named_buffers("0.")] == names()[1]

    def test_named_walks_do_not_survive_deepcopy_stale(self):
        import copy
        import pickle

        model = Sequential(Sequential(BatchNorm2d(2)))
        list(model.named_parameters()), list(model.named_buffers())
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            assert clone._walk_cache.stamp is not Module._structure_token
            own = clone._modules["0"]._modules["0"]
            assert dict(clone.named_parameters())["0.0.weight"] is own.weight
            assert dict(clone.named_buffers())["0.0.running_mean"] is own.running_mean
            assert own.weight is not model._modules["0"]._modules["0"].weight

    def test_rng_state_round_trips_distinct_generators_that_draw(self):
        shared = np.random.default_rng(3)
        model = Sequential(
            Dropout(0.5, rng=shared),
            Sequential(Dropout(0.2, rng=shared)),       # same generator: once
            Dropout(0.0, rng=np.random.default_rng(4)),  # never draws: skipped
            Dropout(0.3, rng=np.random.default_rng(5)),
        )
        state = model.rng_state()
        assert state == [
            rng_state_bytes(np.random.default_rng(3)),
            rng_state_bytes(np.random.default_rng(5)),
        ]
        x = np.ones((4, 6), dtype=np.float32)
        first = model(x)
        assert model.rng_state() != state
        model.load_rng_state(state)
        np.testing.assert_array_equal(model(x), first)
        with pytest.raises(ValueError):
            model.load_rng_state(state[:1])
        assert Linear(3, 2, rng=RNG).rng_state() == []


# ----------------------------------------------------------------------
# Linear
# ----------------------------------------------------------------------
class TestLinear:
    def test_forward_matches_matmul(self):
        m = Linear(4, 3, rng=RNG)
        x = randn(5, 4)
        expected = x @ m.weight.data.T + m.bias.data
        np.testing.assert_allclose(m(x), expected, rtol=1e-6)

    def test_no_bias(self):
        m = Linear(4, 3, bias=False, rng=RNG)
        assert m.bias is None
        assert [n for n, _ in m.named_parameters()] == ["weight"]

    def test_compute_dx_false_leaves_parameter_grads_bytes_equal(self):
        x = randn(5, 4)
        grads = {}
        for compute_dx in (True, False):
            m = Linear(4, 3, rng=np.random.default_rng(2))
            m.compute_dx = compute_dx
            dx = m.backward(np.ones_like(m(x)))
            assert (dx is None) == (not compute_dx)
            grads[compute_dx] = [p.grad.tobytes() for p in m.parameters()]
        assert grads[True] == grads[False]

    def test_gradcheck(self):
        assert_grads_close(Linear(4, 3, rng=RNG), randn(5, 4))

    def test_backward_before_forward_raises(self):
        m = Linear(4, 3, rng=RNG)
        with pytest.raises(RuntimeError):
            m.backward(randn(5, 3))

    def test_gradients_accumulate(self):
        m = Linear(3, 2, rng=RNG)
        x = randn(4, 3)
        out = m(x)
        m.backward(np.ones_like(out))
        g1 = m.weight.grad.copy()
        m(x)
        m.backward(np.ones_like(out))
        np.testing.assert_allclose(m.weight.grad, 2 * g1, rtol=1e-5)


# ----------------------------------------------------------------------
# Activations / shape layers
# ----------------------------------------------------------------------
class TestActivations:
    def test_relu_forward(self):
        m = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]], dtype=np.float32)
        np.testing.assert_array_equal(m(x), [[0.0, 0.0, 2.0]])

    def test_relu_gradcheck(self):
        # Keep inputs away from the kink at 0.
        x = randn(4, 6)
        x[np.abs(x) < 0.1] += 0.2
        assert_grads_close(ReLU(), x)

    def test_tanh_gradcheck(self):
        assert_grads_close(Tanh(), randn(4, 6))

    def test_flatten_roundtrip(self):
        m = Flatten()
        x = randn(2, 3, 4, 5)
        out = m(x)
        assert out.shape == (2, 60)
        back = m.backward(out)
        assert back.shape == x.shape

    def test_identity_passthrough(self):
        m = Identity()
        x = randn(2, 3)
        assert m(x) is x
        assert m.backward(x) is x


class TestDropout:
    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_eval_mode_is_identity(self):
        m = Dropout(0.5)
        m.eval()
        x = randn(8, 8)
        assert m(x) is x

    def test_train_mode_preserves_expectation(self):
        m = Dropout(0.5, rng=np.random.default_rng(3))
        x = np.ones((200, 200), dtype=np.float32)
        out = m(x)
        assert abs(out.mean() - 1.0) < 0.05

    def test_backward_uses_same_mask(self):
        m = Dropout(0.5, rng=np.random.default_rng(3))
        x = np.ones((10, 10), dtype=np.float32)
        out = m(x)
        grad = m.backward(np.ones_like(x))
        np.testing.assert_array_equal(grad == 0, out == 0)

    def test_p_zero_is_identity_in_train(self):
        m = Dropout(0.0)
        x = randn(4, 4)
        assert m(x) is x


# ----------------------------------------------------------------------
# Conv2d
# ----------------------------------------------------------------------
class TestConv2d:
    def test_output_shape(self):
        m = Conv2d(3, 8, 3, stride=1, padding=1, rng=RNG)
        assert m(randn(2, 3, 8, 8)).shape == (2, 8, 8, 8)

    def test_strided_shape(self):
        m = Conv2d(3, 4, 3, stride=2, padding=1, rng=RNG)
        assert m(randn(2, 3, 8, 8)).shape == (2, 4, 4, 4)

    def test_channel_mismatch_raises(self):
        m = Conv2d(3, 4, 3, rng=RNG)
        with pytest.raises(ValueError):
            m(randn(2, 5, 8, 8))

    def test_matches_direct_convolution(self):
        m = Conv2d(2, 3, 3, stride=1, padding=0, rng=RNG)
        x = randn(1, 2, 5, 5)
        out = m(x)
        # Direct sliding-window reference.
        ref = np.zeros_like(out)
        for f in range(3):
            for i in range(3):
                for j in range(3):
                    patch = x[0, :, i : i + 3, j : j + 3]
                    ref[0, f, i, j] = (patch * m.weight.data[f]).sum() + m.bias.data[f]
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_gradcheck_padded(self):
        assert_grads_close(Conv2d(2, 3, 3, padding=1, rng=RNG), randn(2, 2, 5, 5))

    def test_gradcheck_strided(self):
        assert_grads_close(
            Conv2d(2, 2, 3, stride=2, padding=1, rng=RNG), randn(2, 2, 6, 6)
        )

    def test_geometry_change_recomputes_indices(self):
        m = Conv2d(1, 1, 3, padding=1, rng=RNG)
        assert m(randn(1, 1, 6, 6)).shape == (1, 1, 6, 6)
        assert m(randn(1, 1, 8, 8)).shape == (1, 1, 8, 8)

    def test_empty_output_geometry_raises(self):
        m = Conv2d(1, 1, 5, rng=RNG)
        with pytest.raises(ValueError):
            m(randn(1, 1, 3, 3))

    @given(
        n=st.integers(1, 4),
        c=st.integers(1, 4),
        f=st.integers(1, 5),
        hw=st.integers(3, 9),
        k=st.integers(1, 3),
        stride=st.integers(1, 2),
        pad=st.integers(0, 1),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_float64_einsum_reference(self, n, c, f, hw, k, stride, pad, seed):
        """The three GEMMs against a float64 einsum over explicit windows:
        out, dW, db, dX within 1e-5 of the reference's scale, and the output
        C-contiguous (the planned einsum returned an (N, L, F)-strided one)."""
        rng = np.random.default_rng(seed)
        m = Conv2d(c, f, k, stride=stride, padding=pad, rng=rng)
        m.bias.data[...] = rng.normal(size=f)
        x = rng.normal(size=(n, c, hw, hw)).astype(np.float32)
        out = m(x)
        assert out.flags.c_contiguous and out.dtype == np.float32
        g = rng.normal(size=out.shape).astype(np.float32)
        dx = m.backward(g)

        oh, ow = out.shape[2:]
        xp = np.pad(x.astype(np.float64), ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        win = np.empty((n, c, k, k, oh, ow))
        for a in range(k):
            for b in range(k):
                win[:, :, a, b] = xp[
                    :, :, a : a + stride * oh : stride, b : b + stride * ow : stride
                ]
        w64, g64 = m.weight.data.astype(np.float64), g.astype(np.float64)
        ref_out = np.einsum("fcab,ncabyx->nfyx", w64, win) + m.bias.data[None, :, None, None]
        ref_dw = np.einsum("nfyx,ncabyx->fcab", g64, win)
        dwin = np.einsum("fcab,nfyx->ncabyx", w64, g64)
        ref_dxp = np.zeros_like(xp)
        for a in range(k):
            for b in range(k):
                ref_dxp[
                    :, :, a : a + stride * oh : stride, b : b + stride * ow : stride
                ] += dwin[:, :, a, b]
        ref_dx = ref_dxp[:, :, pad : pad + hw, pad : pad + hw]

        def close(got, ref):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-5 * max(1.0, np.abs(ref).max()))

        close(out, ref_out)
        close(m.weight.grad, ref_dw)
        close(m.bias.grad, g64.sum(axis=(0, 2, 3)))
        close(dx, ref_dx)

    def test_compute_dx_false_leaves_parameter_grads_bytes_equal(self):
        x = randn(4, 3, 8, 8)
        grads = {}
        for compute_dx in (True, False):
            m = Conv2d(3, 5, 3, stride=2, padding=1, rng=np.random.default_rng(4))
            m.compute_dx = compute_dx
            out = m(x)
            dx = m.backward(np.ones_like(out))
            assert (dx is None) == (not compute_dx)
            grads[compute_dx] = [p.grad.tobytes() for p in m.parameters()]
        assert grads[True] == grads[False]

    def test_models_skip_dx_on_their_first_layer_only(self):
        for model in (LeNetCNN(rng=RNG), WideResNet(rng=RNG)):
            skipping = [
                name for name, mod in model.named_modules()
                if not getattr(mod, "compute_dx", True)
            ]
            assert skipping == ["conv1"]

    def test_model_grads_bytes_equal_with_and_without_first_layer_dx(self):
        x = randn(4, 3, 12, 12)
        grads = {}
        for compute_dx in (True, False):
            model = LeNetCNN(rng=np.random.default_rng(9))
            model.conv1.compute_dx = compute_dx
            out = model(x)
            model.backward(np.ones_like(out))
            grads[compute_dx] = [p.grad.tobytes() for p in model.parameters()]
        assert grads[True] == grads[False]


class TestEvalModeRetainsNothing:
    """An eval-mode forward has no backward to feed: layers must not pin
    their activations (the test-set batch is the largest the model sees)."""

    @pytest.mark.parametrize(
        "layer,shape,attr",
        [
            (Conv2d(2, 3, 3, padding=1, rng=RNG), (2, 2, 6, 6), "_cols"),
            (Linear(4, 3, rng=RNG), (5, 4), "_x"),
            (ReLU(), (3, 4), "_mask"),
            (MaxPool2d(2), (1, 2, 4, 4), "_mask"),
        ],
    )
    def test_forward_keeps_nothing_and_backward_raises(self, layer, shape, attr):
        x = randn(*shape)
        expected = layer(x)
        assert getattr(layer, attr) is not None
        layer.backward(np.ones_like(expected))
        layer.eval()
        out = layer(x)
        assert out.tobytes() == expected.tobytes()
        assert getattr(layer, attr) is None
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.ones_like(out))

    def test_batchnorm_keeps_nothing(self):
        m = BatchNorm2d(2)
        m(randn(4, 2, 3, 3))
        assert m._cache is not None
        m.eval()
        m(randn(4, 2, 3, 3))
        assert m._cache is None


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------
class TestPooling:
    def test_maxpool_forward(self):
        m = MaxPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = m(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient_sum_conserved(self):
        m = MaxPool2d(2)
        x = randn(2, 3, 6, 6)
        out = m(x)
        g = np.ones_like(out)
        grad = m.backward(g)
        assert abs(grad.sum() - g.sum()) < 1e-4

    def test_maxpool_gradcheck(self):
        x = randn(2, 2, 4, 4)
        # Separate values so the max is locally stable under eps perturbation.
        x += np.arange(x.size).reshape(x.shape) * 0.05
        assert_grads_close(MaxPool2d(2), x)

    def test_maxpool_truncates_odd_sizes(self):
        m = MaxPool2d(2)
        out = m(randn(1, 1, 5, 5))
        assert out.shape == (1, 1, 2, 2)

    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 3),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.integers(1, 3),
        levels=st.sampled_from([2, 3, 0]),  # few levels => many ties; 0 => none
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_maxpool_bytes_equal_to_window_view_reference(
        self, n, c, h, w, k, levels, seed
    ):
        """Max and integer tie counts are exact, so the k² strided-slice
        kernel is bytes-equal to the 6-D window-view formulation it
        replaced — ties and truncated (non-multiple) inputs included."""
        if h < k or w < k:
            return
        rng = np.random.default_rng(seed)
        if levels:
            x = rng.integers(0, levels, size=(n, c, h, w)).astype(np.float32)
        else:
            x = rng.normal(size=(n, c, h, w)).astype(np.float32)
        m = MaxPool2d(k)
        out = m(x)
        g = rng.normal(size=out.shape).astype(np.float32)
        grad = m.backward(g)
        ref_out, ref_grad = maxpool_reference(x, k, g)
        assert out.shape == ref_out.shape and out.dtype == ref_out.dtype
        assert out.tobytes() == ref_out.tobytes()
        assert grad.shape == x.shape and grad.dtype == ref_grad.dtype
        assert grad.tobytes() == ref_grad.tobytes()
        assert not np.shares_memory(out, x)
        assert m._mask is None  # consumed by backward

    def test_maxpool_declares_its_state(self):
        assert vars(MaxPool2d(2)).keys() >= {"_mask", "_x_shape"}
        m = MaxPool2d(2)
        declared = set(vars(m))
        m.backward(np.ones_like(m(randn(1, 1, 4, 4))))
        assert set(vars(m)) == declared

    def test_avgpool_forward(self):
        m = AvgPool2d(2)
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(m(x)[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradcheck(self):
        assert_grads_close(AvgPool2d(2), randn(2, 2, 4, 4))

    def test_global_avgpool(self):
        m = GlobalAvgPool2d()
        x = randn(2, 3, 4, 4)
        np.testing.assert_allclose(m(x), x.mean(axis=(2, 3)), rtol=1e-6)

    def test_global_avgpool_gradcheck(self):
        assert_grads_close(GlobalAvgPool2d(), randn(2, 3, 4, 4))

    def test_global_avgpool_backward_is_one_owned_copy(self):
        """The spread gradient is materialised once (``astype`` already
        copies the broadcast view): writable, C-contiguous, owning its
        memory, and the bytes of the former copy-of-a-copy."""
        m = GlobalAvgPool2d()
        x, g = randn(2, 3, 4, 5), randn(2, 3)
        m(x)
        dx = m.backward(g)
        want = np.broadcast_to((g / 20)[:, :, None, None], x.shape).astype(g.dtype).copy()
        assert dx.flags.writeable and dx.flags.c_contiguous and dx.flags.owndata
        assert dx.dtype == g.dtype and dx.tobytes() == want.tobytes()
        dx += 1.0  # a residual branch may accumulate into it

    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            MaxPool2d(0)
        with pytest.raises(ValueError):
            AvgPool2d(-1)


# ----------------------------------------------------------------------
# Sequential
# ----------------------------------------------------------------------
class TestSequential:
    def test_chain_gradcheck(self):
        model = Sequential(
            Linear(6, 5, rng=RNG), Tanh(), Linear(5, 3, rng=RNG)
        )
        assert_grads_close(model, randn(4, 6))

    def test_iteration_order(self):
        layers = [Linear(2, 2, rng=RNG), ReLU(), Linear(2, 2, rng=RNG)]
        model = Sequential(*layers)
        assert list(model) == layers
        assert len(model) == 3

    def test_custom_names(self):
        model = Sequential(
            Linear(2, 2, rng=RNG), Linear(2, 2, rng=RNG), names=["enc", "dec"]
        )
        names = [n for n, _ in model.named_parameters()]
        assert names == ["enc.weight", "enc.bias", "dec.weight", "dec.bias"]

    def test_names_length_mismatch(self):
        with pytest.raises(ValueError):
            Sequential(Linear(2, 2, rng=RNG), names=["a", "b"])
