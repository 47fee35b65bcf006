"""Unit tests for BatchNorm2d and the LSTM stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import LSTM, BatchNorm2d

from .helpers import assert_grads_close

RNG = np.random.default_rng(1)


def randn(*shape):
    return RNG.normal(size=shape).astype(np.float32)


class TestBatchNorm2d:
    def test_train_normalises_batch(self):
        m = BatchNorm2d(3)
        x = randn(8, 3, 4, 4) * 5 + 2
        out = m(x)
        assert abs(out.mean()) < 1e-4
        assert abs(out.var() - 1.0) < 1e-2

    def test_affine_params_applied(self):
        m = BatchNorm2d(2)
        m.weight.data[:] = [2.0, 3.0]
        m.bias.data[:] = [1.0, -1.0]
        x = randn(8, 2, 4, 4)
        out = m(x)
        assert abs(out[:, 0].mean() - 1.0) < 1e-4
        assert abs(out[:, 1].mean() + 1.0) < 1e-4

    def test_running_stats_updated_in_train_only(self):
        m = BatchNorm2d(2)
        x = randn(8, 2, 4, 4) + 3.0
        m(x)
        rm_after_train = m.running_mean.copy()
        assert not np.allclose(rm_after_train, 0.0)
        m.eval()
        m(x)
        np.testing.assert_array_equal(m.running_mean, rm_after_train)

    def test_eval_uses_running_stats(self):
        m = BatchNorm2d(1)
        # Converge running stats on a known distribution.
        for _ in range(200):
            m(randn(16, 1, 2, 2) * 2 + 5)
        m.eval()
        x = randn(4, 1, 2, 2) * 2 + 5
        out = m(x)
        assert abs(out.mean()) < 0.3

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            BatchNorm2d(3)(randn(2, 4, 2, 2))

    def test_gradcheck_train(self):
        assert_grads_close(BatchNorm2d(2), randn(4, 2, 3, 3), rtol=3e-2, atol=3e-3)

    def test_eval_backward_is_linear_scale(self):
        m = BatchNorm2d(2)
        m(randn(8, 2, 3, 3))  # populate running stats
        m.eval()
        x = randn(4, 2, 3, 3)
        m(x)
        g = randn(4, 2, 3, 3)
        grad = m.backward(g)
        inv_std = 1.0 / np.sqrt(m.running_var + m.eps)
        expected = g * (m.weight.data * inv_std)[None, :, None, None]
        np.testing.assert_allclose(grad, expected, rtol=1e-5)

    def test_gradient_sum_zero_per_channel(self):
        # In train mode, d(loss)/dx sums to ~0 per channel when gamma grad
        # flows through normalisation (mean subtraction property).
        m = BatchNorm2d(2)
        x = randn(6, 2, 3, 3)
        out = m(x)
        grad = m.backward(np.ones_like(out))
        per_channel = grad.sum(axis=(0, 2, 3))
        np.testing.assert_allclose(per_channel, 0.0, atol=1e-3)


class _TwoPassBatchNorm(BatchNorm2d):
    """The training forward as it was written before the layer centred its
    input once: ``x.mean``, then ``x.var`` (which centres again), then
    ``(x - mean) * inv_std``."""

    def forward(self, x):
        axes = (-4, -2, -1)
        ragged = self._ragged(x.shape[-4])
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        for i, r in ragged:
            if r:
                mean[i], var[i] = x[i, :r].mean(axis=axes), x[i, :r].var(axis=axes)
        live = self.rows > 0 if ragged else ...
        m = self.momentum
        self.running_mean[live] = self.running_mean[live] * (1 - m) + m * mean[live]
        self.running_var[live] = self.running_var[live] * (1 - m) + m * var[live]
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean[..., None, :, None, None]) * inv_std[..., None, :, None, None]
        self._cache = (x_hat, inv_std, ragged)
        w, b = self.weight.data, self.bias.data
        return w[..., None, :, None, None] * x_hat + b[..., None, :, None, None]


class TestBatchNormCentresOnce:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ch,hw", [(4, 12), (8, 6), (16, 3)])  # the WRN maps
    @pytest.mark.parametrize("stacked", [False, True])
    def test_bytes_equal_to_the_two_pass_formula(self, stacked, ch, hw, seed):
        """Output, dx, dγ, dβ and both running statistics are the two-pass
        layer's bytes — over one replica and over a ``cohort:4`` stack whose
        member 1 is padded (5 of 8 rows) and member 2 sat the step out."""
        from repro.nn.cohort import stack_module

        rng = np.random.default_rng(seed)
        layers = [BatchNorm2d(ch), _TwoPassBatchNorm(ch)]
        shape = (8, ch, hw, hw)
        if stacked:
            layers = [stack_module(m, 4) for m in layers]
            for m in layers:
                m.rows = np.array([8, 5, 0, 8])
            shape = (4,) + shape
        scale = 10.0 ** rng.integers(-3, 4, size=shape[:-4] + (1, ch, 1, 1))
        x = (rng.normal(size=shape) * scale + rng.normal(size=scale.shape)).astype(np.float32)
        g = rng.normal(size=shape).astype(np.float32)
        if stacked:
            g[1, 5:] = g[2] = 0.0  # what the stacked loss hands back for padded rows
        new, old = (
            (m.forward(x), m.backward(g), m.weight.grad, m.bias.grad,
             m.running_mean, m.running_var)
            for m in layers
        )
        for what, a, b in zip(("out", "dx", "dγ", "dβ", "running_mean", "running_var"), new, old):
            assert a.tobytes() == b.tobytes(), what


class TestLSTM:
    def test_output_shape(self):
        m = LSTM(5, 7, num_layers=2, rng=RNG)
        assert m(randn(3, 6, 5)).shape == (3, 7)

    def test_parameter_names_match_torch_convention(self):
        m = LSTM(5, 7, num_layers=2, rng=RNG)
        names = {n for n, _ in m.named_parameters()}
        assert "weight_ih_l0" in names
        assert "weight_hh_l1" in names
        assert "bias_ih_l1" in names
        assert "bias_hh_l0" in names

    def test_parameter_shapes(self):
        m = LSTM(5, 7, num_layers=2, rng=RNG)
        params = dict(m.named_parameters())
        assert params["weight_ih_l0"].shape == (28, 5)
        assert params["weight_ih_l1"].shape == (28, 7)
        assert params["weight_hh_l0"].shape == (28, 7)
        assert params["bias_ih_l0"].shape == (28,)

    def test_invalid_input_size(self):
        m = LSTM(5, 7, rng=RNG)
        with pytest.raises(ValueError):
            m(randn(3, 6, 4))

    def test_num_layers_validation(self):
        with pytest.raises(ValueError):
            LSTM(5, 7, num_layers=0, rng=RNG)

    def test_backward_before_forward(self):
        m = LSTM(5, 7, rng=RNG)
        with pytest.raises(RuntimeError):
            m.backward(randn(3, 7))

    def test_gradcheck_single_layer(self):
        assert_grads_close(LSTM(3, 4, rng=RNG), randn(2, 4, 3), rtol=3e-2, atol=3e-3)

    def test_gradcheck_two_layers(self):
        assert_grads_close(
            LSTM(3, 3, num_layers=2, rng=RNG), randn(2, 3, 3), rtol=3e-2, atol=3e-3
        )

    def test_deterministic_given_rng(self):
        a = LSTM(4, 5, rng=np.random.default_rng(9))
        b = LSTM(4, 5, rng=np.random.default_rng(9))
        x = randn(2, 3, 4)
        np.testing.assert_array_equal(a(x), b(x))

    def test_longer_sequences_change_output(self):
        m = LSTM(4, 5, rng=RNG)
        x = randn(2, 8, 4)
        full = m(x)
        half = m(x[:, :4, :])
        assert not np.allclose(full, half)


class TestGroupNorm2d:
    def test_normalises_per_group(self):
        from repro.nn import GroupNorm2d

        m = GroupNorm2d(2, 4)
        x = RNG.normal(size=(3, 4, 5, 5)).astype(np.float32) * 4 + 2
        out = m(x)
        grouped = out.reshape(3, 2, 2, 5, 5)
        np.testing.assert_allclose(grouped.mean(axis=(2, 3, 4)), 0.0, atol=1e-4)
        np.testing.assert_allclose(grouped.var(axis=(2, 3, 4)), 1.0, atol=1e-2)

    def test_train_eval_identical(self):
        from repro.nn import GroupNorm2d

        m = GroupNorm2d(2, 4)
        x = randn(2, 4, 3, 3)
        train_out = m(x)
        m.eval()
        np.testing.assert_array_equal(m(x), train_out)

    def test_no_buffers(self):
        from repro.nn import GroupNorm2d

        assert GroupNorm2d(2, 4).buffer_dict() == {}

    def test_gradcheck(self):
        from repro.nn import GroupNorm2d

        assert_grads_close(GroupNorm2d(2, 4), randn(2, 4, 3, 3), rtol=3e-2, atol=3e-3)

    def test_validation(self):
        from repro.nn import GroupNorm2d
        import pytest as _pytest

        with _pytest.raises(ValueError):
            GroupNorm2d(3, 4)
        with _pytest.raises(ValueError):
            GroupNorm2d(0, 4)
        m = GroupNorm2d(2, 4)
        with _pytest.raises(ValueError):
            m(randn(2, 6, 3, 3))

    def test_wrn_group_norm_variant_trains(self):
        from repro.nn import SGD, WideResNet, softmax_cross_entropy

        model = WideResNet(norm="group", rng=np.random.default_rng(4))
        x = randn(4, 3, 12, 12)
        y = np.arange(4)
        opt = SGD(model, 0.05)
        losses = []
        for _ in range(30):
            logits = model(x)
            loss, g = softmax_cross_entropy(logits, y)
            model.zero_grad()
            model.backward(g)
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.5
