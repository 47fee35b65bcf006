"""Tests for workload models, losses and optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    SGD,
    LeNetCNN,
    LSTMClassifier,
    ProxSGD,
    ResidualBlock,
    WideResNet,
    accuracy,
    build_model,
    softmax_cross_entropy,
)

from .helpers import assert_grads_close

RNG = np.random.default_rng(2)


def randn(*shape):
    return RNG.normal(size=shape).astype(np.float32)


# ----------------------------------------------------------------------
# Loss
# ----------------------------------------------------------------------
class TestLoss:
    def test_uniform_logits_loss_is_log_k(self):
        logits = np.zeros((4, 10), dtype=np.float32)
        labels = np.array([0, 1, 2, 3])
        loss, _ = softmax_cross_entropy(logits, labels)
        assert abs(loss - np.log(10)) < 1e-5

    def test_gradient_rows_sum_to_zero(self):
        logits = randn(6, 5)
        labels = np.array([0, 1, 2, 3, 4, 0])
        _, grad = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-6)

    def test_gradient_matches_numeric(self):
        logits = randn(3, 4).astype(np.float64)
        labels = np.array([1, 0, 3])
        _, grad = softmax_cross_entropy(logits.astype(np.float32), labels)
        eps = 1e-4
        for i in range(3):
            for j in range(4):
                p = logits.copy()
                p[i, j] += eps
                hi, _ = softmax_cross_entropy(p.astype(np.float32), labels)
                p[i, j] -= 2 * eps
                lo, _ = softmax_cross_entropy(p.astype(np.float32), labels)
                num = (hi - lo) / (2 * eps)
                assert abs(num - grad[i, j]) < 1e-3

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(randn(4, 3), np.array([0, 1]))

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_extreme_logits_stable(self):
        logits = np.array([[1000.0, -1000.0]], dtype=np.float32)
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))


# ----------------------------------------------------------------------
# Optimisers
# ----------------------------------------------------------------------
class TestSGD:
    def test_step_moves_against_gradient(self):
        m = LeNetCNN(rng=np.random.default_rng(3))
        p = m.parameters()[0]
        p.grad[...] = 1.0
        before = p.data.copy()
        SGD(m, lr=0.1).step()
        np.testing.assert_allclose(p.data, before - 0.1, rtol=1e-6)

    def test_weight_decay_shrinks_weights(self):
        m = LeNetCNN(rng=np.random.default_rng(3))
        p = m.parameters()[0]
        before = p.data.copy()
        SGD(m, lr=0.1, weight_decay=0.5).step()  # grad = 0 => pure decay
        np.testing.assert_allclose(p.data, before * (1 - 0.05), rtol=1e-5)

    def test_momentum_accumulates(self):
        m = LeNetCNN(rng=np.random.default_rng(3))
        opt = SGD(m, lr=1.0, momentum=0.9)
        p = m.parameters()[0]
        start = p.data.copy()
        p.grad[...] = 1.0
        opt.step()  # v=1, step 1
        p.grad[...] = 1.0
        opt.step()  # v=1.9, step total 2.9
        np.testing.assert_allclose(p.data, start - 2.9, rtol=1e-5)

    def test_validation(self):
        m = LeNetCNN(rng=RNG)
        with pytest.raises(ValueError):
            SGD(m, lr=0.0)
        with pytest.raises(ValueError):
            SGD(m, lr=0.1, weight_decay=-1)
        with pytest.raises(ValueError):
            SGD(m, lr=0.1, momentum=1.0)

    def test_zero_grad_delegates(self):
        m = LeNetCNN(rng=RNG)
        for p in m.parameters():
            p.grad[...] = 1.0
        SGD(m, 0.1).zero_grad()
        assert all(np.all(p.grad == 0) for p in m.parameters())


class TestProxSGD:
    def test_prox_pulls_toward_anchor(self):
        m = LeNetCNN(rng=np.random.default_rng(3))
        anchor = m.arena().values.copy()
        opt = ProxSGD(m, lr=0.1, mu=1.0)
        opt.set_anchor(anchor)
        # Drift a parameter away, then step with zero task gradient.
        list(m.named_parameters())
        p = m.parameters()[0]
        p.data += 1.0
        before = p.data.copy()
        opt.step()
        # grad = mu * (w - anchor) = 1.0 => step pulls back by lr * 1.0
        np.testing.assert_allclose(p.data, before - 0.1, rtol=1e-5)

    def test_anchor_at_current_is_plain_sgd(self):
        m = LeNetCNN(rng=np.random.default_rng(3))
        opt = ProxSGD(m, lr=0.1, mu=10.0)
        opt.set_anchor(m.arena().values.copy())
        p = m.parameters()[0]
        p.grad[...] = 2.0
        before = p.data.copy()
        opt.step()
        np.testing.assert_allclose(p.data, before - 0.2, rtol=1e-5)

    def test_missing_anchor_key_raises(self):
        m = LeNetCNN(rng=RNG)
        list(m.named_parameters())  # stamp names
        opt = ProxSGD(m, lr=0.1, mu=0.1)
        # The anchor is the global parameter vector; one missing a layer
        # is short, and is refused before it can pull anything.
        short = m.arena().values[: -m.parameters()[-1].data.size]
        with pytest.raises(ValueError, match="anchor"):
            opt.set_anchor(short)

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            ProxSGD(LeNetCNN(rng=RNG), lr=0.1, mu=-0.5)


# ----------------------------------------------------------------------
# Models
# ----------------------------------------------------------------------
class TestModels:
    def test_cnn_layer_names(self):
        names = {n for n, _ in LeNetCNN(rng=RNG).named_parameters()}
        assert {"conv1.weight", "conv2.weight", "fc1.weight", "fc2.weight",
                "fc3.weight"} <= names

    def test_lstm_classifier_layer_names(self):
        names = {n for n, _ in LSTMClassifier(rng=RNG).named_parameters()}
        assert "rnn.weight_hh_l0" in names
        assert "rnn.bias_ih_l1" in names
        assert "fc.weight" in names

    def test_wrn_layer_names_match_paper_pattern(self):
        names = {n for n, _ in WideResNet(depth=22, rng=RNG).named_parameters()}
        # depth 22 => n = 3 blocks per group => conv4.2 exists.
        assert "conv3.0.residual.0.bias" in names
        assert "conv4.2.residual.6.weight" in names

    def test_wrn_depth_validation(self):
        with pytest.raises(ValueError):
            WideResNet(depth=11, rng=RNG)

    def test_cnn_overfits_one_batch(self):
        model = LeNetCNN(rng=np.random.default_rng(4))
        x = randn(8, 3, 12, 12)
        y = np.arange(8) % 10
        opt = SGD(model, 0.05)
        for _ in range(60):
            logits = model(x)
            _, g = softmax_cross_entropy(logits, y)
            model.zero_grad()
            model.backward(g)
            opt.step()
        assert accuracy(model(x), y) == 1.0

    def test_lstm_overfits_one_batch(self):
        model = LSTMClassifier(rng=np.random.default_rng(4))
        x = randn(6, 10, 8)
        y = np.arange(6) % 10
        opt = SGD(model, 0.3)
        for _ in range(150):
            logits = model(x)
            _, g = softmax_cross_entropy(logits, y)
            model.zero_grad()
            model.backward(g)
            opt.step()
        assert accuracy(model(x), y) >= 5 / 6

    def test_wrn_overfits_one_batch(self):
        model = WideResNet(rng=np.random.default_rng(4))
        x = randn(4, 3, 12, 12)
        y = np.arange(4)
        opt = SGD(model, 0.05)
        for _ in range(60):
            logits = model(x)
            _, g = softmax_cross_entropy(logits, y)
            model.zero_grad()
            model.backward(g)
            opt.step()
        assert accuracy(model(x), y) == 1.0

    def test_residual_block_shape_change(self):
        block = ResidualBlock(4, 8, stride=2, rng=RNG)
        assert block(randn(2, 4, 8, 8)).shape == (2, 8, 4, 4)

    def test_residual_block_identity_shortcut(self):
        block = ResidualBlock(4, 4, stride=1, rng=RNG)
        from repro.nn import Identity

        assert isinstance(block.shortcut, Identity)

    def test_residual_block_gradcheck(self):
        block = ResidualBlock(2, 3, stride=1, rng=RNG)
        assert_grads_close(block, randn(2, 2, 4, 4), rtol=4e-2, atol=4e-3)

    def test_build_model_factory(self):
        assert isinstance(build_model("cnn", rng=RNG), LeNetCNN)
        assert isinstance(build_model("LSTM", rng=RNG), LSTMClassifier)
        assert isinstance(build_model("wrn", rng=RNG), WideResNet)
        with pytest.raises(ValueError):
            build_model("transformer", rng=RNG)

    def test_model_determinism_from_seed(self):
        a = LeNetCNN(rng=np.random.default_rng(5))
        b = LeNetCNN(rng=np.random.default_rng(5))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_cnn_image_size_validation(self):
        with pytest.raises(ValueError):
            LeNetCNN(image_size=2, rng=RNG)

    def test_lstm_classifier_rejects_2d_input(self):
        with pytest.raises(ValueError):
            LSTMClassifier(rng=RNG)(randn(4, 8))
