"""Tests for the quantization / sparsification communication baselines."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compression import (
    QuantizationCodec,
    ResidualStore,
    SparseTensor,
    TopKCodec,
    densify,
    dequantize,
    quantize,
    quantized_nbytes,
    sparse_nbytes,
    top_k_sparsify,
)


class TestQuantization:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 20)).astype(np.float32)
        q = quantize(x, bits=8, rng=rng)
        err = np.abs(dequantize(q) - x)
        # Stochastic rounding error per element <= one level width.
        level_width = q.scale / 127
        assert err.max() <= level_width + 1e-6

    def test_unbiasedness(self):
        rng = np.random.default_rng(1)
        x = np.full(2000, 0.37, dtype=np.float32)
        est = np.mean(
            [dequantize(quantize(x, bits=4, rng=rng)).mean() for _ in range(50)]
        )
        assert abs(est - 0.37) < 0.01

    def test_zero_tensor(self):
        q = quantize(np.zeros(10), bits=8, rng=np.random.default_rng(0))
        assert q.scale == 0.0
        np.testing.assert_array_equal(dequantize(q), np.zeros(10, np.float32))

    def test_shape_preserved(self):
        x = np.random.default_rng(2).normal(size=(3, 4, 5)).astype(np.float32)
        q = quantize(x, bits=8, rng=np.random.default_rng(0))
        assert dequantize(q).shape == (3, 4, 5)

    def test_nbytes_formula(self):
        assert quantized_nbytes(8, 8) == 8 + 4
        assert quantized_nbytes(10, 4) == 5 + 4
        assert quantized_nbytes(0, 8) == 4

    def test_fewer_bits_smaller(self):
        assert quantized_nbytes(1000, 4) < quantized_nbytes(1000, 8)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            quantize(np.ones(3), bits=1)
        with pytest.raises(ValueError):
            quantized_nbytes(10, 32)

    @given(
        hnp.arrays(
            np.float32, st.integers(1, 64),
            elements=st.floats(-100, 100, width=32),
        ),
        st.integers(min_value=2, max_value=12),
    )
    @settings(max_examples=30, deadline=None)
    def test_levels_within_range(self, x, bits):
        q = quantize(x, bits=bits, rng=np.random.default_rng(0))
        limit = (1 << (bits - 1)) - 1
        assert np.all(np.abs(q.levels.astype(int)) <= limit)


class TestSparsification:
    def test_exact_decomposition(self):
        x = np.array([3.0, -5.0, 1.0, 0.5], dtype=np.float32)
        sparse, residual = top_k_sparsify(x, 2)
        np.testing.assert_allclose(densify(sparse) + residual, x)

    def test_keeps_largest_magnitudes(self):
        x = np.array([3.0, -5.0, 1.0, 0.5], dtype=np.float32)
        sparse, _ = top_k_sparsify(x, 2)
        assert set(sparse.indices.tolist()) == {0, 1}

    def test_k_zero(self):
        x = np.ones(4, dtype=np.float32)
        sparse, residual = top_k_sparsify(x, 0)
        assert sparse.indices.size == 0
        np.testing.assert_array_equal(residual, x)

    def test_k_larger_than_size(self):
        x = np.ones(3, dtype=np.float32)
        sparse, residual = top_k_sparsify(x, 10)
        assert sparse.indices.size == 3
        np.testing.assert_array_equal(residual, 0.0)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            top_k_sparsify(np.ones(3), -1)

    def test_nbytes(self):
        assert sparse_nbytes(10) == 80

    def test_multidim(self):
        x = np.random.default_rng(3).normal(size=(4, 5)).astype(np.float32)
        sparse, residual = top_k_sparsify(x, 7)
        assert densify(sparse).shape == (4, 5)
        np.testing.assert_allclose(densify(sparse) + residual, x, rtol=1e-6)

    @given(
        hnp.arrays(
            np.float32, st.integers(1, 50),
            elements=st.floats(-10, 10, width=32),
        ),
        st.integers(min_value=0, max_value=60),
    )
    @settings(max_examples=30, deadline=None)
    def test_decomposition_property(self, x, k):
        sparse, residual = top_k_sparsify(x, k)
        np.testing.assert_allclose(
            densify(sparse) + residual, x, rtol=1e-5, atol=1e-6
        )


class TestResidualStore:
    def test_accumulates_dropped_mass(self):
        store = ResidualStore()
        upd = np.array([1.0, 0.1], dtype=np.float32)
        corrected = store.add("w", upd)
        sparse, residual = top_k_sparsify(corrected, 1)
        store.set("w", residual)
        # Next round the dropped 0.1 comes back.
        corrected2 = store.add("w", np.zeros(2, dtype=np.float32))
        np.testing.assert_allclose(corrected2, [0.0, 0.1])

    def test_shape_mismatch(self):
        store = ResidualStore()
        store.set("w", np.zeros(3, np.float32))
        with pytest.raises(ValueError):
            store.add("w", np.zeros(4, np.float32))


class TestCodecs:
    def _update(self):
        rng = np.random.default_rng(4)
        return {
            "a": rng.normal(size=(10, 10)).astype(np.float32),
            "b": rng.normal(size=(5,)).astype(np.float32),
        }

    def test_quantization_codec_compresses(self):
        upd = self._update()
        received, nbytes = QuantizationCodec(bits=4, seed=0).encode(upd)
        assert nbytes < (100 + 5) * 4
        assert set(received) == set(upd)
        # Lossy but correlated.
        corr = np.corrcoef(received["a"].ravel(), upd["a"].ravel())[0, 1]
        assert corr > 0.9

    def test_topk_codec_compresses_and_feeds_back(self):
        upd = self._update()
        codec = TopKCodec(fraction=0.1)
        received, nbytes = codec.encode(upd)
        assert nbytes < (100 + 5) * 4
        # Second round with zero update should emit leftover residual mass.
        received2, _ = codec.encode({k: np.zeros_like(v) for k, v in upd.items()})
        assert np.abs(received2["a"]).sum() > 0

    def test_topk_fraction_validation(self):
        with pytest.raises(ValueError):
            TopKCodec(fraction=0.0)


def _fedavg_over(wire_spec, opt):
    """FedAvg whose uploads pass through the given wire format."""
    from repro.algorithms import FedAvg
    from repro.runtime import parse_wire_spec

    strategy = FedAvg(opt)
    strategy.set_wire(parse_wire_spec(wire_spec))
    return strategy


class TestFedAvgOverLossyWire:
    def test_quantized_strategy_learns_and_saves_bytes(self):
        from repro.algorithms import OptimizerSpec
        from repro.data import dirichlet_partition, make_workload_data
        from repro.nn import LeNetCNN
        from repro.runtime import FederatedSimulator

        train, test = make_workload_data("cnn", num_samples=400, seed=3)
        parts = dirichlet_partition(train, 4, alpha=0.5, seed=4, min_samples=8)
        shards = [train.subset(p) for p in parts]

        def sim_for(strategy):
            return FederatedSimulator(
                model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
                strategy=strategy,
                shards=shards,
                test_set=test,
                base_iteration_times=[0.01] * 4,
                batch_size=8,
                local_iterations=8,
                dynamic=False,
                seed=1,
            )

        opt = OptimizerSpec(lr=0.05, weight_decay=0.01)
        plain = sim_for(_fedavg_over("raw", opt)).run(10)
        quant = sim_for(_fedavg_over("quant8", opt)).run(10)
        # Quantization noise slows convergence but must not break it.
        assert quant.best_accuracy() > 0.15
        assert quant.best_accuracy() > plain.best_accuracy() - 0.3
        # And it must actually shrink the wire traffic (~4x at 8 bits).
        assert quant.records[-1].total_bytes <= plain.records[-1].total_bytes * 0.3

    def test_topk_strategy_round_bytes(self):
        from repro.algorithms import OptimizerSpec
        from repro.data import dirichlet_partition, make_workload_data
        from repro.nn import LeNetCNN
        from repro.runtime import FederatedSimulator

        train, test = make_workload_data("cnn", num_samples=300, seed=3)
        parts = dirichlet_partition(train, 3, alpha=1.0, seed=4, min_samples=8)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=_fedavg_over("topk:0.05", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01] * 3,
            batch_size=8,
            local_iterations=5,
            dynamic=False,
            seed=1,
        )
        rec = sim.run_round()
        full_bytes = sim.clients[0].model_bytes * 3
        assert rec.total_bytes < full_bytes * 0.5


class TestSparseEncode:
    def _update(self):
        rng = np.random.default_rng(12)
        return {"w": rng.normal(size=(6, 8)).astype(np.float32)}

    def test_encode_is_densified_encode_sparse(self):
        upd = self._update()
        dense_codec = TopKCodec(fraction=0.25)
        sparse_codec = TopKCodec(fraction=0.25)
        for _ in range(3):  # residual feedback must evolve identically
            received, nbytes = dense_codec.encode(upd)
            sparse, sp_nbytes = sparse_codec.encode_sparse(upd)
            assert nbytes == sp_nbytes
            for name, tensor in sparse.items():
                assert isinstance(tensor, SparseTensor)
                np.testing.assert_array_equal(densify(tensor), received[name])

    def test_sparse_payload_is_actually_sparse(self):
        upd = self._update()
        sparse, nbytes = TopKCodec(fraction=0.25).encode_sparse(upd)
        k = max(1, int(round(0.25 * 48)))
        assert sparse["w"].values.size == k
        assert sparse["w"].indices.size == k
        assert nbytes == sparse_nbytes(k)
