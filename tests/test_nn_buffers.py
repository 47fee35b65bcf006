"""Tests for non-trainable buffer support (BatchNorm running statistics) and
their federated synchronisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import BatchNorm2d, LeNetCNN, Sequential, WideResNet
from repro.runtime.aggregation import aggregate_buffers
from repro.runtime.round import ClientRoundResult


class TestModuleBuffers:
    def test_batchnorm_registers_buffers(self):
        bn = BatchNorm2d(3)
        names = dict(bn.named_buffers())
        assert set(names) == {"running_mean", "running_var"}

    def test_nested_buffer_names(self):
        model = Sequential(BatchNorm2d(2), BatchNorm2d(2))
        names = {n for n, _ in model.named_buffers()}
        assert names == {
            "0.running_mean", "0.running_var", "1.running_mean", "1.running_var"
        }

    def test_buffer_dict_roundtrip(self):
        a = BatchNorm2d(2)
        a(np.random.default_rng(0).normal(size=(8, 2, 3, 3)).astype(np.float32))
        b = BatchNorm2d(2)
        b.load_buffer_dict(a.buffer_dict())
        np.testing.assert_array_equal(a.running_mean, b.running_mean)
        np.testing.assert_array_equal(a.running_var, b.running_var)

    def test_load_buffer_dict_validates_keys(self):
        bn = BatchNorm2d(2)
        with pytest.raises(KeyError):
            bn.load_buffer_dict({"running_mean": np.zeros(2, np.float32)})

    def test_load_buffer_dict_validates_shape(self):
        bn = BatchNorm2d(2)
        with pytest.raises(ValueError):
            bn.load_buffer_dict(
                {"running_mean": np.zeros(3, np.float32),
                 "running_var": np.ones(2, np.float32)}
            )

    def test_inplace_update_preserves_registration(self):
        bn = BatchNorm2d(2)
        registered = dict(bn.named_buffers())["running_mean"]
        bn(np.random.default_rng(1).normal(size=(4, 2, 3, 3)).astype(np.float32) + 5)
        # Forward must mutate the registered array, not rebind the attribute.
        assert dict(bn.named_buffers())["running_mean"] is registered
        assert not np.allclose(registered, 0.0)

    def test_buffer_free_models_have_empty_dict(self):
        model = LeNetCNN(rng=np.random.default_rng(0))
        assert model.buffer_dict() == {}

    def test_wrn_has_buffers(self):
        model = WideResNet(rng=np.random.default_rng(0))
        assert len(model.buffer_dict()) > 0

    def test_state_dict_excludes_buffers(self):
        model = WideResNet(rng=np.random.default_rng(0))
        state_keys = set(model.state_dict())
        buffer_keys = set(model.buffer_dict())
        assert not state_keys & buffer_keys


class TestBufferAggregation:
    def _result(self, cid, samples, mean_value):
        return ClientRoundResult(
            client_id=cid,
            update={"w": np.zeros(2, np.float32)},
            num_samples=samples,
            iterations_run=1,
            compute_start_time=0.0,
            compute_finish_time=1.0,
            upload_finish_time=2.0,
            bytes_uploaded=8,
            mean_loss=0.0,
            buffers={"bn.running_mean": np.full(2, mean_value, np.float32)},
        )

    def test_weighted_mean(self):
        agg = aggregate_buffers([self._result(0, 30, 1.0), self._result(1, 10, 5.0)])
        np.testing.assert_allclose(agg, 2.0, rtol=1e-6)
        assert agg.shape == (2,) and agg.dtype == np.float32

    def test_empty_buffers_return_empty(self):
        r = self._result(0, 10, 1.0)
        r.buffers = {}
        agg = aggregate_buffers([r])
        assert agg.shape == (0,) and agg.dtype == np.float32

    def test_key_mismatch_raises(self):
        a = self._result(0, 10, 1.0)
        b = self._result(1, 10, 1.0)
        b.buffers = {"other": np.zeros(2, np.float32)}
        with pytest.raises(KeyError):
            aggregate_buffers([a, b])

    def test_no_results_raises(self):
        with pytest.raises(ValueError):
            aggregate_buffers([])


class TestFederatedBufferSync:
    def test_wrn_buffers_propagate_through_rounds(self):
        from repro.algorithms import OptimizerSpec, build_strategy
        from repro.data import dirichlet_partition, make_workload_data
        from repro.nn import build_model
        from repro.runtime import FederatedSimulator

        train, test = make_workload_data("wrn", num_samples=300, seed=0)
        parts = dirichlet_partition(train, 3, alpha=1.0, seed=1, min_samples=8)
        sim = FederatedSimulator(
            model_fn=lambda: build_model("wrn", rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01] * 3,
            batch_size=8,
            local_iterations=4,
            seed=0,
        )
        before = {k: v.copy() for k, v in sim.global_buffers.items()}
        sim.run_round()
        changed = any(
            not np.allclose(before[k], sim.global_buffers[k])
            for k in before
        )
        assert changed, "global BN statistics were not refreshed by the round"
