"""Tests for model checkpointing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    CheckpointFormatError,
    LeNetCNN,
    WideResNet,
    load_model,
    save_model,
)


class TestSaveLoad:
    def test_roundtrip_cnn(self, tmp_path):
        a = LeNetCNN(rng=np.random.default_rng(1))
        b = LeNetCNN(rng=np.random.default_rng(2))
        path = tmp_path / "cnn.npz"
        save_model(a, path)
        load_model(b, path)
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_roundtrip_wrn_with_buffers(self, tmp_path):
        a = WideResNet(rng=np.random.default_rng(1))
        # Populate BN running stats so the checkpoint carries real state.
        x = np.random.default_rng(0).normal(size=(4, 3, 12, 12)).astype(np.float32)
        a(x)
        b = WideResNet(rng=np.random.default_rng(2))
        path = tmp_path / "wrn.npz"
        save_model(a, path)
        load_model(b, path)
        for (na, ba), (nb, bb) in zip(a.named_buffers(), b.named_buffers()):
            assert na == nb
            np.testing.assert_array_equal(ba, bb)

    def test_architecture_mismatch_rejected(self, tmp_path):
        a = LeNetCNN(rng=np.random.default_rng(1))
        b = LeNetCNN(fc_sizes=(32, 16), rng=np.random.default_rng(2))
        path = tmp_path / "cnn.npz"
        save_model(a, path)
        with pytest.raises((KeyError, ValueError)):
            load_model(b, path)

    def test_simulator_global_state_checkpoint(self, tmp_path):
        from repro.algorithms import OptimizerSpec, build_strategy
        from repro.data import dirichlet_partition, make_workload_data
        from repro.runtime import FederatedSimulator

        train, test = make_workload_data("cnn", num_samples=300, seed=0)
        parts = dirichlet_partition(train, 3, alpha=1.0, seed=1, min_samples=8)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01] * 3,
            batch_size=8,
            local_iterations=4,
            seed=0,
        )
        sim.run(2)
        from repro.nn.layout import Layout

        # The refined global model is one flat vector behind a dict of
        # views; it round-trips through its layout and through .npz.
        layout = Layout.of_arrays(sim.global_state)
        flat = layout.flatten(sim.global_state)
        restored = layout.views(flat)
        for k in sim.global_state:
            np.testing.assert_array_equal(restored[k], sim.global_state[k])
        model = LeNetCNN(rng=np.random.default_rng(3))
        model.load_state_dict(restored)
        save_model(model, tmp_path / "global.npz")
        fresh = LeNetCNN(rng=np.random.default_rng(4))
        load_model(fresh, tmp_path / "global.npz")
        assert np.array_equal(fresh.arena().values, flat)


class TestLoadValidation:
    """A checkpoint that diverges from the target model must raise a typed
    CheckpointFormatError — never a numpy broadcast error, never a silent
    dtype cast (which would corrupt federated aggregation)."""

    @staticmethod
    def _edited_checkpoint(tmp_path, mutate):
        """Save a LeNet, rewrite the archive through `mutate`, return path."""
        model = LeNetCNN(rng=np.random.default_rng(1))
        path = tmp_path / "cnn.npz"
        save_model(model, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        mutate(arrays)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return model, path

    def test_dtype_mismatch_raises_typed_error(self, tmp_path):
        def to_float64(arrays):
            name = next(iter(arrays))
            arrays[name] = arrays[name].astype(np.float64)

        model, path = self._edited_checkpoint(tmp_path, to_float64)
        fresh = LeNetCNN(rng=np.random.default_rng(2))
        with pytest.raises(CheckpointFormatError, match="dtype"):
            load_model(fresh, path)

    def test_shape_mismatch_raises_typed_error(self, tmp_path):
        def reshape_flat(arrays):
            name = next(n for n in arrays if arrays[n].ndim > 1)
            arrays[name] = arrays[name].reshape(-1)

        model, path = self._edited_checkpoint(tmp_path, reshape_flat)
        fresh = LeNetCNN(rng=np.random.default_rng(2))
        with pytest.raises(CheckpointFormatError, match="shape"):
            load_model(fresh, path)

    def test_missing_layer_raises_typed_error(self, tmp_path):
        def drop_one(arrays):
            arrays.pop(next(iter(arrays)))

        model, path = self._edited_checkpoint(tmp_path, drop_one)
        fresh = LeNetCNN(rng=np.random.default_rng(2))
        with pytest.raises(CheckpointFormatError, match="missing"):
            load_model(fresh, path)

    def test_rejected_load_leaves_model_untouched(self, tmp_path):
        def to_float64(arrays):
            for name in arrays:
                arrays[name] = arrays[name].astype(np.float64)

        _, path = self._edited_checkpoint(tmp_path, to_float64)
        fresh = LeNetCNN(rng=np.random.default_rng(2))
        before = {n: p.data.copy() for n, p in fresh.named_parameters()}
        with pytest.raises(CheckpointFormatError):
            load_model(fresh, path)
        for name, param in fresh.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_error_is_a_value_error(self):
        # Legacy callers catch ValueError; the typed subclass keeps working.
        assert issubclass(CheckpointFormatError, ValueError)


class TestArenaCodec:
    """The flat layout behind every model arena and the shared-memory
    transport: ``views`` and ``flatten`` invert each other, and a broadcast
    arena with a damaged or stale header is refused."""

    @staticmethod
    def sample_state():
        return {
            "conv.weight": np.arange(24, dtype=np.float32).reshape(2, 3, 2, 2),
            "conv.bias": np.zeros(2, dtype=np.float32),
            "scalar": np.float32(3.5).reshape(()),
            "empty": np.empty((0, 4), dtype=np.float32),
            "tail": np.arange(5, dtype=np.float32),
        }

    def test_roundtrip_copy(self):
        from repro.nn.layout import Layout

        state = self.sample_state()
        layout = Layout.of_arrays(state)
        assert layout.size == 24 + 2 + 1 + 0 + 5
        flat = layout.flatten(state)
        back = layout.views(flat.copy())
        assert list(back) == list(state)  # insertion order preserved
        for name in state:
            np.testing.assert_array_equal(back[name], state[name])
            assert back[name].shape == state[name].shape
            assert back[name].dtype == np.float32

    def test_zero_copy_views_are_read_only(self):
        from repro.nn.layout import Layout

        state = self.sample_state()
        layout = Layout.of_arrays(state)
        flat = layout.flatten(state)
        flat.flags.writeable = False
        views = layout.views(flat)
        for name, arr in views.items():
            assert np.shares_memory(arr, flat) or arr.size == 0
            if arr.size:
                with pytest.raises(ValueError):
                    arr[...] = 0
        # The views alias the vector: rewriting it changes what they see.
        flat.flags.writeable = True
        flat += 1
        np.testing.assert_array_equal(views["conv.weight"], state["conv.weight"] + 1)

    def test_pack_at_offset(self):
        from repro.nn.layout import Layout

        state = self.sample_state()
        layout = Layout.of_arrays(state)
        offset = 128
        buf = bytearray(offset + 4 * layout.size)
        flat = np.ndarray((layout.size,), dtype=np.float32, buffer=buf, offset=offset)
        layout.flatten(state, out=flat)
        back = layout.views(flat)
        np.testing.assert_array_equal(back["tail"], state["tail"])
        assert bytes(buf[:offset]) == bytes(offset)  # nothing before the offset
        del flat, back  # release buffer exports before the bytearray dies

    @pytest.mark.skipif(
        not __import__("repro.runtime", fromlist=["shm_available"]).shm_available()[0],
        reason="platform lacks POSIX shared memory",
    )
    def test_truncated_and_corrupt_buffers_rejected(self):
        from repro.nn.layout import Layout
        from repro.runtime import ShmTransport

        state = self.sample_state()
        layout = Layout.of_arrays(state)
        with pytest.raises(ValueError):
            layout.flatten(state, out=np.empty(layout.size - 1, dtype=np.float32))
        bad = dict(state, tail=np.zeros(6, dtype=np.float32))
        with pytest.raises(ValueError, match="shape mismatch for tail"):
            layout.flatten(bad)
        with pytest.raises(KeyError, match="missing=\\['tail'\\]"):
            layout.flatten({k: v for k, v in state.items() if k != "tail"})

        transport = ShmTransport()
        transport.setup(layout, Layout.of(()), [1])
        try:
            params = layout.flatten(state)
            generation = transport.broadcast(params, np.empty(0, np.float32))
            got, buffers = transport.read_broadcast(generation)
            assert buffers.shape == (0,)
            assert not got.flags.writeable
            np.testing.assert_array_equal(got, params)
            np.testing.assert_array_equal(
                layout.views(got)["conv.weight"], state["conv.weight"]
            )
            del got, buffers
            with pytest.raises(RuntimeError, match="generation mismatch"):
                transport.read_broadcast(generation - 1)
            transport._broadcast.buf[:4] = b"XXXX"
            with pytest.raises(RuntimeError, match="corrupt"):
                transport.read_broadcast(generation)
        finally:
            transport.close()

    def test_empty_state(self):
        from repro.nn.layout import Layout

        layout = Layout.of_arrays({})
        assert layout.size == 0
        assert layout.flatten({}).shape == (0,)
        assert layout.views(np.empty(0, dtype=np.float32)) == {}
