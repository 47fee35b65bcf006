"""Tests for the flat layout codec and the checkpoint format error."""

from __future__ import annotations

import numpy as np
import pytest

from repro.persist import CheckpointFormatError


class TestLoadValidation:
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
