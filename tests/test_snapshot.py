"""Snapshot codec and generator-state tests (repro.persist.snapshot,
repro.rngstate): generated round trips, the data-only guarantees and the
37-byte PCG64 form (damage to a real client's blob: tests/test_scale.py)."""

from __future__ import annotations

import ast
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import repro.persist
from repro.persist import CheckpointCorruptError
from repro.persist.snapshot import decode, encode
from repro.rngstate import RNG_STATE_BYTES, rng_state_bytes, set_rng_state

from .helpers import same_tree

DTYPES = [np.bool_, np.int8, np.uint16, np.int64, np.float16, np.float32,
          np.float64, np.complex64, np.dtype(">i4"), np.dtype(">f8")]

arrays = st.one_of(
    hnp.arrays(
        dtype=st.sampled_from(DTYPES),
        shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    ),
    # A non-contiguous view: every other column of a 2-D array.
    hnp.arrays(dtype=np.float32, shape=(3, 6)).map(lambda a: a[:, ::2]),
    hnp.arrays(dtype=np.int64, shape=(4, 4)).map(lambda a: a.T),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**130), max_value=2**130),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.binary(max_size=40),
    arrays,
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(tree=trees)
def test_round_trip_over_generated_trees(tree):
    back = decode(encode(tree))
    assert same_tree(back, tree)
    assert encode(back) == encode(tree)


def test_round_trip_edge_cases():
    tree = {
        "wide": [2**128 - 1, -(2**127), 2**63, -(2**63) - 1, 2**63 - 1, -(2**63)],
        "zero_d": np.array(1.5, dtype=np.float16),
        "empty": np.zeros((0, 3), dtype=np.bool_),
        "strided": np.arange(12, dtype=np.float32).reshape(3, 4)[::2, 1::2],
        "kept": {"wire": {"residuals": {"conv1.weight": np.ones((2, 2), np.float32)}}},
        "ключ": {"é": "ü", "": None},
        "tuple": (1, (2.5, b"\x00\xff")),
        "np_scalar": np.int32(7),
    }
    back = decode(encode(tree))
    assert back["wide"] == tree["wide"]
    assert back["zero_d"].shape == () and back["zero_d"].dtype == np.float16
    assert back["empty"].shape == (0, 3) and back["empty"].dtype == np.bool_
    np.testing.assert_array_equal(back["strided"], tree["strided"])
    assert back["strided"].flags.writeable and back["strided"].flags.c_contiguous
    assert list(back["ключ"]) == ["é", ""]
    # What pack_tree does too: tuples come back as lists, numpy scalars native.
    assert back["tuple"] == [1, [2.5, b"\x00\xff"]]
    assert back["np_scalar"] == 7 and type(back["np_scalar"]) is int
    assert same_tree(back["kept"], tree["kept"])


@pytest.mark.parametrize(
    "bad", [object(), {1: "int key"}, {"s": {1, 2}}, np.array(["text"]), 1 + 2j],
    ids=["object", "int-key", "set", "unicode-array", "complex"],
)
def test_encode_refuses_what_is_not_plain_data(bad):
    with pytest.raises(TypeError):
        encode(bad)


def test_object_arrays_are_refused_on_both_sides():
    with pytest.raises(TypeError, match="object"):
        encode({"a": np.array([{"code": 1}], dtype=object)})
    # A hand-forged blob: array tag, dtype code "|O" / "O", one dimension of
    # one element, eight bytes of what would be a pointer.
    for code in (b"|O", b"O", b"|O8"):
        forged = b"a" + bytes((len(code),)) + code + b"\x01" + struct.pack("<Q", 1)
        with pytest.raises(CheckpointCorruptError, match="not plain data"):
            decode(forged + b"\x00" * 8)


def test_deep_nesting_is_corrupt_not_a_recursion_error():
    with pytest.raises(CheckpointCorruptError, match="nests"):
        decode(b"l\x01\x00\x00\x00" * 100_000)


def test_persist_imports_no_code_carrying_serialiser():
    # Source-level guard: a snapshot or a checkpoint holds data, never code.
    package = pathlib.Path(repro.persist.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            for name in names:
                assert name.split(".")[0] not in {"pickle", "marshal", "cPickle", "dill"}, (
                    f"{path.name} imports {name}"
                )
    # ...and the codec depends on nothing in the runtime layer.
    source = (package / "snapshot.py").read_text()
    assert "runtime" not in [
        part
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for part in (node.module or "").split(".")
    ]


class TestRngStateBytes:
    def test_is_37_bytes_and_round_trips_mid_stream(self):
        rng = np.random.default_rng(11)
        rng.integers(0, 100, dtype=np.uint32)  # leaves a buffered half-draw
        blob = rng_state_bytes(rng)
        assert type(blob) is bytes and len(blob) == RNG_STATE_BYTES == 37
        want = rng.random(5)
        other = np.random.default_rng(0)
        set_rng_state(other, blob)
        np.testing.assert_array_equal(other.random(5), want)

    def test_matches_the_dict_form_exactly(self):
        rng = np.random.default_rng(5)
        rng.integers(0, 7, dtype=np.uint32)
        state = rng.bit_generator.state
        other = np.random.default_rng(6)
        set_rng_state(other, rng_state_bytes(rng))
        assert other.bit_generator.state == state

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_raise(self, bit_generator):
        rng = np.random.Generator(bit_generator(1))
        with pytest.raises(TypeError, match="PCG64"):
            rng_state_bytes(rng)
        with pytest.raises(TypeError, match="PCG64"):
            set_rng_state(rng, b"\x00" * RNG_STATE_BYTES)

    @pytest.mark.parametrize("bad", [b"", b"\x00" * 36, "x" * 37, None])
    def test_wrong_size_or_type_raises(self, bad):
        with pytest.raises(ValueError, match="37 bytes"):
            set_rng_state(np.random.default_rng(0), bad)
