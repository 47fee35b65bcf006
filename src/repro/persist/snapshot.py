"""Snapshot codec: a data-only tree as one compact byte string.

Every piece of state at rest goes through it. A client — evicted from the
pager, waiting in a checkpoint, in flight from a worker — is
``encode(client.capture_state())``: a few hundred bytes that nobody
re-expands until that client pages back in. A checkpoint payload is one
tree too, with those client blobs as its ``bytes`` leaves, written part by
part through :func:`encode_to` (see :mod:`repro.persist.container`). The
encoding is a tagged depth-first walk over plain data::

    N | T | F                          None, True, False
    i <int64>   f <float64>            int that fits 64 bits, float
    I <run>                            any other int, signed little-endian
    s <run>     b <run>                str (UTF-8), bytes
    l <u32 n> <n nodes>                list or tuple (decodes as list)
    d <u32 n> <n × (run key, node)>    dict, str keys, insertion order
    a <u8 k> <dtype.str> <u8 ndim> <ndim × u64> <raw C-order bytes>

where a *run* is ``<u32 n> <n bytes>``. It holds data, never code: there is
no ``pickle`` or ``marshal`` behind it, numeric and bool dtypes only (an
object array is refused on both sides), every length is checked against the
buffer before it is used, and trailing bytes or a non-canonical spelling are
errors — so a damaged blob or payload is a
:class:`~repro.persist.errors.CheckpointCorruptError`.
"""

from __future__ import annotations

import functools
import re
import struct
from typing import Any, Callable

import numpy as np

from .errors import CheckpointCorruptError

__all__ = ["encode", "encode_to", "decode"]

_U32 = struct.Struct("<I")
_SCALARS = {b"i": struct.Struct("<q"), b"f": struct.Struct("<d")}
_CONSTANTS = {b"N": None, b"T": True, b"F": False}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
#: bool, signed, unsigned, float, complex: dtypes whose bytes are the value.
_DTYPE_CODE = re.compile(r"[<>|][biufc][0-9]+")
_MAX_NDIM = 32


def _wide_len(value: int) -> int:
    """Bytes the ``I`` form spends on ``value``: the fewest that hold its sign."""
    return value.bit_length() // 8 + 1


def _run(raw: bytes) -> bytes:
    return _U32.pack(len(raw)) + raw


def encode(tree: Any) -> bytes:
    """Serialise ``tree``; raises ``TypeError`` for anything that is not
    plain data (and for non-``str`` dict keys, which would not round-trip)."""
    out: list[bytes] = []
    encode_to(tree, out.append)
    return b"".join(out)


# Every client's snapshot spells the same few keys and array headers, and
# the pager encodes one per eviction: each is built once. (Measured on
# ``lazy_fedavg_obs``, traced: 1.4 ms of a 100-eviction round.)
@functools.lru_cache(maxsize=1024)
def _key_run(key: str) -> bytes:
    return _run(key.encode("utf-8"))


@functools.lru_cache(maxsize=1024)
def _array_header(dtype: np.dtype, shape: tuple[int, ...]) -> bytes:
    code = dtype.str
    if not _DTYPE_CODE.fullmatch(code) or len(shape) > _MAX_NDIM:
        raise TypeError(f"cannot snapshot an array of dtype {dtype}")
    dims = struct.pack(f"<{len(shape)}Q", *shape)
    return b"a" + bytes((len(code),)) + code.encode("ascii") + bytes((len(shape),)) + dims


def encode_to(node: Any, put: Callable[[bytes], None]) -> None:
    """Hand the encoding of ``node`` to ``put`` part by part; the parts
    joined are ``encode(node)``. A writer streams a large tree this way
    without ever holding all of it as one byte string."""
    kind = type(node)
    if kind is dict:
        put(b"d" + _U32.pack(len(node)))
        for key, value in node.items():
            if type(key) is not str:
                raise TypeError(f"snapshot dict keys must be str, got {key!r}")
            put(_key_run(key))
            encode_to(value, put)
    elif kind is bytes:
        put(b"b" + _run(node))
    elif kind is np.ndarray:
        put(_array_header(node.dtype, node.shape))
        put(node.tobytes())
    elif kind is bool:
        put(b"T" if node else b"F")
    elif kind is int:
        if _INT64_MIN <= node <= _INT64_MAX:
            put(b"i" + _SCALARS[b"i"].pack(node))
        else:
            put(b"I" + _run(node.to_bytes(_wide_len(node), "little", signed=True)))
    elif kind is float:
        put(b"f" + _SCALARS[b"f"].pack(node))
    elif kind is str:
        put(b"s" + _run(node.encode("utf-8")))
    elif node is None:
        put(b"N")
    elif kind is list or kind is tuple:
        put(b"l" + _U32.pack(len(node)))
        for item in node:
            encode_to(item, put)
    elif isinstance(node, np.generic):
        encode_to(node.item(), put)
    else:
        raise TypeError(f"cannot snapshot object of type {kind.__name__}")


def decode(buf: bytes) -> Any:
    """Inverse of :func:`encode`. Arrays come back as fresh writable copies
    with their dtype and shape; anything that is not exactly one well-formed
    tree in its one canonical spelling raises :class:`CheckpointCorruptError`."""
    buf = bytes(buf)
    try:
        tree, end = _decode(buf, 0)
    except RecursionError:
        raise CheckpointCorruptError("snapshot nests deeper than any real one")
    except struct.error:
        # A count or a number ran past the end: the walk reads fixed-width
        # fields unchecked and lets ``unpack_from`` do the bounds check.
        raise CheckpointCorruptError(f"snapshot truncated inside its {len(buf)} bytes")
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(f"snapshot text is not UTF-8: {exc}")
    if end != len(buf):
        raise CheckpointCorruptError(f"snapshot has {len(buf) - end} trailing byte(s)")
    return tree


def _take(buf: bytes, pos: int, n: int) -> int:
    """End offset of the ``n`` bytes at ``pos``, checked against the buffer."""
    end = pos + n
    if end > len(buf):
        raise CheckpointCorruptError(
            f"snapshot truncated: {n} byte(s) wanted at offset {pos}, "
            f"{len(buf) - pos} left"
        )
    return end


def _read_run(buf: bytes, pos: int) -> tuple[bytes, int]:
    """``(bytes, next offset)`` of the run at ``pos``."""
    start = pos + 4
    end = _take(buf, start, _U32.unpack_from(buf, pos)[0])
    return buf[start:end], end


def _decode(buf: bytes, pos: int) -> tuple[Any, int]:
    tag = buf[pos : pos + 1]
    pos += 1
    # Leaves first: numbers, text and blobs are most of a checkpoint.
    scalar = _SCALARS.get(tag)
    if scalar is not None:
        return scalar.unpack_from(buf, pos)[0], pos + 8
    if tag in (b"b", b"s", b"I"):
        raw, pos = _read_run(buf, pos)
        if tag == b"b":
            return raw, pos
        if tag == b"s":
            return raw.decode("utf-8"), pos
        value = int.from_bytes(raw, "little", signed=True)
        if _INT64_MIN <= value <= _INT64_MAX or len(raw) != _wide_len(value):
            raise CheckpointCorruptError("snapshot int is not in canonical form")
        return value, pos
    if tag == b"d":
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        out: dict[str, Any] = {}
        for _ in range(count):
            raw, pos = _read_run(buf, pos)
            key = raw.decode("utf-8")
            if key in out:
                raise CheckpointCorruptError(f"snapshot repeats dict key {key!r}")
            out[key], pos = _decode(buf, pos)
        return out, pos
    if tag == b"l":
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _decode(buf, pos)
            items.append(item)
        return items, pos
    if tag == b"a":
        return _decode_array(buf, pos)
    if tag in _CONSTANTS:
        return _CONSTANTS[tag], pos
    if not tag:
        raise CheckpointCorruptError(f"snapshot truncated: no tag at offset {pos - 1}")
    raise CheckpointCorruptError(f"unknown snapshot tag {tag!r} at offset {pos - 1}")


def _decode_array(buf: bytes, pos: int) -> tuple[np.ndarray, int]:
    code_start = _take(buf, pos, 1)
    code_end = _take(buf, code_start, buf[pos])
    ndim_end = _take(buf, code_end, 1)
    code, ndim = buf[code_start:code_end].decode("ascii", "replace"), buf[code_end]
    # Byte order, a plain-data kind, an item size — and only the canonical
    # spelling of it ("|i8" is int64 too); "O" never reaches np.dtype.
    dtype = None
    if _DTYPE_CODE.fullmatch(code):
        try:
            dtype = np.dtype(code)
        except TypeError:
            pass
    if dtype is None or dtype.str != code or ndim > _MAX_NDIM:
        raise CheckpointCorruptError(
            f"snapshot array of dtype {code!r} / {ndim} dims is not plain data"
        )
    data_start = _take(buf, ndim_end, 8 * ndim)
    shape = struct.unpack_from(f"<{ndim}Q", buf, ndim_end)
    count = 1
    for dim in shape:
        count *= dim
    end = _take(buf, data_start, count * dtype.itemsize)
    try:
        array = np.frombuffer(buf, dtype, count, data_start).reshape(shape)
    except ValueError as exc:
        raise CheckpointCorruptError(f"snapshot array shape {shape}: {exc}")
    return array.copy(), end
