"""Model checkpointing: save/load parameters and buffers as ``.npz``.

The federated simulator is in-process, but users reproducing long runs want
to checkpoint the global model between experiment phases (e.g. advance a
FedAvg environment to round 200, save, then probe curves offline).
Parameters and buffers share one archive, disambiguated by a prefix, so a
checkpoint is a single file per model.

Besides the ``.npz`` codec this module ships the *arena* codec used by the
shared-memory IPC transport (:mod:`repro.runtime.transport`): a state dict
is laid out into any writable buffer as a versioned header + per-layer
offset table + 64-byte-aligned raw array payload, so readers in other
processes can map the arrays zero-copy instead of unpickling them. The
header is a JSON skeleton (mirroring the ``.npz`` archive's name/dtype/
shape bookkeeping) and preserves dict insertion order, which the broadcast
determinism guarantee relies on.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .module import Module

__all__ = [
    "CheckpointFormatError",
    "save_model",
    "load_model",
    "packed_state_nbytes",
    "pack_state",
    "unpack_state",
    "arena_entries",
    "ARENA_MAGIC",
    "ARENA_VERSION",
]

_PARAM_PREFIX = "param::"
_BUFFER_PREFIX = "buffer::"

#: Arena block framing: magic(8) + version(u32) + header_len(u32).
ARENA_MAGIC = b"RPRARENA"
ARENA_VERSION = 1
_ARENA_PREAMBLE = struct.Struct("<8sII")
_ARENA_ALIGN = 64


def _align_up(n: int, align: int = _ARENA_ALIGN) -> int:
    return (n + align - 1) & ~(align - 1)


class CheckpointFormatError(ValueError):
    """A checkpoint does not match the target model (missing/extra layers,
    shape or dtype mismatch) or is structurally invalid.

    Subclasses :class:`ValueError` so legacy ``except ValueError`` callers
    keep working; the run-persistence subsystem (:mod:`repro.persist`)
    re-exports it as the base of its typed error hierarchy.
    """


def _validate_arrays(
    kind: str,
    expected: dict[str, np.ndarray],
    loaded: dict[str, np.ndarray],
) -> None:
    """Reject any name/shape/dtype divergence before touching model state.

    ``np.savez`` round-trips preserve dtype, but checkpoints written by
    other tools (or edited archives) may not — and ``load_state_dict``
    would silently cast them to float32, or numpy would raise an opaque
    broadcast error on a shape mismatch. Fail loudly and typed instead.
    """
    missing = expected.keys() - loaded.keys()
    extra = loaded.keys() - expected.keys()
    if missing or extra:
        raise CheckpointFormatError(
            f"{kind} mismatch: missing={sorted(missing)} extra={sorted(extra)}"
        )
    for name, ref in expected.items():
        arr = loaded[name]
        if arr.shape != ref.shape:
            raise CheckpointFormatError(
                f"{kind} {name!r}: checkpoint shape {arr.shape} does not "
                f"match model shape {ref.shape}"
            )
        if arr.dtype != ref.dtype:
            raise CheckpointFormatError(
                f"{kind} {name!r}: checkpoint dtype {arr.dtype} does not "
                f"match model dtype {ref.dtype} (refusing a silent cast)"
            )


def save_model(model: Module, path: str | Path) -> None:
    """Write the model's parameters and buffers to ``path`` (.npz)."""
    arrays: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[_PARAM_PREFIX + name] = value
    for name, value in model.buffer_dict().items():
        arrays[_BUFFER_PREFIX + name] = value
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(model: Module, path: str | Path) -> None:
    """Load a checkpoint written by :func:`save_model` into ``model``.

    The checkpoint must match the model exactly (same layers, same shapes,
    same dtypes); a partial or silently-cast load would corrupt federated
    state. Any divergence raises :class:`CheckpointFormatError`.
    """
    with np.load(path) as archive:
        params = {
            name[len(_PARAM_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_PARAM_PREFIX)
        }
        buffers = {
            name[len(_BUFFER_PREFIX):]: archive[name]
            for name in archive.files
            if name.startswith(_BUFFER_PREFIX)
        }
    _validate_arrays(
        "parameter", {n: p.data for n, p in model.named_parameters()}, params
    )
    model.load_state_dict(params)
    if buffers or model.buffer_dict():
        _validate_arrays("buffer", dict(model.named_buffers()), buffers)
        model.load_buffer_dict(buffers)


# ----------------------------------------------------------------------
# Arena codec (zero-copy shared-memory layout).
#
# Block layout, all offsets relative to the block start:
#
#   [magic 8B][version u32][header_len u32][header JSON]
#   ...padding to 64B...
#   [array 0, 64B-aligned][array 1, 64B-aligned]...
#
# The header is ``[[name, dtype_str, shape, offset, nbytes], ...]`` in the
# state dict's insertion order; each ``offset`` points at that array's
# payload within the block.
# ----------------------------------------------------------------------


def _arena_plan(
    state: dict[str, np.ndarray],
) -> tuple[bytes, list[tuple[str, np.dtype, tuple[int, ...], int, int]], int]:
    """Compute the header bytes, per-array placements and total block size."""
    entries = []
    for name, arr in state.items():
        arr = np.asarray(arr)
        entries.append((name, arr.dtype, arr.shape, int(arr.nbytes)))
    # Two passes: header length depends on the offsets, but offsets only
    # depend on the header length. Compute with zeroed offsets first, then
    # pad the header field to a stable length so the real offsets fit.
    skeleton = [
        [name, dtype.str, list(shape), 0, nbytes]
        for name, dtype, shape, nbytes in entries
    ]
    header_guess = json.dumps(skeleton).encode()
    # Offsets are rendered as plain ints; reserve room for them growing the
    # JSON (12 digits covers terabyte-scale arenas).
    header_len = len(header_guess) + 12 * len(entries)
    cursor = _align_up(_ARENA_PREAMBLE.size + header_len)
    placed = []
    for name, dtype, shape, nbytes in entries:
        placed.append((name, dtype, shape, cursor, nbytes))
        cursor = _align_up(cursor + nbytes)
    header = json.dumps(
        [[n, d.str, list(s), off, nb] for n, d, s, off, nb in placed]
    ).encode()
    header = header.ljust(header_len, b" ")
    return header, placed, cursor


def packed_state_nbytes(state: dict[str, np.ndarray]) -> int:
    """Total bytes :func:`pack_state` writes for ``state`` (header included)."""
    _, _, total = _arena_plan(state)
    return total


def pack_state(
    buf, state: dict[str, np.ndarray], offset: int = 0
) -> int:
    """Write ``state`` into ``buf`` (any writable buffer) at ``offset``.

    Returns the number of bytes written. One memcpy per array — no
    serialization; readers in other processes recover the arrays with
    :func:`unpack_state`, zero-copy if they want to.
    """
    header, placed, total = _arena_plan(state)
    mv = memoryview(buf)
    if offset + total > len(mv):
        raise ValueError(
            f"state needs {total} bytes at offset {offset}, "
            f"buffer holds {len(mv)}"
        )
    _ARENA_PREAMBLE.pack_into(mv, offset, ARENA_MAGIC, ARENA_VERSION, len(header))
    mv[offset + _ARENA_PREAMBLE.size : offset + _ARENA_PREAMBLE.size + len(header)] = (
        header
    )
    for name, dtype, shape, aoff, nbytes in placed:
        if nbytes == 0:
            continue
        dst = np.ndarray(shape, dtype=dtype, buffer=mv, offset=offset + aoff)
        np.copyto(dst, np.asarray(state[name]))
        del dst  # release the exported buffer so the arena can be unmapped
    return total


def arena_entries(
    buf, offset: int = 0
) -> list[tuple[str, str, tuple[int, ...], int, int]]:
    """Parse just the header of a :func:`pack_state` block.

    Returns ``[(name, dtype_str, shape, payload_offset, nbytes), ...]``
    in packed (insertion) order, with ``payload_offset`` absolute within
    ``buf``. No array payload is touched — this is how the sharded
    aggregation engine validates key sets and locates flat parameter
    slices without copying a single tensor.
    """
    mv = memoryview(buf)
    try:
        magic, version, header_len = _ARENA_PREAMBLE.unpack_from(mv, offset)
    except struct.error as exc:
        raise CheckpointFormatError(f"truncated arena block: {exc}") from exc
    if magic != ARENA_MAGIC:
        raise CheckpointFormatError(
            f"bad arena magic {magic!r} (expected {ARENA_MAGIC!r})"
        )
    if version != ARENA_VERSION:
        raise CheckpointFormatError(
            f"arena version {version} not supported (expected {ARENA_VERSION})"
        )
    hstart = offset + _ARENA_PREAMBLE.size
    try:
        raw = json.loads(bytes(mv[hstart : hstart + header_len]))
    except ValueError as exc:
        raise CheckpointFormatError(f"corrupt arena header: {exc}") from exc
    entries = []
    for name, dtype_str, shape, aoff, nbytes in raw:
        if offset + aoff + nbytes > len(mv):
            raise CheckpointFormatError(
                f"truncated arena block: array {name!r} needs "
                f"{nbytes} bytes at offset {offset + aoff}, buffer holds {len(mv)}"
            )
        entries.append((name, dtype_str, tuple(shape), offset + aoff, nbytes))
    return entries


def unpack_state(
    buf, offset: int = 0, *, copy: bool = True
) -> dict[str, np.ndarray]:
    """Read a :func:`pack_state` block from ``buf`` at ``offset``.

    With ``copy=False`` the returned arrays are read-only views into
    ``buf`` — zero-copy, but only valid while the underlying mapping is
    alive and until the writer reuses the block. ``copy=True`` (default)
    detaches them.
    """
    mv = memoryview(buf)
    state: dict[str, np.ndarray] = {}
    for name, dtype_str, shape, aoff, _ in arena_entries(buf, offset):
        arr = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=mv, offset=aoff)
        if copy:
            state[name] = arr.copy()
            del arr
        else:
            arr.flags.writeable = False
            state[name] = arr
    return state
