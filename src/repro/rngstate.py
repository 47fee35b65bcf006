"""Generators: a position as 37 bytes, and a seed as four words.

``Generator.bit_generator.state`` is a nested dict of two 128-bit integers,
a flag and a buffered half-draw — about 1 KB of Python objects for 37 bytes
of information. Everything that is snapshotted per client (batch stream,
speed trace, dropout masks, quantisation noise) keeps a generator, so this
pair is the one form those snapshots store it in: ``state`` and ``inc`` as
16 little-endian bytes each, ``has_uint32`` as one, ``uinteger`` as four.

Only PCG64 — what ``np.random.default_rng`` builds — has that layout; any
other bit generator raises ``TypeError`` instead of being stored wrongly.

The rest builds per-client generators in bulk: :func:`seed_states` derives
many ``SeedSequence``s' seed words in one vectorised pass, :func:`generator`
builds ``Generator(PCG64(words))`` from them (``repro.scale`` checks both).
"""

from __future__ import annotations

import struct
from itertools import accumulate, zip_longest
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RNG_STATE_BYTES", "rng_state_bytes", "set_rng_state", "entropy_words", "cid_rows",
           "seed_states", "generator", "first_outputs"]

RNG_STATE_BYTES = 37
_LAYOUT = struct.Struct("<16s16sBI")
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _pcg64(rng: np.random.Generator) -> np.random.PCG64:
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise TypeError(
            f"only PCG64 generator state can be captured, not "
            f"{type(bit_generator).__name__}"
        )
    return bit_generator


def rng_state_bytes(rng: np.random.Generator) -> bytes:
    """The exact stream position of ``rng``."""
    state = _pcg64(rng).state
    inner = state["state"]
    raw = inner["state"].to_bytes(16, "little"), inner["inc"].to_bytes(16, "little")
    return _LAYOUT.pack(*raw, state["has_uint32"], state["uinteger"])


def set_rng_state(rng: np.random.Generator, blob: bytes) -> None:
    """Inverse of :func:`rng_state_bytes`."""
    bit_generator = _pcg64(rng)
    if not isinstance(blob, bytes) or len(blob) != RNG_STATE_BYTES:
        raise ValueError(
            f"generator state must be {RNG_STATE_BYTES} bytes, got {blob!r:.40}"
        )
    packed = int.from_bytes(blob, "little")
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": packed & _MASK128, "inc": packed >> 128 & _MASK128},
        "has_uint32": packed >> 256 & 0xFF,
        "uinteger": packed >> 264,
    }


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx). The k-th
# hashmix call xors with _HASH_A[k] and multiplies by _HASH_A[k + 1] whatever
# the data, so the constant chains are precomputed (for up to 64-word rows).
_MASK32 = 0xFFFFFFFF


def _chain(init: int, mult: int, n: int) -> np.ndarray:
    chain = accumulate(range(n), lambda h, _: h * mult & _MASK32, initial=init)
    return np.array(list(chain), dtype=np.uint32)[:, None]


_HASH_A = _chain(0x43B0D7E5, 0x931E8875, 256)
_HASH_B = _chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = [np.array([d for d in range(4) if d != s]) for s in range(4)]
#: PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(value: np.ndarray, k: int, n: int) -> np.ndarray:
    """Hashmix calls ``k … k+n-1``, one per row of the ``(n, m)`` result."""
    value = (value ^ _HASH_A[k : k + n]) * _HASH_A[k + 1 : k + 1 + n]
    return value ^ (value >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _uint32_words(values: "int | Sequence[int]") -> list[int]:
    values = [values] if isinstance(values, (int, np.integer)) else values
    if min(values, default=0) < 0:
        raise ValueError("seed entropy must be non-negative")
    return [v >> s & _MASK32 for v in map(int, values) for s in range(0, v.bit_length() or 1, 32)]


def entropy_words(entropy: "int | Sequence[int]", spawn_key: Sequence[int] = ()) -> list[int]:
    """The uint32 words ``SeedSequence(entropy, spawn_key=...)`` hashes."""
    run = _uint32_words(entropy)
    if not spawn_key:
        return run
    return run + [0] * (4 - len(run)) + _uint32_words(spawn_key)  # NumPy pads to 4 here


def cid_rows(prefix: Sequence[int], cids: np.ndarray, suffix: Sequence[int] = ()):
    """The entropy rows ``prefix + words(cid) + suffix`` of ``cids``: a uint32
    array when every cid is one word, else a list of rows (:func:`seed_states`)."""
    cids = np.asarray(cids, dtype=np.int64)
    if cids.size and int(cids.max()) > _MASK32:
        return [[*prefix, *_uint32_words(cid), *suffix] for cid in cids.tolist()]
    prefix, suffix = (np.tile(np.asarray(w, np.int64), (len(cids), 1)) for w in (prefix, suffix))
    return np.hstack((prefix, cids[:, None], suffix)).astype(np.uint32)


def seed_states(rows: "np.ndarray | Sequence[Sequence[int]]") -> np.ndarray:
    """``SeedSequence``'s ``generate_state(4, np.uint64)`` for every row of
    :func:`entropy_words`, as one ``(len(rows), 4)`` array. A ``(n, w)``
    uint32 array is one vectorised pass; so is a list of rows that all have
    at most four words or the same length (a row of fewer than four hashes
    like its zero-padded form) — else one pass per length."""
    if isinstance(rows, np.ndarray):
        width, entropy = rows.shape[1], rows.T.astype(np.uint32)
    else:
        width = max(map(len, rows), default=0)
        if width > 4 and min(map(len, rows)) != width:
            out = np.empty((len(rows), 4), dtype=np.uint64)
            for length in sorted({max(4, len(row)) for row in rows}):
                index = [i for i, row in enumerate(rows) if max(4, len(row)) == length]
                out[index] = seed_states([rows[i] for i in index])
            return out
        entropy = np.array(list(zip_longest(*rows, fillvalue=0)), dtype=np.uint32)
        entropy = entropy.reshape(width, len(rows))
    if width > 64:
        raise ValueError("seed entropy longer than 64 words")
    if width < 4:
        entropy = np.concatenate((entropy, np.zeros((4 - width, entropy.shape[1]), np.uint32)))
    pool = _hashmix(entropy[:4], 0, 4)
    k = 4
    for src in range(4):
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], k, 3))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, k, 4))
        k += 4
    state = (np.concatenate((pool, pool)) ^ _HASH_B[:8]) * _HASH_B[1:]
    state ^= state >> _SHIFT
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed whose PCG64 state words are already derived."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("derived seed words only seed PCG64")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """``default_rng`` of the ``SeedSequence`` whose :func:`seed_states` row is ``words``."""
    return np.random.Generator(np.random.PCG64(_Words(words)))


def first_outputs(states: np.ndarray) -> list[int]:
    """``generator(words).bit_generator.random_raw()`` per row of ``states``:
    PCG64's seeding (step, ``+= seed``, step), a step and its XSL-RR output."""
    out = []
    for high, low, inc_high, inc_low in states.tolist():
        inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
        state = (inc + (high << 64 | low)) * _PCG_MULT + inc
        state = (state * _PCG_MULT + inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        out.append((word >> rot | word << (64 - rot)) & _MASK64)
    return out
