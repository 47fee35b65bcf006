"""A generator's position as 37 bytes.

``Generator.bit_generator.state`` is a nested dict of two 128-bit integers,
a flag and a buffered half-draw — about 1 KB of Python objects for 37 bytes
of information. Everything that is snapshotted per client (batch stream,
speed trace, dropout masks, quantisation noise) keeps a generator, so this
pair is the one form those snapshots store it in: ``state`` and ``inc`` as
16 little-endian bytes each, ``has_uint32`` as one, ``uinteger`` as four.

Only PCG64 — what ``np.random.default_rng`` builds — has that layout; any
other bit generator raises ``TypeError`` instead of being stored wrongly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RNG_STATE_BYTES", "rng_state_bytes", "set_rng_state"]

RNG_STATE_BYTES = 37
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
    packed = (
        inner["state"]
        | inner["inc"] << 128
        | state["has_uint32"] << 256
        | state["uinteger"] << 264
    )
    return packed.to_bytes(RNG_STATE_BYTES, "little")


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
