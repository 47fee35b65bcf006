"""Typed error hierarchy for the run-persistence subsystem.

The base of the format branch is :class:`CheckpointFormatError` (a
:class:`ValueError`), so callers catch one type for "this checkpoint cannot
be used". Lifecycle misuse (resuming into a simulator that already ran,
checkpointing a degraded pool) raises :class:`PersistError` instead.
"""

from __future__ import annotations

__all__ = [
    "PersistError",
    "CheckpointFormatError",
    "CheckpointCorruptError",
    "CheckpointNotFoundError",
]


class PersistError(RuntimeError):
    """Run-persistence lifecycle misuse (not a format problem)."""


class CheckpointFormatError(ValueError):
    """A checkpoint cannot be used: no or garbled manifest, another
    container version, or a payload that does not fit this run's
    configuration or model."""


class CheckpointCorruptError(CheckpointFormatError):
    """The checkpoint payload failed integrity verification (manifest hash
    or size mismatch, a payload that does not decode, a malformed clients
    section). Raised *before* any state is touched — a corrupt checkpoint
    never produces a partial restore."""


class CheckpointNotFoundError(PersistError, FileNotFoundError):
    """No usable checkpoint at the requested location. The message lists
    any checkpoints that *were* found nearby, so a mistyped ``--resume``
    fails actionably instead of silently starting a fresh run."""
