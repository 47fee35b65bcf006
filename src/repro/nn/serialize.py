"""The typed error for a checkpoint that does not fit its model."""

from __future__ import annotations

__all__ = ["CheckpointFormatError"]


class CheckpointFormatError(ValueError):
    """A checkpoint does not match the target model (missing/extra layers,
    shape or dtype mismatch) or is structurally invalid.

    Subclasses :class:`ValueError` so legacy ``except ValueError`` callers
    keep working; the run-persistence subsystem (:mod:`repro.persist`)
    re-exports it as the base of its typed error hierarchy.
    """
