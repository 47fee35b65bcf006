"""Model checkpointing: save/load parameters and buffers as ``.npz``.

The federated simulator is in-process, but users reproducing long runs want
to checkpoint the global model between experiment phases (e.g. advance a
FedAvg environment to round 200, save, then probe curves offline).
Parameters and buffers share one archive, disambiguated by a prefix, so a
checkpoint is a single file per model.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .module import Module

__all__ = [
    "CheckpointFormatError",
    "save_model",
    "load_model",
]

_PARAM_PREFIX = "param::"
_BUFFER_PREFIX = "buffer::"


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
