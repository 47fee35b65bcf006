"""Run persistence: deterministic checkpoint/resume + content-addressed
result caching.

Two pillars (see DESIGN.md §10):

* :class:`RunCheckpoint` — a versioned, atomically written, SHA-256
  verified snapshot of everything
  :meth:`~repro.runtime.simulator.FederatedSimulator.run_round` depends
  on. A run checkpointed at round N/2 and resumed produces histories and
  JSONL traces **byte-identical** to a run that never stopped, under both
  serial and parallel executors (``tests/test_persist.py``).
* :class:`ResultCache` — content-addressed storage of finished
  ``run_scheme`` results, keyed on the full run configuration, so sweeps
  (``compare_schemes``, ``run_multiseed``) skip already-computed cells.

Under both sits :mod:`repro.persist.snapshot`, the data-only codec that
turns one client's cross-round state into one byte string — the form the
lazy pager parks it in and a checkpoint stores it in.
"""

from .cache import CACHE_SCHEMA_VERSION, ResultCache
from .checkpoint import (
    RunCheckpoint,
    find_latest_checkpoint,
    list_checkpoints,
    save_run_checkpoint,
)
from .container import (
    CHECKPOINT_VERSION,
    pack_tree,
    read_payload,
    unpack_tree,
    write_payload,
)
from .errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointNotFoundError,
    PersistError,
)

__all__ = [
    "RunCheckpoint",
    "ResultCache",
    "save_run_checkpoint",
    "find_latest_checkpoint",
    "list_checkpoints",
    "pack_tree",
    "unpack_tree",
    "write_payload",
    "read_payload",
    "CHECKPOINT_VERSION",
    "CACHE_SCHEMA_VERSION",
    "PersistError",
    "CheckpointFormatError",
    "CheckpointCorruptError",
    "CheckpointNotFoundError",
]
