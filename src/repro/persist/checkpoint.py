"""Deterministic run checkpoints for :class:`~repro.runtime.simulator.FederatedSimulator`.

A :class:`RunCheckpoint` captures everything ``run_round`` depends on that
evolves across rounds:

* the global model state and buffers (bit-exact arrays),
* the simulated clock and server-side pace estimates,
* the full :class:`~repro.runtime.history.RunHistory`,
* per-client cross-round state — one
  :meth:`SimClient.capture_state <repro.runtime.client.SimClient.capture_state>`
  snapshot per touched client, via the executor's ``capture_run_state``:
  batch-stream RNG/order/cursor, speed-trace RNG and live segments, layer
  RNG, and what the strategy and the wire layer keep on the client (FedCA
  anchor profiles, codec residuals/RNG). Each arrives as one
  :mod:`~repro.persist.snapshot` blob and is written, read and — into a
  lazy population — restored without being decoded,
* the trace recorder's counters, sequence state and sink byte offset.

Everything else the simulator touches is either reconstructed
deterministically from ``(seed, round_index)`` every round (client
selection, dropout, uplink interference) or rebuilt per round from the
global state (client model weights, optimizer state), so it is *not*
stored — see DESIGN.md §10 for the full captured/not-captured table.

Restore is only legal into a **freshly constructed** simulator (same
config, same seed) before any round has run: the parallel executor forks
its workers lazily on the first round, so restoring into the parent
replicas first means the workers inherit the restored state and the
resumed run is bitwise identical to one that never stopped.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..runtime.export import history_from_dict, history_to_dict
from .container import CHECKPOINT_VERSION, manifest_path, read_payload, write_payload
from .errors import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointNotFoundError,
    PersistError,
)
from .snapshot import decode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.simulator import FederatedSimulator

__all__ = [
    "RunCheckpoint",
    "save_run_checkpoint",
    "find_latest_checkpoint",
    "list_checkpoints",
]

_CKPT_RE = re.compile(r"^round-(\d{6})\.ckpt$")

#: Completed checkpoints kept per directory; older pairs are pruned after
#: each successful save so long runs don't accumulate one file pair per
#: checkpoint interval.
KEEP_CHECKPOINTS = 2


def _join_blobs(clients: dict[str, bytes]) -> dict[str, np.ndarray]:
    """Every client blob as three archive members, however many clients:
    their ids, each blob's end offset, and the blobs back to back."""
    return {
        "cids": np.array([int(cid) for cid in clients], dtype=np.int64),
        "ends": np.cumsum([len(blob) for blob in clients.values()], dtype=np.int64),
        "blob": np.frombuffer(b"".join(clients.values()), dtype=np.uint8),
    }


def _split_blobs(section: dict[str, np.ndarray]) -> dict[str, bytes]:
    """Inverse of :func:`_join_blobs`; the slices stay encoded."""
    cids, ends, blob = section["cids"], section["ends"], section["blob"]
    if not (
        (cids.dtype, ends.dtype, blob.dtype) == (np.int64, np.int64, np.uint8)
        and cids.ndim == ends.ndim == blob.ndim == 1
        and cids.shape == ends.shape
    ):
        raise CheckpointCorruptError("client snapshot index is not three flat arrays")
    bounds = [0] + ends.tolist()
    if bounds[-1] != blob.size or any(a > b for a, b in zip(bounds, bounds[1:])):
        raise CheckpointCorruptError("client snapshot index does not match its blobs")
    data = memoryview(blob)
    return {
        str(cid): data[start:end].tobytes()
        for cid, start, end in zip(cids.tolist(), bounds, bounds[1:])
    }


@dataclass
class RunCheckpoint:
    """Complete, restorable snapshot of a simulator between rounds."""

    version: int
    fingerprint: dict[str, Any]
    rounds_completed: int
    sim_time: float
    est_pace: dict[str, float]
    history: dict[str, Any]
    global_state: dict[str, np.ndarray]
    global_buffers: dict[str, np.ndarray]
    clients: dict[str, bytes] = field(default_factory=dict)
    recorder: dict | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _fingerprint(sim: "FederatedSimulator") -> dict[str, Any]:
        """Config identity a checkpoint is only valid against: resuming
        under a different scheme, client population, seed or architecture
        would silently diverge, so it is rejected up front."""
        out: dict[str, Any] = {
            "scheme": sim.strategy.name,
            "num_clients": len(sim.clients),
            "seed": int(sim.seed),
            "local_iterations": int(sim.local_iterations),
            "layers": {
                name: [list(shape), "float32"]
                for name, _, shape in sim.global_model.arena().layout.entries
            },
        }
        # Wire spec joins the fingerprint only when a layer is attached, so
        # a raw run's fingerprint keeps its bytes — while resuming a
        # quant/topk run under any other wire (whose codec state the client
        # snapshots carry) fails loudly.
        wire = getattr(sim.strategy, "wire", None)
        if wire is not None:
            out["wire"] = wire.spec
        return out

    @classmethod
    def from_simulator(cls, sim: "FederatedSimulator") -> "RunCheckpoint":
        """Snapshot ``sim`` between rounds (call only between ``run_round``
        invocations). Pulls per-client state from wherever it actually
        lives — the parallel executor fetches it from its workers."""
        clients = sim.executor.capture_run_state()
        recorder_snapshot = None
        if hasattr(sim.recorder, "snapshot_state"):
            recorder_snapshot = sim.recorder.snapshot_state()
        return cls(
            version=CHECKPOINT_VERSION,
            fingerprint=cls._fingerprint(sim),
            rounds_completed=sim.history.num_rounds,
            sim_time=float(sim.time),
            est_pace={str(cid): float(p) for cid, p in sim.est_pace.items()},
            history=history_to_dict(sim.history),
            global_state=sim.global_state,
            global_buffers=sim.global_buffers,
            clients={str(cid): blob for cid, blob in clients.items()},
            recorder=recorder_snapshot,
        )

    # ------------------------------------------------------------------
    def restore_into(self, sim: "FederatedSimulator") -> None:
        """Load this snapshot into a freshly constructed simulator.

        The simulator must have run zero rounds and its executor must not
        have started worker processes yet (the parallel pool forks on the
        first round — after the fork, parent-side restores no longer reach
        the worker replicas)."""
        if sim.history.num_rounds != 0:
            raise PersistError(
                "checkpoints restore only into a fresh simulator; this one "
                f"already ran {sim.history.num_rounds} round(s)"
            )
        if getattr(sim.executor, "_started", False):
            raise PersistError(
                "cannot restore after the parallel worker pool has forked; "
                "construct a new simulator and restore before the first round"
            )
        expected = self._fingerprint(sim)
        if expected != self.fingerprint:
            diff = [
                key
                for key in sorted(set(expected) | set(self.fingerprint))
                if expected.get(key) != self.fingerprint.get(key)
            ]
            raise CheckpointFormatError(
                "checkpoint does not match this run configuration "
                f"(mismatched: {', '.join(diff)}); resume with the exact "
                "scheme/seed/workload the checkpoint was written from"
            )

        try:
            # The loads check every layer's presence and shape before they
            # write anything; the payload is outside input.
            sim.global_model.load_state_dict(self.global_state)
            sim.global_model.load_buffer_dict(self.global_buffers)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"checkpoint global model does not fit this run's model: {exc}"
            ) from None
        sim.time = float(self.sim_time)
        sim.est_pace = {int(cid): float(p) for cid, p in self.est_pace.items()}
        retain_client_events = sim.history.retain_client_events
        sim.history = history_from_dict(self.history)
        # history_from_dict builds a default-config history; the spill
        # setting is simulator configuration, not checkpointed state.
        sim.history.retain_client_events = retain_client_events
        population = getattr(sim, "population", None)
        if population is not None:
            # Lazy population: stage the blobs without decoding them or
            # materialising the clients; each is applied when (and if) its
            # client pages in.
            for cid, blob in self.clients.items():
                population.restore_client_state(int(cid), blob)
        else:
            for cid, blob in self.clients.items():
                sim.clients[int(cid)].restore_state(decode(blob))

    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Atomically write this checkpoint (payload + manifest pair)."""
        write_payload(
            path,
            {
                "version": self.version,
                "fingerprint": self.fingerprint,
                "rounds_completed": self.rounds_completed,
                "sim_time": self.sim_time,
                "est_pace": self.est_pace,
                "history": self.history,
                "global_state": self.global_state,
                "global_buffers": self.global_buffers,
                "clients": _join_blobs(self.clients),
                "recorder": self.recorder,
            },
        )

    @classmethod
    def load(cls, path: str) -> "RunCheckpoint":
        """Read and verify a checkpoint pair (see :func:`read_payload` for
        the error contract)."""
        tree = read_payload(path)
        try:
            return cls(
                version=int(tree["version"]),
                fingerprint=tree["fingerprint"],
                rounds_completed=int(tree["rounds_completed"]),
                sim_time=float(tree["sim_time"]),
                est_pace=tree["est_pace"],
                history=tree["history"],
                global_state=tree["global_state"],
                global_buffers=tree["global_buffers"],
                clients=_split_blobs(tree["clients"]),
                recorder=tree["recorder"],
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"checkpoint {path} is missing required sections: {exc}"
            )


# ----------------------------------------------------------------------
# Directory layout: one `round-NNNNNN.ckpt` (+ manifest) per save.
# ----------------------------------------------------------------------
def checkpoint_filename(rounds_completed: int) -> str:
    return f"round-{rounds_completed:06d}.ckpt"


def list_checkpoints(directory: str) -> list[tuple[int, str]]:
    """Complete ``(rounds_completed, payload path)`` pairs in ``directory``,
    ascending. A payload without its manifest (interrupted save) is skipped."""
    if not os.path.isdir(directory):
        return []
    found = []
    for entry in sorted(os.listdir(directory)):
        match = _CKPT_RE.match(entry)
        if not match:
            continue
        path = os.path.join(directory, entry)
        if not os.path.exists(manifest_path(path)):
            continue  # incomplete pair from an interrupted save
        found.append((int(match.group(1)), path))
    return found


def find_latest_checkpoint(directory: str) -> str:
    """Path of the most advanced complete checkpoint in ``directory``.

    Raises :class:`CheckpointNotFoundError` (listing anything found along
    the way) when there is nothing usable to resume from."""
    complete = list_checkpoints(directory)
    if complete:
        return complete[-1][1]
    if not os.path.isdir(directory):
        raise CheckpointNotFoundError(
            f"checkpoint directory {directory} does not exist; nothing to resume"
        )
    strays = [
        entry
        for entry in sorted(os.listdir(directory))
        if _CKPT_RE.match(entry) or entry.endswith(".ckpt" + ".manifest.json")
    ]
    if strays:
        raise CheckpointNotFoundError(
            f"no complete checkpoint in {directory}; found only incomplete "
            f"files: {', '.join(strays)}"
        )
    raise CheckpointNotFoundError(
        f"no checkpoints in {directory}; run without --resume to start fresh"
    )


def save_run_checkpoint(sim: "FederatedSimulator", directory: str) -> str:
    """Checkpoint ``sim`` into ``directory`` as a fresh per-round pair and
    prune old pairs (keeping :data:`KEEP_CHECKPOINTS`). Returns the payload
    path. Writing a *new* pair per save means a crash mid-write can never
    damage the previous complete checkpoint."""
    os.makedirs(directory, exist_ok=True)
    ckpt = RunCheckpoint.from_simulator(sim)
    path = os.path.join(directory, checkpoint_filename(ckpt.rounds_completed))
    ckpt.save(path)
    for _, old in list_checkpoints(directory)[:-KEEP_CHECKPOINTS]:
        for victim in (old, manifest_path(old)):
            try:
                os.remove(victim)
            except OSError:
                pass
    return path
