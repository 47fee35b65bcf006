"""Deterministic run checkpoints for :class:`~repro.runtime.simulator.FederatedSimulator`.

A :class:`RunCheckpoint` captures everything ``run_round`` depends on that
evolves across rounds:

* the global model state and buffers (bit-exact arrays),
* the simulated clock and server-side pace estimates,
* the full :class:`~repro.runtime.history.RunHistory`: round summaries, and
  each client-event column concatenated over the rounds as one array,
* per-client cross-round state — one
  :func:`~repro.scale.cache.capture_blob`
  snapshot per touched client, read from the simulator's population — the
  one home of that state, whichever engine runs the rounds:
  batch-stream RNG/order/cursor, speed-trace RNG and live segments, layer
  RNG, and what the strategy and the wire layer keep on the client (FedCA
  anchor profiles, codec residuals/RNG). Each arrives as one
  :mod:`~repro.persist.snapshot` blob, is a ``bytes`` leaf of the payload
  tree (itself one snapshot), and is written, read and staged into the
  population without being re-encoded; a resume decodes each once, only to
  check its stream position against the client's shard,
* the trace recorder's counters, sequence state and sink byte offset.

Everything else the simulator touches is either reconstructed
deterministically from ``(seed, round_index)`` every round (client
selection, dropout, uplink interference) or rebuilt per round from the
global state (client model weights, optimizer state), so it is *not*
stored — see DESIGN.md §10 for the full captured/not-captured table.

Restore is only legal into a **freshly constructed** simulator (same
config, same seed) before any round has run: it stages each client's blob
in the population, where every engine reads it — a parallel job carries
its client's blob to the worker — so the resumed run is bitwise identical
to one that never stopped.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..data.loader import check_stream_position
from ..runtime.history import RunHistory
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
    from ..scale import LazyClientPopulation

__all__ = [
    "RunCheckpoint",
    "save_run_checkpoint",
    "find_latest_checkpoint",
    "list_checkpoints",
]

_CKPT_RE = re.compile(r"^round-(\d{6})\.ckpt$")
_CID_RE = re.compile(r"0|[1-9][0-9]*")

#: Completed checkpoints kept per directory; older pairs are pruned after
#: each successful save so long runs don't accumulate one file pair per
#: checkpoint interval.
KEEP_CHECKPOINTS = 2


def _check_client_blobs(section: Any) -> None:
    """Check the decoded clients section as the outside input it is: a
    dict of snapshot blobs keyed by decimal client id. The blobs stay
    encoded."""
    if type(section) is not dict or not all(
        _CID_RE.fullmatch(cid) and type(blob) is bytes for cid, blob in section.items()
    ):
        raise CheckpointCorruptError(
            "checkpoint clients section is not a map of client ids to snapshot blobs"
        )


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
        invocations). Per-client state comes from the population, which
        holds it between rounds under every engine."""
        clients = sim.population.capture_run_state()
        recorder_snapshot = None
        if hasattr(sim.recorder, "snapshot_state"):
            recorder_snapshot = sim.recorder.snapshot_state()
        return cls(
            version=CHECKPOINT_VERSION,
            fingerprint=cls._fingerprint(sim),
            rounds_completed=sim.history.num_rounds,
            sim_time=float(sim.time),
            est_pace={str(cid): float(p) for cid, p in sim.est_pace.items()},
            history=sim.history.state(),
            # The codec takes plain dicts only; the model hands out
            # OrderedDicts.
            global_state=dict(sim.global_state),
            global_buffers=dict(sim.global_buffers),
            clients={str(cid): blob for cid, blob in clients.items()},
            recorder=recorder_snapshot,
        )

    # ------------------------------------------------------------------
    def restore_into(self, sim: "FederatedSimulator") -> None:
        """Load this snapshot into a freshly constructed simulator.

        The simulator must have run zero rounds. Its parallel pool may
        already have forked: workers keep no client state between jobs
        (each job carries its client's blob), and a restore writes only
        parent-side state."""
        if sim.history.num_rounds != 0:
            raise PersistError(
                "checkpoints restore only into a fresh simulator; this one "
                f"already ran {sim.history.num_rounds} round(s)"
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

        self._check_client_positions(sim.population)
        try:
            # The loads check every layer's presence and shape before they
            # write anything; the payload is outside input.
            sim.global_model.load_state_dict(self.global_state)
            sim.global_model.load_buffer_dict(self.global_buffers)
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"checkpoint global model does not fit this run's model: {exc}"
            ) from None
        try:
            history = RunHistory.from_state(self.history)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"checkpoint history cannot be restored: {exc}"
            ) from None
        sim.time = float(self.sim_time)
        sim.est_pace = {int(cid): float(p) for cid, p in self.est_pace.items()}
        sim.history = history
        # Stage the blobs without materialising a client; each is applied
        # when (and if) its client pages in.
        for cid, blob in self.clients.items():
            sim.population.cache.seed_snapshot(int(cid), blob)

    def _check_client_positions(self, population: "LazyClientPopulation") -> None:
        """Every blob's client id and stream position, checked before
        anything is restored, against the shard the stream will index — so a
        damaged blob fails the resume rather than the round that selects its
        client. No client is built: the blobs stay encoded."""
        for cid, blob in self.clients.items():
            state = decode(blob)
            try:
                if int(cid) >= len(population):
                    raise ValueError(f"this run has {len(population)} clients")
                stream, size = state["stream"], population.factory.shard_size(int(cid))
                check_stream_position(stream["order"], stream["cursor"], size)
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointFormatError(
                    f"checkpoint client {cid} cannot be restored: {exc}"
                ) from None

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
                "clients": self.clients,
                "recorder": self.recorder,
            },
        )

    @classmethod
    def load(cls, path: str) -> "RunCheckpoint":
        """Read and verify a checkpoint pair (see :func:`read_payload` for
        the error contract)."""
        tree = read_payload(path)
        try:
            ckpt = cls(
                version=int(tree["version"]),
                fingerprint=tree["fingerprint"],
                rounds_completed=int(tree["rounds_completed"]),
                sim_time=float(tree["sim_time"]),
                est_pace=tree["est_pace"],
                history=tree["history"],
                global_state=tree["global_state"],
                global_buffers=tree["global_buffers"],
                clients=tree["clients"],
                recorder=tree["recorder"],
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointFormatError(
                f"checkpoint {path} is missing required sections: {exc}"
            )
        _check_client_blobs(ckpt.clients)
        return ckpt


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
