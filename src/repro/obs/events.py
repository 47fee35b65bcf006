"""Trace-event schema for the runtime telemetry layer.

Every event is keyed on **simulated time** (the federated clock the
simulator advances), never wall-clock, so a trace is a deterministic
function of the run configuration: serial and parallel executors produce
byte-identical event streams (``tests/test_executor.py`` asserts this).

Event kinds (``fields`` payload in parentheses):

Run / round lifecycle — emitted by the simulator in the parent process:

* ``run.client_meta`` — one per client at simulator construction
  (``num_samples``, ``model_bytes``, ``base_pace``).
* ``run.start`` — one per training run from the experiment runner
  (``scheme``, ``workload``, ``executor``).
* ``round.start`` (``selected``, ``num_selected``, ``deadline``).
* ``client.dropped`` — failure injection removed the client mid-round.
* ``round.all_dropped`` — every selected client dropped; the round stalls.
* ``client.round`` — one span per surviving client (``compute_start``,
  ``compute_finish``, ``upload_finish``, ``duration``, ``iterations_run``,
  ``bytes_uploaded``, ``mean_loss``, ``collected``).
* ``round.end`` (``accuracy``, ``mean_loss``, ``num_collected``,
  ``num_stragglers``, ``total_bytes``, ``duration``).

FedCA decision introspection — recorded client-side (possibly inside a
worker process), forwarded on the :class:`~repro.runtime.round.
ClientRoundResult` and merged into the parent recorder in client-id order:

* ``fedca.anchor`` — anchor-round profiling cost (§4.1/§5.5:
  ``iterations``, ``profiling_bytes``, ``sampled_scalars``,
  ``sampled_layers``).
* ``fedca.earlystop.eval`` — one per optimised-round iteration: the Eq. 2–4
  terms (``tau``, ``b``, ``c``, ``n``, ``elapsed``, ``stop``, ``reason``).
* ``fedca.earlystop.stop`` — terminal decision for the round (``tau``,
  ``reason``, ``early``).
* ``fedca.eager`` — a layer crossed ``T_e`` and was queued on the uplink
  (``layer``, ``tau``, ``trigger``, ``bytes``).
* ``fedca.retransmit`` — Eq. 6 error-feedback check outcome per eagerly
  transmitted layer (``layer``, ``cosine``, ``deviated``, ``bytes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["TraceEvent", "EVENT_KINDS"]

#: Known event kinds (documentation + schema validation in tests).
EVENT_KINDS = (
    "run.client_meta",
    "run.start",
    "round.start",
    "client.dropped",
    "round.all_dropped",
    "client.round",
    "round.end",
    "fedca.anchor",
    "fedca.earlystop.eval",
    "fedca.earlystop.stop",
    "fedca.eager",
    "fedca.retransmit",
)


@dataclass(frozen=True)
class TraceEvent:
    """One structured telemetry record.

    ``seq`` is assigned by the recorder at emission/merge time and is a
    deterministic total order (simulated causality), independent of which
    process produced the event.
    """

    seq: int
    kind: str
    sim_time: float
    round_index: int | None
    client_id: int | None
    fields: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        """Plain-data form used by the JSONL encoders and determinism
        tests."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "sim_time": self.sim_time,
            "round": self.round_index,
            "client": self.client_id,
            "fields": self.fields,
        }
