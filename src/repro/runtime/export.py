"""Run-history serialization: JSON export for downstream analysis.

The experiment harness prints paper-style rows; this module is for users
who want the raw per-round records (to plot Fig. 7-style curves with their
own tooling, or to archive runs).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .history import RoundRecord, RunHistory

__all__ = ["history_to_dict", "history_to_json", "history_from_dict"]


def history_to_dict(history: RunHistory) -> dict[str, Any]:
    """Full-fidelity plain-data representation (JSON-safe)."""
    return {
        "num_rounds": history.num_rounds,
        "total_time": history.total_time,
        "final_accuracy": history.final_accuracy,
        "records": [
            {
                "round_index": r.round_index,
                "start_time": r.start_time,
                "end_time": r.end_time,
                "accuracy": r.accuracy,
                "mean_loss": r.mean_loss,
                "collected_clients": list(r.collected_clients),
                "straggler_clients": list(r.straggler_clients),
                "mean_iterations": r.mean_iterations,
                "total_bytes": r.total_bytes,
                "client_events": {
                    str(cid): _jsonable(ev) for cid, ev in r.client_events.items()
                },
            }
            for r in history.records
        ],
    }


def _jsonable(value: Any) -> Any:
    """Recursively convert an event payload to JSON-safe plain data.

    Handles numpy scalars (``np.int64``/``np.float32``/``np.bool_``),
    0-d and n-d arrays, and arbitrarily nested dict/list/tuple/set
    containers; dict keys are stringified (numpy ints included).
    """
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_jsonable(v) for v in value]
    return _scalar(value)


def _scalar(v: Any) -> Any:
    if isinstance(v, np.ndarray):
        # .item() only works for single-element arrays; .tolist() round-trips
        # any shape (a 0-d array becomes its scalar).
        return v.tolist()
    if isinstance(v, np.generic) or hasattr(v, "item"):
        return v.item()
    return v


def history_to_json(history: RunHistory, *, indent: int | None = None) -> str:
    return json.dumps(history_to_dict(history), indent=indent)


def history_from_dict(data: dict[str, Any]) -> RunHistory:
    """Inverse of :func:`history_to_dict` (client-event keys come back as
    ints; nested event dict keys stay strings, which is fine for analysis)."""
    history = RunHistory()
    for rec in data["records"]:
        history.append(
            RoundRecord(
                round_index=rec["round_index"],
                start_time=rec["start_time"],
                end_time=rec["end_time"],
                accuracy=rec["accuracy"],
                mean_loss=rec["mean_loss"],
                collected_clients=tuple(rec["collected_clients"]),
                straggler_clients=tuple(rec["straggler_clients"]),
                mean_iterations=rec["mean_iterations"],
                total_bytes=rec["total_bytes"],
                client_events={
                    int(cid): ev for cid, ev in rec["client_events"].items()
                },
            )
        )
    return history
