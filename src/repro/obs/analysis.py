"""Trace-only reconstructions of the paper's per-client analyses.

These helpers consume a trace (a list of :class:`~repro.obs.events.
TraceEvent` or their ``as_dict`` forms) and rebuild the Fig. 8-style
decision distributions without touching the
:class:`~repro.runtime.history.RunHistory` — the acceptance check that the
telemetry layer captures *why* each client stopped/transmitted, not just
end-of-round summaries.

Every reconstruction first validates the trace for overflow: events carry
monotone sequence numbers, so a ring that wrapped (``TraceRecorder``
``dropped_events``) or a damaged trace file leaves gaps. Computing a CDF
from a silently truncated trace would be quietly wrong, so these helpers
raise :class:`TruncatedTraceError` with a remediation hint instead.
"""

from __future__ import annotations

from typing import Any, Iterable

__all__ = [
    "TruncatedTraceError",
    "validate_trace_complete",
    "early_stop_iterations",
    "eager_iterations",
    "client_iteration_counts",
]


class TruncatedTraceError(ValueError):
    """The trace lost events (ring wrap or a damaged trace file).

    Raised by the analysis helpers instead of silently computing a
    distribution from a partial trace.
    """


def _as_dicts(events: Iterable[Any]) -> list[dict[str, Any]]:
    return [e.as_dict() if hasattr(e, "as_dict") else e for e in events]


def validate_trace_complete(dicts: list[dict[str, Any]]) -> None:
    """Raise :class:`TruncatedTraceError` if sequence numbers show a loss.

    A complete trace starts at ``seq == 0`` and is gap-free. A nonzero
    first seq means the recorder ring wrapped (events fell off the front);
    an interior gap means lines are missing from a trace file (the writer
    never drops an event, so the file was cut or edited). Events without a
    ``seq`` field (e.g. hand-built dicts in unit tests) are not checked.
    """
    seqs = sorted(
        int(e["seq"]) for e in dicts if isinstance(e, dict) and "seq" in e
    )
    if not seqs:
        return
    if seqs[0] != 0:
        raise TruncatedTraceError(
            f"trace is truncated: first event has seq={seqs[0]}, so "
            f"{seqs[0]} earlier events were dropped (recorder ring "
            "overflow). Re-run with a larger TraceRecorder capacity= or "
            "write the full run to disk with trace_path=."
        )
    for prev, cur in zip(seqs, seqs[1:]):
        if cur > prev + 1:
            raise TruncatedTraceError(
                f"trace has a gap: seq jumps {prev} -> {cur} "
                f"({cur - prev - 1} events missing). The trace writer never "
                "drops an event, so lines were cut from the trace file; "
                "re-run, or resume from a checkpoint, to regenerate it."
            )


def early_stop_iterations(events: Iterable[Any]) -> list[int]:
    """Early-stop trigger iterations across rounds/clients (Fig. 8a).

    Matches :meth:`repro.runtime.history.RunHistory.early_stop_iterations`
    when reconstructed from the same run's trace.
    """
    dicts = _as_dicts(events)
    validate_trace_complete(dicts)
    return [
        int(e["fields"]["tau"])
        for e in dicts
        if e["kind"] == "fedca.earlystop.stop" and e["fields"]["early"]
    ]


def eager_iterations(events: Iterable[Any], *, effective: bool) -> list[int]:
    """Eager-transmission trigger iterations per layer (Fig. 8b).

    With ``effective=True`` a retransmitted layer counts at the round's
    final iteration (the paper's "w/ retransmission" CDF); matches
    :meth:`repro.runtime.history.RunHistory.eager_iterations`.
    """
    dicts = _as_dicts(events)
    validate_trace_complete(dicts)
    final_iters = {
        (e["round"], e["client"]): int(e["fields"]["iterations_run"])
        for e in dicts
        if e["kind"] == "client.round"
    }
    retransmitted = {
        (e["round"], e["client"], e["fields"]["layer"])
        for e in dicts
        if e["kind"] == "fedca.retransmit" and e["fields"]["deviated"]
    }
    out: list[int] = []
    for e in dicts:
        if e["kind"] != "fedca.eager":
            continue
        key = (e["round"], e["client"])
        tau = int(e["fields"]["tau"])
        if effective and (*key, e["fields"]["layer"]) in retransmitted:
            out.append(final_iters.get(key, tau))
        else:
            out.append(tau)
    return out


def client_iteration_counts(events: Iterable[Any]) -> dict[int, list[int]]:
    """Per-client executed-iteration counts, one entry per round the client
    ran (anchor rounds included) — the raw series behind Fig. 8's CDFs."""
    dicts = _as_dicts(events)
    validate_trace_complete(dicts)
    out: dict[int, list[int]] = {}
    for e in dicts:
        if e["kind"] == "client.round":
            out.setdefault(int(e["client"]), []).append(
                int(e["fields"]["iterations_run"])
            )
    return out
