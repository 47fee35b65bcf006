"""Trace/metrics exporters: JSONL, Prometheus-style text, summary table.

The trace writer streams a file during the run (see
:class:`~repro.obs.sinks.TraceWriter`); the functions here export a
finished recorder's state after the fact — CI jobs and the CLI use them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .sinks import encode_jsonl

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recorder import TraceRecorder

__all__ = [
    "events_to_jsonl",
    "metrics_to_text",
    "summary_table",
]

#: Metric-name → Prometheus type, inferred from the conventional suffix.
_COUNTER_SUFFIX = "_total"


def events_to_jsonl(recorder) -> str:
    """The ring's events as one JSON object per line (oldest first), the
    same bytes the trace writer puts in a file.

    Accepts a :class:`~repro.obs.recorder.TraceRecorder` or any iterable
    of :class:`~repro.obs.events.TraceEvent`.
    """
    events = recorder.events() if hasattr(recorder, "events") else recorder
    return b"".join(encode_jsonl(e) for e in events).decode("utf-8")


def metrics_to_text(recorder: "TraceRecorder") -> str:
    """Prometheus-style text exposition of the counters and gauges.

    Names are sorted so the dump is deterministic; counters follow the
    ``*_total`` naming convention and are typed accordingly. Labelled
    series (``repro_ipc_bytes_total{transport=...,direction=...}``) share
    one ``# TYPE`` line per metric family, as the exposition format
    requires.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def _append(name: str, kind: str, value: float) -> None:
        family = name.split("{", 1)[0]
        if family not in typed:
            typed.add(family)
            lines.append(f"# TYPE {family} {kind}")
        lines.append(f"{name} {_fmt(value)}")

    for name in sorted(recorder.counters):
        _append(name, "counter", recorder.counters[name])
    for name in sorted(recorder.gauges):
        _append(name, "gauge", recorder.gauges[name])
    return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def summary_table(recorder: "TraceRecorder") -> str:
    """Fixed-width per-run summary of every counter and gauge."""
    rows = [("metric", "type", "value")]
    for name in sorted(recorder.counters):
        rows.append((name, "counter", _fmt(recorder.counters[name])))
    for name in sorted(recorder.gauges):
        rows.append((name, "gauge", _fmt(recorder.gauges[name])))
    rows.append(
        ("trace_events", "info", f"{recorder.num_events} "
         f"({recorder.dropped_events} dropped from ring)")
    )
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = ["Telemetry summary"]
    for j, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
