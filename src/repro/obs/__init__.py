"""``repro.obs`` — runtime telemetry: structured tracing, metrics, logging.

The observability substrate every layer reports through (DESIGN.md §9, §13):

* :class:`Recorder` / :class:`NullRecorder` / :class:`TraceRecorder` —
  the sink protocol, the zero-overhead default, and the bounded-ring
  implementation with a pluggable streaming sink.
* :mod:`repro.obs.sinks` — the flight-recorder pipeline: a JSONL sink and
  a background-flushed buffered sink with explicit backpressure policies.
* :mod:`repro.obs.profile` — hierarchical wall-clock phase profiler with
  per-round percent breakdowns and ``repro_phase_seconds`` gauges.
* :mod:`repro.obs.events` — the deterministic, simulated-time event schema.
* :mod:`repro.obs.export` — JSONL / Prometheus-text / summary-table dumps.
* :mod:`repro.obs.analysis` — Fig. 8-style reconstructions from a trace
  (with dropped-event/overflow detection).
* :func:`configure_logging` — the single ``repro.*`` logging entry point.
"""

from .analysis import (
    TruncatedTraceError,
    client_iteration_counts,
    eager_iterations,
    early_stop_iterations,
)
from .events import EVENT_KINDS, TraceEvent
from .export import (
    events_to_jsonl,
    metrics_to_text,
    summary_table,
    write_metrics_text,
    write_trace_jsonl,
)
from .logsetup import LOG_LEVELS, configure_logging
from .metrics import KNOWN_COUNTERS, KNOWN_GAUGES, metric_base_name
from .profile import (
    NULL_PROFILER,
    PHASE_SECONDS,
    NullPhaseProfiler,
    PhaseProfiler,
    phase_gauge_name,
)
from .recorder import NULL_RECORDER, NullRecorder, Recorder, TraceRecorder
from .sinks import (
    BACKPRESSURE_POLICIES,
    TRACE_DROPPED_TOTAL,
    BufferedSink,
    JsonlSink,
    Sink,
    SinkError,
)

__all__ = [
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "NULL_RECORDER",
    "TraceEvent",
    "EVENT_KINDS",
    "Sink",
    "JsonlSink",
    "BufferedSink",
    "SinkError",
    "BACKPRESSURE_POLICIES",
    "TRACE_DROPPED_TOTAL",
    "PhaseProfiler",
    "NullPhaseProfiler",
    "NULL_PROFILER",
    "PHASE_SECONDS",
    "phase_gauge_name",
    "events_to_jsonl",
    "write_trace_jsonl",
    "metrics_to_text",
    "write_metrics_text",
    "summary_table",
    "early_stop_iterations",
    "eager_iterations",
    "client_iteration_counts",
    "TruncatedTraceError",
    "configure_logging",
    "LOG_LEVELS",
    "KNOWN_COUNTERS",
    "KNOWN_GAUGES",
    "metric_base_name",
]
