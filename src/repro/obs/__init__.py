"""``repro.obs`` — runtime telemetry: structured tracing, metrics, logging.

The observability substrate every layer reports through (DESIGN.md §9, §13):

* :class:`Recorder` / :class:`NullRecorder` / :class:`TraceRecorder` —
  the recorder protocol, the zero-overhead default, and the recorder that
  writes a trace file (or, without one, keeps a bounded ring).
* :mod:`repro.obs.sinks` — :class:`TraceWriter`, the one place a trace
  event is written: a bounded queue drained into the JSONL file by a
  background flusher thread, with blocking backpressure.
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
from .export import events_to_jsonl, metrics_to_text, summary_table
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
from .sinks import SinkError, TraceWriter

__all__ = [
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "NULL_RECORDER",
    "TraceEvent",
    "EVENT_KINDS",
    "TraceWriter",
    "SinkError",
    "PhaseProfiler",
    "NullPhaseProfiler",
    "NULL_PROFILER",
    "PHASE_SECONDS",
    "phase_gauge_name",
    "events_to_jsonl",
    "metrics_to_text",
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
