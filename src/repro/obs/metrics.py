"""Canonical metric-name registry.

Every counter or gauge the runtime mirrors into a
:class:`~repro.obs.recorder.Recorder` must be declared here first.  The
registry is the machine-checked half of the metrics discipline that the
resume oracle (:mod:`repro.persist`) relies on:

* **Counters** are monotone, deterministic series.  Their names end in
  ``_total`` (Prometheus convention) and they may never carry wall-clock
  quantities — a crash-resumed run must reproduce them bit-for-bit.
* **Gauges** are point-in-time values.  Wall-clock mirrors (phase
  timings, broadcast staging cost) must be gauges, never counters,
  because wall time is not deterministic and would break the resume
  oracle's counter comparison.

Enforced statically by ``repro.lint`` (MET001/MET002: literal names at
``.counter()``/``.gauge()`` call sites must be registered here) and at
runtime by the sanitizer (:mod:`repro.lint.sanitize`, which validates
every registry write when ``--sanitize``/``REPRO_SANITIZE=1`` is on).

Labelled series (``repro_ipc_bytes_total{transport="shm",...}``) are
registered by their *base* name — the part before the ``{``.
"""

from __future__ import annotations

__all__ = ["KNOWN_COUNTERS", "KNOWN_GAUGES", "MIRROR_GAUGES", "metric_base_name"]

#: Monotone counters; names end ``_total``, values are deterministic.
KNOWN_COUNTERS: frozenset[str] = frozenset(
    {
        # round loop (simulator)
        "repro_rounds_total",
        "repro_client_rounds_total",
        "repro_iterations_total",
        "repro_bytes_uploaded_total",
        "repro_dropped_clients_total",
        # FedCA decisions
        "repro_anchor_rounds_total",
        "repro_early_stops_total",
        "repro_eager_transmits_total",
        "repro_retransmissions_total",
        # result cache (experiments.runner)
        "repro_result_cache_hits_total",
        "repro_result_cache_misses_total",
        # batched chunks (the cohort executor's, or a parallel worker's)
        "repro_cohort_steps_total",
        "repro_cohort_slot_steps_total",
        "repro_cohort_member_steps_total",
        # population paging (repro.scale): cache evictions and rehydrations
        # of blobs the pager parked (a resume's staged ones do not count).
        # Deterministic per engine but engine-dependent (each parallel
        # worker pages its own cache) and not checkpointed.
        "repro_population_evictions_total",
        "repro_population_rehydrations_total",
        # IPC transports (labelled: {transport="pipe"|"shm",
        # direction="broadcast"|"results"|"state"}; "state" is the pipe
        # frames of client blobs that parallel jobs carry both ways)
        "repro_ipc_bytes_total",
        # parallel engine degraded to the in-process default engine
        # (labelled: {reason="pool_start"|"worker_died"})
        "repro_engine_fallbacks_total",
        # compressed wire transport (labelled: {variant="raw"|"wire"} —
        # raw is the counterfactual uncompressed cost, wire what moved)
        "repro_wire_bytes_total",
    }
)

#: Point-in-time gauges; wall-clock mirrors live here, never in counters.
KNOWN_GAUGES: frozenset[str] = frozenset(
    {
        "repro_sim_time_seconds",
        "repro_round_accuracy",
        "repro_round_mean_loss",
        "repro_cohort_size",
        # population paging: live clients in the resident cache, the
        # clients parked as encoded snapshots and what those weigh, and the
        # process peak RSS (an OS measurement, hence a gauge).
        "repro_resident_clients",
        "repro_population_parked_clients",
        "repro_population_snapshot_bytes",
        "repro_population_rss_bytes",
        # wall-clock mirrors — gauges by decree (resume oracle)
        "repro_ipc_broadcast_seconds",
        "repro_phase_seconds",
    }
)


#: Gauges that mirror the OS or the wall clock, which identical runs read
#: differently: a checkpoint leaves them out (the next mirror resets them).
MIRROR_GAUGES = frozenset(
    {"repro_population_rss_bytes", "repro_ipc_broadcast_seconds", "repro_phase_seconds"}
)


def metric_base_name(name: str) -> str:
    """Strip a Prometheus label set: ``foo_total{a="b"}`` → ``foo_total``."""
    return name.split("{", 1)[0]
