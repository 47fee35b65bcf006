"""The per-layer metric catalogue and the callables each one is read from.

``PER_LAYER`` is the single list of per-layer metric names, units and
directions (``BENCHMARK.json`` mirrors it; ``test_harness.py`` checks the
two agree). ``class_targets``/``instance_targets`` are the fixed list of
public callables the tracer wraps. A metric whose callables were never
entered during the measured rounds is reported as ``None`` with the reason
— the layer does not run on that workload.

Span sums are *inclusive* (``nn.train_step_s`` contains ``nn.forward_s``);
only the ``*_self_s`` metrics are exclusive.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from spans import SpanSummary

__all__ = [
    "PER_LAYER",
    "WORKER_INTERNAL",
    "class_targets",
    "instance_targets",
    "span_metrics",
]


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str


_S = "s/round"


def _lower(name: str, unit: str = _S) -> LayerMetric:
    return LayerMetric(name, unit, "lower")


def _higher(name: str, unit: str) -> LayerMetric:
    return LayerMetric(name, unit, "higher")


PER_LAYER: tuple[LayerMetric, ...] = (
    # runtime
    _lower("runtime.select_s"),
    _lower("runtime.execute_s"),
    _lower("runtime.execute_self_s"),
    _lower("runtime.collect_s"),
    _lower("runtime.aggregate_s"),
    _lower("runtime.evaluate_s"),
    _lower("runtime.broadcast_s"),
    _lower("runtime.ipc_pipe_bytes_per_round", "B/round"),
    _lower("runtime.ipc_shm_bytes_per_round", "B/round"),
    _lower("runtime.worker_cpu_s_per_round"),
    _higher("runtime.worker_busy_share", "ratio"),
    _lower("runtime.worker_peak_rss_mib", "MiB"),
    _higher("runtime.cohort_occupancy", "ratio"),
    _lower("runtime.fallbacks", "count"),
    _lower("runtime.shm_leaked_segments", "count"),
    # algorithms
    _lower("algorithms.client_round_s"),
    _lower("algorithms.cohort_round_s"),
    _lower("algorithms.round_body_self_s"),
    _lower("algorithms.anchor_round_wall_s", "s"),
    _lower("algorithms.optimized_round_wall_s", "s"),
    # core
    _lower("core.profile_record_s"),
    _lower("core.profile_finalize_s"),
    _lower("core.earlystop_decide_s"),
    _lower("core.earlystop_decisions", "count/round"),
    _lower("core.eager_due_s"),
    _lower("core.retransmit_check_s"),
    _higher("core.early_stop_share", "ratio"),
    _higher("core.iters_saved_share", "ratio"),
    _higher("core.eager_layers_per_client_round", "count"),
    _lower("core.retransmit_share", "ratio"),
    # nn
    _lower("nn.train_step_s"),
    _lower("nn.forward_s"),
    _lower("nn.backward_s"),
    _lower("nn.loss_s"),
    _lower("nn.optim_step_s"),
    _lower("nn.load_state_s"),
    _lower("nn.local_update_s"),
    _lower("nn.train_steps", "count/round"),
    _lower("nn.step_us", "us"),
    # compression
    _lower("compression.encode_s"),
    _lower("compression.wire_ratio", "ratio"),
    # data
    _lower("data.next_batch_s"),
    _lower("data.shard_s"),
    _lower("data.make_data_s", "s"),
    # sysmodel
    _lower("sysmodel.timeline_s"),
    # scale
    _lower("scale.acquire_s"),
    _lower("scale.create_s"),
    _lower("scale.acquire_self_s"),
    _lower("scale.creations", "count"),
    _lower("scale.evictions", "count"),
    _lower("scale.rehydrations", "count"),
    _lower("scale.rehydrate_share", "ratio"),
    _lower("scale.resident_clients", "count"),
    _lower("scale.rss_growth_mib_per_100_rounds", "MiB"),
    # obs
    _lower("obs.record_s"),
    _lower("obs.events_per_round", "count/round"),
    _lower("obs.trace_bytes_per_round", "B/round"),
    _lower("obs.dropped_events", "count"),
    _lower("obs.drain_s", "s"),
    # persist
    _lower("persist.checkpoint_s", "s"),
    _lower("persist.checkpoint_last_s", "s"),
    _lower("persist.checkpoint_mib", "MiB"),
    _lower("persist.load_s", "s"),
    # experiments
    _lower("experiments.make_env_s", "s"),
    # harness
    _lower("harness.trace_overhead_share", "ratio"),
    _lower("harness.calib_s", "s"),
    _lower("harness.calib_drift_share", "ratio"),
)

# Per-round sums of the top-most spans with these names.
_SUMS: dict[str, tuple[str, ...]] = {
    "runtime.select_s": ("select_clients", "select_deadline", "prepare_round"),
    "runtime.execute_s": ("executor.run_round",),
    "runtime.collect_s": ("collect_earliest", "transport.decode_results"),
    "runtime.aggregate_s": (
        "executor.aggregate_round",
        "aggregate_updates",
        "apply_update",
        "aggregate_buffers",
    ),
    "runtime.evaluate_s": ("evaluate",),
    "runtime.broadcast_s": ("transport.broadcast",),
    "algorithms.client_round_s": ("strategy.client_round",),
    "algorithms.cohort_round_s": ("strategy.cohort_round",),
    "core.profile_record_s": ("AnchorRecorder.record",),
    "core.profile_finalize_s": ("AnchorRecorder.finalize",),
    "core.earlystop_decide_s": ("EarlyStopPolicy.decide",),
    "core.eager_due_s": ("EagerSchedule.due",),
    "core.retransmit_check_s": ("deviated_layers",),
    "nn.train_step_s": ("SimClient.train_step", "CohortEngine.train_step"),
    "nn.optim_step_s": ("SGD.step", "CohortSGD.step"),
    "nn.load_state_s": ("Module.load_state_dict", "CohortModel.load_global"),
    "nn.local_update_s": ("SimClient.local_update", "CohortModel.stacked_update"),
    "compression.encode_s": ("WireLayer.encode", "WireLayer.encode_layer"),
    "data.next_batch_s": ("BatchStream.next_batch",),
    "data.shard_s": ("shards.shard",),
    "sysmodel.timeline_s": (
        "SpeedTrace.iteration_finish_time",
        "UplinkScheduler.submit",
    ),
    "scale.acquire_s": ("ResidentClientCache.acquire",),
    "scale.create_s": ("ClientFactory.create",),
    "obs.record_s": (
        "recorder.emit",
        "recorder.span",
        "recorder.counter",
        "recorder.gauge",
        "recorder.merge_client_trace",
    ),
}

_TRAIN_STEP = _SUMS["nn.train_step_s"]

# Sums restricted to spans inside a train step (evaluation also runs the
# model forward; that time belongs to runtime.evaluate_s).
_SUMS_IN_TRAIN_STEP: dict[str, tuple[str, ...]] = {
    "nn.forward_s": ("model.forward",),
    "nn.backward_s": ("model.backward",),
    "nn.loss_s": ("softmax_cross_entropy",),
}

# Per-round self time (duration minus direct children).
_SELF: dict[str, tuple[str, ...]] = {
    "runtime.execute_self_s": ("executor.run_round",),
    "algorithms.round_body_self_s": (
        "strategy.client_round",
        "strategy.cohort_round",
    ),
    "scale.acquire_self_s": ("ResidentClientCache.acquire",),
}

# Per-round span counts.
_COUNTS: dict[str, tuple[str, ...]] = {
    "core.earlystop_decisions": ("EarlyStopPolicy.decide",),
    "nn.train_steps": _TRAIN_STEP,
}

#: Span metrics that live inside pool workers on ``wrn_fedca_parallel``;
#: the parent cannot see them, so they are read from that workload's
#: traced serial oracle prefix (and labelled as such in the raw results).
WORKER_INTERNAL: tuple[str, ...] = (
    "algorithms.client_round_s",
    "algorithms.round_body_self_s",
    "core.profile_record_s",
    "core.profile_finalize_s",
    "core.earlystop_decide_s",
    "core.earlystop_decisions",
    "core.eager_due_s",
    "core.retransmit_check_s",
    "nn.train_step_s",
    "nn.forward_s",
    "nn.backward_s",
    "nn.loss_s",
    "nn.optim_step_s",
    "nn.load_state_s",
    "nn.local_update_s",
    "nn.train_steps",
    "compression.encode_s",
    "data.next_batch_s",
    "sysmodel.timeline_s",
)


def class_targets() -> list[tuple[Any, str, str]]:
    """Class- and module-level callables; patched before the simulator is
    built so construction-time calls (data, client factory) are seen."""
    import repro.algorithms.fedca as fedca_module
    import repro.runtime.client as client_module
    import repro.runtime.cohort as cohort_module
    import repro.runtime.simulator as simulator_module
    from repro.core import AnchorRecorder, EagerSchedule, EarlyStopPolicy
    from repro.data import BatchStream
    from repro.experiments.configs import WorkloadConfig
    from repro.nn import SGD, LeNetCNN, LSTMClassifier, Module, WideResNet
    from repro.nn.cohort import CohortModel, CohortSGD
    from repro.obs import TraceRecorder
    from repro.runtime import CohortEngine, ShmTransport, SimClient, WireLayer
    from repro.scale import (
        ClientFactory,
        MaterializedShards,
        ResidentClientCache,
        SubsampledShards,
    )
    from repro.sysmodel import SpeedTrace, UplinkScheduler

    targets: list[tuple[Any, str, str]] = [
        (simulator_module, "select_clients", "select_clients"),
        (simulator_module, "select_deadline", "select_deadline"),
        (simulator_module, "collect_earliest", "collect_earliest"),
        (simulator_module, "aggregate_updates", "aggregate_updates"),
        (simulator_module, "apply_update", "apply_update"),
        (simulator_module, "aggregate_buffers", "aggregate_buffers"),
        (ShmTransport, "broadcast", "transport.broadcast"),
        (ShmTransport, "decode_results", "transport.decode_results"),
        (AnchorRecorder, "record", "AnchorRecorder.record"),
        (AnchorRecorder, "finalize", "AnchorRecorder.finalize"),
        (EarlyStopPolicy, "decide", "EarlyStopPolicy.decide"),
        (EagerSchedule, "due", "EagerSchedule.due"),
        (fedca_module, "deviated_layers", "deviated_layers"),
        (SimClient, "train_step", "SimClient.train_step"),
        (SimClient, "local_update", "SimClient.local_update"),
        (CohortEngine, "train_step", "CohortEngine.train_step"),
        (client_module, "softmax_cross_entropy", "softmax_cross_entropy"),
        (cohort_module, "cohort_softmax_cross_entropy", "softmax_cross_entropy"),
        (SGD, "step", "SGD.step"),
        (CohortSGD, "step", "CohortSGD.step"),
        (Module, "load_state_dict", "Module.load_state_dict"),
        (CohortModel, "load_global", "CohortModel.load_global"),
        (CohortModel, "stacked_update", "CohortModel.stacked_update"),
        (WireLayer, "encode", "WireLayer.encode"),
        (WireLayer, "encode_layer", "WireLayer.encode_layer"),
        (BatchStream, "next_batch", "BatchStream.next_batch"),
        (SubsampledShards, "shard", "shards.shard"),
        (MaterializedShards, "shard", "shards.shard"),
        (WorkloadConfig, "make_data", "make_data"),
        (SpeedTrace, "iteration_finish_time", "SpeedTrace.iteration_finish_time"),
        (UplinkScheduler, "submit", "UplinkScheduler.submit"),
        (ResidentClientCache, "acquire", "ResidentClientCache.acquire"),
        (ClientFactory, "create", "ClientFactory.create"),
        (TraceRecorder, "emit", "recorder.emit"),
        (TraceRecorder, "span", "recorder.span"),
        (TraceRecorder, "counter", "recorder.counter"),
        (TraceRecorder, "gauge", "recorder.gauge"),
        (TraceRecorder, "merge_client_trace", "recorder.merge_client_trace"),
    ]
    # Only the top-level model classes: a span per sub-layer call would
    # cost more than the layers it measures (kernel spans inside nn are a
    # later issue).
    for model_class in (LeNetCNN, LSTMClassifier, WideResNet, CohortModel):
        targets.append((model_class, "forward", "model.forward"))
        targets.append((model_class, "backward", "model.backward"))
    return targets


def instance_targets(sim: Any) -> list[tuple[Any, str, str]]:
    """Callables of the objects one simulator owns."""
    return [
        (sim, "evaluate", "evaluate"),
        (sim.strategy, "prepare_round", "prepare_round"),
        (sim.strategy, "client_round", "strategy.client_round"),
        (sim.strategy, "cohort_round", "strategy.cohort_round"),
        (sim.executor, "run_round", "executor.run_round"),
        (sim.executor, "aggregate_round", "executor.aggregate_round"),
    ]


def span_metrics(
    summary: SpanSummary, num_rounds: int
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Every span-derived per-layer metric over ``num_rounds`` rounds.

    Returns ``(values, reasons)``: a metric none of whose callables was
    entered is ``None`` and ``reasons`` says which callables were looked
    for.
    """
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}

    def put(name: str, value: float, spans: int, looked_for: tuple[str, ...]) -> None:
        if spans == 0:
            values[name] = None
            reasons[name] = (
                "layer does not run here: no call to "
                + " / ".join(looked_for)
                + " in the measured rounds"
            )
        else:
            values[name] = value / num_rounds

    for name, names in _SUMS.items():
        seconds, spans = summary.top_total(names)
        put(name, seconds, spans, names)
    for name, names in _SUMS_IN_TRAIN_STEP.items():
        seconds, spans = summary.top_total(names, under=_TRAIN_STEP)
        put(name, seconds, spans, names)
    for name, names in _SELF.items():
        spans = sum(summary.count.get(n, 0) for n in names)
        put(name, sum(summary.self_time.get(n, 0.0) for n in names), spans, names)
    for name, names in _COUNTS.items():
        spans = sum(summary.count.get(n, 0) for n in names)
        put(name, float(spans), spans, names)
    return values, reasons
