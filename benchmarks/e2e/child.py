"""One simulator run in a fresh, thread-pinned process.

``run.py`` spawns this module once per measurement so that every run starts
from cold caches, reports its own ``ru_maxrss`` and inherits the one-thread
BLAS pin and the frozen allocator thresholds from its environment. It
builds one workload, runs round 0 (the warm-up charged to ``setup_s``),
runs and times the measured rounds, closes everything, checks the outputs it can check alone (trace, checkpoint,
shared memory, fallbacks, target) and prints one JSON report as the last
line of stdout. The oracle-prefix comparison needs two runs, so the parent
does it.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import statistics
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import numpy as np  # noqa: E402

from spans import Tracer, now  # noqa: E402

SHM_GLOB = "/dev/shm/repro-ipc-*"
MIB = float(2**20)
#: Units timed before set-up starts (about 0.2 s).
START_UNITS = 50


class Calibrator:
    """A fixed unit of host work, timed between rounds.

    The host this runs on drifts by tens of percent over minutes (other
    tenants), far more than any bound a PR is held to. One unit is small
    NumPy ops (matmul, gather, einsum, reduce — the simulator's mix) plus a
    Python loop, and uses no code of the repository, so a PR cannot speed
    it up. The mean unit time over a run, over ``workloads.UNIT_REF_S``, is the
    run's host *slowness*; wall-clock metrics are divided by it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((8, 96, 27)).astype(np.float32)
        self._w = rng.standard_normal((27, 16)).astype(np.float32)
        self._idx = rng.integers(0, 96, size=(8, 64))
        self._rows = np.arange(8)[:, None]
        self.seconds = 0.0  # total time spent calibrating

    def block(self, units: int) -> float:
        """Run ``units`` units; returns the mean seconds per unit."""
        a, w, idx, rows = self._a, self._w, self._idx, self._rows
        t0 = now()
        for _ in range(units):
            for _ in range(60):
                y = np.maximum(a @ w, 0.0)
                g = y[rows, idx]
                np.einsum("bij,bkj->bik", g[:, :8], g[:, 8:16]).sum()
            total = 0
            for i in range(60_000):
                total += i & 3
        elapsed = now() - t0
        self.seconds += elapsed
        return elapsed / units


def _rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / MIB


class Stopwatch:
    """Times a call the benchmark makes itself, and spans it when tracing."""

    def __init__(self, tracer: Tracer | None, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = now()
        if self._tracer is not None:
            self._index = self._tracer.begin(self._name)
        return self

    def __exit__(self, *exc) -> None:
        if self._tracer is not None:
            self._tracer.finish(self._index)
        self.seconds = now() - self._t0


def _iterations(record) -> int:
    """Local SGD iterations all clients completed in one round."""
    ran = len(record.collected_clients) + len(record.straggler_clients)
    return int(round(record.mean_iterations * ran))


def _fingerprint(records) -> list[list]:
    """What two runs of one configuration must agree on, bit for bit."""
    return [
        [
            r.round_index,
            r.end_time,
            r.accuracy,
            list(r.collected_clients),
            r.total_bytes,
        ]
        for r in records
    ]


def _fedca_facts(records, local_iterations: int) -> dict[str, float | None]:
    """Decision outcomes from the retained per-client events."""
    client_rounds = optimized = stopped = eager = retransmitted = 0
    iterations = 0
    raw_bytes = wire_bytes = 0
    for record in records:
        for events in record.client_events.values():
            client_rounds += 1
            iterations += events["iterations_run"]
            if events.get("anchor") is False:
                optimized += 1
                stopped += events["early_stop_iteration"] is not None
            eager += len(events.get("eager", ()))
            retransmitted += len(events.get("retransmitted", ()))
            wire = events.get("wire")
            if wire:
                raw_bytes += wire["raw_bytes"]
                wire_bytes += wire["wire_bytes"]
    out: dict[str, float | None] = {
        "core.early_stop_share": None,
        "core.iters_saved_share": None,
        "core.eager_layers_per_client_round": None,
        "core.retransmit_share": None,
        "compression.wire_ratio": None,
    }
    if optimized:
        out["core.early_stop_share"] = stopped / optimized
        out["core.iters_saved_share"] = 1.0 - iterations / (
            client_rounds * local_iterations
        )
        out["core.eager_layers_per_client_round"] = eager / optimized
        out["core.retransmit_share"] = retransmitted / eager if eager else 0.0
    if raw_bytes:
        out["compression.wire_ratio"] = wire_bytes / raw_bytes
    return out


@dataclass
class Outcome:
    """Everything the round loop leaves behind for the report."""

    env: Any
    shadow: Any  # the untraced twin's Env, or None
    tracer: Tracer | None
    warnings: list
    make_env_s: float
    setup_end: float
    window_end: float
    walls: list[float] = field(default_factory=list)
    shadow_walls: list[float] = field(default_factory=list)
    rss_mib: list[float] = field(default_factory=list)
    checkpoint_s: list[float] = field(default_factory=list)
    drain_s: float = 0.0
    ipc: dict = field(default_factory=dict)
    ipc_after_warmup: dict = field(default_factory=dict)
    events_after_warmup: int = 0
    num_events: int = 0
    dropped_events: int = 0
    worker_rusage: Any = None


def execute(args: argparse.Namespace, calibrator: Calibrator, unit_s: list) -> Outcome:
    """Build the workload, run its rounds, close it. Appends one
    calibration block per round to ``unit_s``."""
    from layers import class_targets, instance_targets
    from repro.persist import save_run_checkpoint
    from workloads import CHECKPOINT_EVERY, build_env

    rounds = args.rounds
    tracer = Tracer() if args.trace else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.install(class_targets())
        with Stopwatch(tracer, "make_environment") as make_env:
            env = build_env(
                args.workload,
                args.seed,
                oracle=args.mode == "oracle",
                workdir=args.workdir,
            )
        sim, recorder = env.sim, env.recorder
        shadow = None
        if tracer is not None:
            tracer.install(instance_targets(sim))
            if args.mode == "measure" and not args.no_twin:
                # The untraced twin: same workload, same seed, same process.
                # Round r does identical work in both, back to back, so the
                # per-round ratio is the tracing overhead with the host's
                # drift cancelled.
                tracer.active = False
                shadow_dir = os.path.join(args.workdir, "shadow")
                os.makedirs(shadow_dir)
                shadow = build_env(
                    args.workload, args.seed, oracle=False, workdir=shadow_dir
                )
                tracer.active = True
        out = Outcome(
            env=env,
            shadow=shadow,
            tracer=tracer,
            warnings=caught,
            make_env_s=make_env.seconds,
            setup_end=0.0,
            window_end=0.0,
        )

        def shadow_round() -> None:
            tracer.active = False
            t0 = now()
            shadow.sim.run_round()
            out.shadow_walls.append(now() - t0)
            tracer.active = True

        try:
            for r in range(rounds):
                if tracer is not None:
                    tracer.current_round = r
                # Alternate which twin goes first, so neither always runs
                # on the caches the other just warmed.
                if shadow is not None and r % 2:
                    shadow_round()
                with Stopwatch(tracer, "round") as round_watch:
                    sim.run_round()
                out.walls.append(round_watch.seconds)
                if shadow is not None and not r % 2:
                    shadow_round()
                if r == 0:
                    out.setup_end = now()
                    out.ipc_after_warmup = sim.executor.ipc_stats()
                    if recorder is not None:
                        out.events_after_warmup = recorder.num_events
                if args.mode != "oracle" or r == 0 or tracer is not None:
                    # An untraced oracle prefix is compared, not timed.
                    unit_s.append(calibrator.block(args.calib_units))
                if args.mode == "setup":
                    break
                out.rss_mib.append(_rss_mib())
                done = r + 1
                if env.checkpoint_dir and (
                    done % CHECKPOINT_EVERY == 0 or done == rounds
                ):
                    with Stopwatch(tracer, "save_run_checkpoint") as save:
                        save_run_checkpoint(sim, env.checkpoint_dir)
                    out.checkpoint_s.append(save.seconds)
            out.ipc = sim.executor.ipc_stats()
        finally:
            if tracer is not None:
                tracer.current_round = -1
            with Stopwatch(tracer, "sim.close"):
                sim.close()
            # Read before the twin's pool is joined: only this simulator's
            # workers may count towards its worker CPU and RSS.
            out.worker_rusage = resource.getrusage(resource.RUSAGE_CHILDREN)
            if recorder is not None:
                out.num_events = recorder.num_events
                out.dropped_events = (
                    recorder.dropped_events + recorder.sink_dropped_events
                )
                with Stopwatch(tracer, "recorder.close") as drain:
                    recorder.close()
                out.drain_s = drain.seconds
            out.window_end = now()
            if shadow is not None:
                tracer.active = False
                shadow.sim.close()
                if shadow.recorder is not None:
                    shadow.recorder.close()
        if tracer is not None:
            tracer.uninstall()
    return out


def load_last_checkpoint(env) -> dict | None:
    """Load the newest checkpoint back, timing it; ``None`` without one."""
    if not env.checkpoint_dir:
        return None
    from repro.persist import RunCheckpoint, list_checkpoints

    rounds, path = list_checkpoints(env.checkpoint_dir)[-1]
    with Stopwatch(None, "RunCheckpoint.load") as load:
        loaded = RunCheckpoint.load(path)
    return {
        "path": path,
        "rounds": rounds,
        "rounds_completed": loaded.rounds_completed,
        "load_s": load.seconds,
        "mib": os.path.getsize(path) / MIB,
    }


def self_checks(
    args, workload, out: Outcome, tta, leaked: list[str], checkpoint: dict | None
) -> list[dict]:
    """The output checks one process can make alone."""
    env, rounds = out.env, args.rounds
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    fallbacks = _fallbacks(out)
    check("no_engine_fallback", not fallbacks, "; ".join(fallbacks) or "none")
    if args.mode == "measure" and rounds >= workload.target_by_round:
        check(
            "target_reached",
            tta is not None,
            f"accuracy {workload.target_accuracy} "
            + ("never reached" if tta is None else f"reached in round {tta[1] - 1}"),
        )
    if workload.workers and args.mode != "oracle":
        check("no_shm_leak", not leaked, ", ".join(leaked) or "none")
    if env.trace_path:
        lines = 0
        with open(env.trace_path, "rb") as fh:
            for line in fh:
                json.loads(line)  # every line must decode
                lines += 1
        check(
            "trace_complete",
            lines == out.num_events and out.dropped_events == 0,
            f"{lines} decoded lines, {out.num_events} events, "
            f"{out.dropped_events} dropped",
        )
    if checkpoint is not None:
        check(
            "checkpoint_loads",
            checkpoint["rounds_completed"] == rounds == checkpoint["rounds"],
            f"{checkpoint['path']}: rounds_completed="
            f"{checkpoint['rounds_completed']}, ran {rounds}",
        )
    return checks


def _fallbacks(out: Outcome) -> list[str]:
    return [
        str(w.message) for w in out.warnings if issubclass(w.category, RuntimeWarning)
    ]


def layer_facts(
    args, workload, out: Outcome, leaked: list[str], checkpoint: dict | None
) -> tuple[dict[str, float | None], dict[str, str]]:
    """Per-layer metrics that need no spans (counts, sizes, own timers), and
    the reason for each one that is absent on this workload."""
    from layers import PER_LAYER
    from repro.core import is_anchor_round

    env, sim, rounds = out.env, out.env.sim, args.rounds
    measured = sim.history.records[1:]
    measured_walls = out.walls[1:]
    layers: dict[str, float | None] = {}
    reasons: dict[str, str] = {}

    def absent(prefixes: tuple[str, ...], reason: str) -> None:
        for metric in PER_LAYER:
            if metric.name.startswith(prefixes) and metric.name not in layers:
                layers[metric.name] = None
                reasons[metric.name] = reason

    layers["runtime.fallbacks"] = float(len(_fallbacks(out)))
    layers["experiments.make_env_s"] = out.make_env_s
    if workload.workers and out.ipc:

        def moved(transport: str) -> float:
            return sum(
                v - out.ipc_after_warmup.get(k, 0.0)
                for k, v in out.ipc.items()
                if f'transport="{transport}"' in k
            )

        usage = out.worker_rusage
        layers["runtime.ipc_pipe_bytes_per_round"] = moved("pipe") / len(measured)
        layers["runtime.ipc_shm_bytes_per_round"] = moved("shm") / len(measured)
        layers["runtime.worker_cpu_s_per_round"] = (
            usage.ru_utime + usage.ru_stime
        ) / rounds
        layers["runtime.worker_peak_rss_mib"] = usage.ru_maxrss / 1024.0
        layers["runtime.shm_leaked_segments"] = float(len(leaked))
    else:
        absent(
            ("runtime.ipc_", "runtime.worker_", "runtime.shm_"),
            "no worker pool: the executor runs clients in this process",
        )
    if hasattr(sim.executor, "occupancy"):
        layers["runtime.cohort_occupancy"] = sim.executor.occupancy()["occupancy"]
    else:
        absent(("runtime.cohort_occupancy",), "not the cohort executor")

    split: dict[str, list[float]] = {"anchor": [], "optimized": []}
    if workload.fedca:
        every = sim.strategy.config.profile_every
        for record, wall in zip(measured, measured_walls, strict=True):
            kind = "anchor" if is_anchor_round(record.round_index, every) else "optimized"
            split[kind].append(wall)
    for kind, samples in split.items():
        name = f"algorithms.{kind}_round_wall_s"
        if samples:
            layers[name] = statistics.median(samples)
        elif workload.fedca:
            absent((name,), f"no {kind} round among the measured rounds")
        else:
            absent((name,), "FedAvg has no anchor/optimised round split")
    for name, value in _fedca_facts(measured, sim.local_iterations).items():
        if value is not None:
            layers[name] = value
    absent(("compression.wire_ratio",), "no wire codec attached")
    absent(
        ("core.early_stop", "core.iters_saved", "core.eager_layers", "core.retransmit_share"),
        "no FedCA optimised rounds (FedAvg, or events spilled)",
    )

    if sim.population is not None:
        cache = sim.population.cache
        layers["scale.creations"] = float(cache.creations)
        layers["scale.evictions"] = float(cache.evictions)
        layers["scale.rehydrations"] = float(cache.rehydrations)
        layers["scale.resident_clients"] = float(len(cache))
        slope = np.polyfit(np.arange(len(out.rss_mib)), np.asarray(out.rss_mib), 1)[0]
        layers["scale.rss_growth_mib_per_100_rounds"] = float(slope) * 100.0
    else:
        absent(("scale.",), "eager population: no pager")
    if env.trace_path:
        per_round = (out.num_events - out.events_after_warmup) / len(measured)
        layers["obs.events_per_round"] = per_round
        layers["obs.trace_bytes_per_round"] = (
            os.path.getsize(env.trace_path) / out.num_events * per_round
        )
        layers["obs.dropped_events"] = float(out.dropped_events)
        layers["obs.drain_s"] = out.drain_s
    else:
        absent(("obs.",), "no recorder attached")
    if checkpoint is not None:
        layers["persist.checkpoint_s"] = statistics.median(out.checkpoint_s)
        layers["persist.checkpoint_last_s"] = out.checkpoint_s[-1]
        layers["persist.checkpoint_mib"] = checkpoint["mib"]
        layers["persist.load_s"] = checkpoint["load_s"]
    else:
        absent(("persist.",), "no checkpointing on this workload")
    return layers, reasons


def layer_spans(args, workload, out: Outcome, layers: dict, reasons: dict) -> dict:
    """Add the span-derived per-layer metrics to ``layers``; returns the
    span extras of the report."""
    from layers import span_metrics

    tracer, sim, rounds = out.tracer, out.env.sim, args.rounds
    # The oracle prefix is three rounds long and only round 0 is an anchor
    # round, so its split keeps the warm-up round.
    first = 0 if args.mode == "oracle" else 1
    summary = tracer.summary(range(first, rounds))
    span_values, span_reasons = span_metrics(summary, rounds - first)
    layers.update(span_values)
    reasons.update(span_reasons)
    train_s = span_values["nn.train_step_s"]
    if train_s is None:
        layers["nn.step_us"] = None
        reasons["nn.step_us"] = span_reasons["nn.train_step_s"]
    else:
        member_iterations = sum(_iterations(r) for r in sim.history.records[first:])
        layers["nn.step_us"] = train_s * (rounds - first) / member_iterations * 1e6
    layers["data.make_data_s"] = tracer.summary([-1]).total.get("make_data")
    if layers["data.make_data_s"] is None:
        reasons["data.make_data_s"] = "data built by the benchmark, not a preset"
    whole_run = tracer.summary()
    execute_all = whole_run.total.get("executor.run_round", 0.0)
    if workload.workers and out.ipc and execute_all > 0:
        usage = out.worker_rusage
        layers["runtime.worker_busy_share"] = (usage.ru_utime + usage.ru_stime) / (
            workload.workers * execute_all
        )
        reasons.pop("runtime.worker_busy_share", None)
    if sim.population is not None:
        acquires = whole_run.count.get("ResidentClientCache.acquire", 0)
        layers["scale.rehydrate_share"] = (
            sim.population.cache.rehydrations / acquires if acquires else 0.0
        )
    extras = {
        "round_child_coverage": summary.child_coverage("round"),
        "spans": summary.as_dict(),
        "num_spans": len(tracer.start),
    }
    if out.shadow is not None:
        extras["shadow_round_wall_s"] = out.shadow_walls[1:]
        extras["shadow_fingerprint"] = _fingerprint(out.shadow.sim.history.records)
    return extras


def run(args: argparse.Namespace) -> dict:
    calibrator = Calibrator()
    unit_s = [calibrator.block(START_UNITS)]  # before any set-up work
    start_calibration_s = calibrator.seconds

    # Imported here, not at module top: the repro import is part of the
    # set-up a user pays, so it must sit inside the timed window.
    from layers import PER_LAYER
    from workloads import UNIT_REF_S, WORKLOADS

    workload = WORKLOADS[args.workload]
    shm_before = set(glob.glob(SHM_GLOB))
    out = execute(args, calibrator, unit_s)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "traced": bool(args.trace),
        "rounds": args.rounds,
        "setup_s": out.setup_end - args.spawned_at - start_calibration_s,
        # Host slowness around the set-up: the block before it and the one
        # after round 0.
        "setup_slowness": statistics.mean(unit_s[:2]) / UNIT_REF_S,
        "host": {
            "usable_cores": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas_threads": {
                k: os.environ.get(k)
                for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "malloc": {
                k: os.environ.get(k)
                for k in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
            },
        },
    }
    if args.mode == "setup":
        return report

    history = out.env.sim.history
    records = history.records
    tta = history.time_to_accuracy(workload.target_accuracy)
    leaked = sorted(set(glob.glob(SHM_GLOB)) - shm_before)
    checkpoint = load_last_checkpoint(out.env)
    report.update(
        round_wall_s=out.walls[1:],
        warmup_round_wall_s=out.walls[0],
        # Wall time from the end of round 0 through the closes, less the
        # calibration blocks that ran inside it.
        window_s=out.window_end
        - out.setup_end
        - (calibrator.seconds - start_calibration_s),
        # Host slowness over the measured window: every block after round 0.
        slowness=statistics.mean(unit_s[1:]) / UNIT_REF_S,
        unit_s=unit_s,
        unit_ref_s=UNIT_REF_S,
        iterations=sum(_iterations(r) for r in records[1:]),
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        fingerprint=_fingerprint(records),
        sim={
            "sim_round_s": history.mean_round_time(),
            # Censored at the run's end when the target is never reached;
            # the target_reached check then fails the run.
            "sim_time_to_target_s": history.total_time if tta is None else tta[0],
            "uplink_mib_per_round": sum(r.total_bytes for r in records)
            / len(records)
            / MIB,
            "accuracy_final": history.final_accuracy,
        },
        checks=self_checks(args, workload, out, tta, leaked, checkpoint),
    )
    layers, reasons = layer_facts(args, workload, out, leaked, checkpoint)
    if out.tracer is not None:
        report.update(layer_spans(args, workload, out, layers, reasons))
    for metric in PER_LAYER:
        if metric.name not in layers and not metric.name.startswith("harness."):
            layers[metric.name] = None
            reasons[metric.name] = "read from spans: only the traced run has it"
    report["layers"] = layers
    report["layer_reasons"] = reasons
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "oracle"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--calib-units", type=int, required=True,
                        help="calibration units timed after every round")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--no-twin", action="store_true",
                        help="traced measure runs: skip the untraced twin")
    args = parser.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
