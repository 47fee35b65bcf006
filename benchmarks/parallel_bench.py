"""Wall-clock benchmark: default engine vs parallel round execution.

Measures the time to run ``--rounds`` communication rounds of the micro CNN
workload at several client counts under the :class:`SerialExecutor` (the
per-client reference loop, built as an instance), the default engine (the
``serial`` spec, a batched engine) and the :class:`ParallelExecutor`, and
reports the parallel speedup over the default engine. Next to the
wall-clock numbers it records bytes moved per round on each IPC channel
(control pipes, the state frames that carry each job's client blob, and the
shared-memory arenas) and the mean width of the stacked chunks the workers
trained — verifies every history equals the reference loop's, and writes
the measurements to ``BENCH_parallel.json`` so later PRs have a perf
trajectory to compare against. Gates (the bench exits non-zero otherwise):
control-pipe traffic — every pipe direction except ``state`` — stays at or
below 1 % of the arena bytes per round, and the ``state`` bytes equal the
summed lengths of the blobs the jobs carried out and back. (``benchmarks/e2e``
owns the end-to-end timings; this bench keeps the gates it cannot express:
history identity vs the reference loop, the pipe byte gates, the quant8
byte ratio and the leaked-segment check.)

Regenerate with::

    PYTHONPATH=src python benchmarks/parallel_bench.py \
        --clients 8 16 32 --rounds 3 --out BENCH_parallel.json

Speedup scales with usable cores (the JSON records ``usable_cores``) and
with how wide a worker's chunk is; on a single-core machine what is left is
the batching gain minus IPC overhead.

Telemetry modes (PR 2):

* ``--recorder trace [--trace-out PATH]`` runs every measurement with a
  :class:`~repro.obs.TraceRecorder` attached (JSONL streamed to PATH), so
  the bench doubles as an instrumented-run cost probe.
* ``--telemetry-check`` runs the FedCA micro config on the default engine —
  ``NullRecorder`` vs ``TraceRecorder`` with a live JSONL sink, alternating —
  best-of ``--repeats`` each, and exits non-zero if enabled-tracing overhead
  exceeds ``--max-overhead`` (default 10 %). CI runs this and uploads the
  trace artifact.

Wire matrix: unless ``--skip-wire-matrix`` is given, the bench also runs
``{serial, parallel:N} × --wire {raw, quant8}``, recording aggregate-phase
seconds (phase profiler) and raw-vs-wire bytes per round into the JSON.
Gates: every parallel history must match the reference loop's under the
same wire bitwise, quant8 must move at most ``--wire-gate`` (0.3×) of the
raw bytes per round, and no ``repro-ipc*`` arena may remain in /dev/shm
afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import build_strategy  # noqa: E402
from repro.experiments.configs import get_workload, make_environment  # noqa: E402
from repro.obs import PhaseProfiler, TraceRecorder  # noqa: E402
from repro.runtime import SerialExecutor  # noqa: E402
from repro.runtime.parallel import default_workers, fork_available  # noqa: E402
from repro.runtime.transport import (  # noqa: E402
    BROADCAST_SECONDS,
    SEGMENT_PREFIX,
    ipc_bytes_counter,
    shm_available,
)
from repro.runtime.wire import parse_wire_spec  # noqa: E402


#: Ceiling on control-pipe bytes per round as a share of the bytes that
#: ride the shared-memory arenas (measured: ~0.5 %).
CONTROL_BYTES_SHARE = 0.01


def bench_config(num_clients: int):
    """Micro CNN workload resized to ``num_clients`` (shards stay non-tiny)."""
    cfg = get_workload("cnn", "micro")
    return replace(
        cfg,
        num_clients=num_clients,
        num_samples=max(cfg.num_samples, num_clients * 100),
        local_iterations=10,
    )


def run_once(cfg, executor, rounds: int, seed: int, *, scheme="fedavg",
             recorder=None):
    strategy = build_strategy(scheme, cfg.optimizer_spec())
    sim = make_environment(
        cfg, strategy, seed=seed, executor=executor, recorder=recorder
    )
    parallel = sim.executor.name == "parallel"
    kept: dict[int, bytes] = {}
    shipped = 0

    def count_shipped(_record):
        # The parent parks each job's returned blob as a new object, so the
        # clients that ran are those whose blob changed: their old blob went
        # out with the job and the new one came back.
        nonlocal kept, shipped
        now = sim.population.capture_run_state()
        shipped += sum(
            len(kept.get(cid, b"")) + len(blob)
            for cid, blob in now.items()
            if blob is not kept.get(cid)
        )
        kept = now

    try:
        if parallel:
            # Fork the pool (and pay its one-off startup) before timing:
            # steady-state round throughput is what the bench tracks.
            arena = sim.global_model.arena()
            sim.executor.run_round(arena.values, arena.buffers, [])
        start = time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design
        history = sim.run(rounds, progress=count_shipped if parallel else None)
        elapsed = time.perf_counter() - start  # reprolint: allow[DET002] benchmark measures wall-clock by design
        ipc = sim.executor.ipc_stats()
        if parallel:
            # Mean width the workers' stacked steps ran at: a member that
            # stops leaves its chunk's program, so this falls below the
            # chunk width wherever members stop early.
            occupancy = sim.executor.occupancy()
            ipc["worker_chunk_width"] = occupancy["member_steps"] / max(
                occupancy["steps"], 1.0
            )
            ipc["state_bytes_shipped"] = shipped
    finally:
        sim.close()
    return elapsed, history, ipc


def telemetry_check(args) -> int:
    """NullRecorder vs TraceRecorder overhead gate (CI smoke job).

    Best-of-``repeats`` timing absorbs scheduler noise, and the two sides
    alternate so a slow stretch of the host lands on both; the trace run
    streams JSONL to ``--trace-out`` on every repeat so sink I/O is part
    of the measured cost — that is the overhead contract (DESIGN.md §9).
    """
    cfg = bench_config(args.clients[0])
    rounds, seed = args.rounds, args.seed

    def timed(rec):
        elapsed, history, _ = run_once(
            cfg, "serial", rounds, seed, scheme="fedca", recorder=rec
        )
        if rec is not None:
            rec.close()
        return elapsed, history

    null_runs, trace_runs = [], []
    for _ in range(args.repeats):
        null_runs.append(timed(None))
        trace_runs.append(timed(TraceRecorder(trace_path=args.trace_out)))
    null_s, hist_null = min(null_runs, key=lambda run: run[0])
    trace_s, hist_trace = min(trace_runs, key=lambda run: run[0])
    if fingerprint(hist_null) != fingerprint(hist_trace):
        print("ERROR: tracing changed the simulated history", file=sys.stderr)
        return 1
    overhead = (trace_s - null_s) / null_s
    print(
        f"telemetry overhead: null={null_s:.3f}s trace={trace_s:.3f}s "
        f"overhead={overhead * 100:+.1f}% (limit {args.max_overhead * 100:.0f}%)"
    )
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    if overhead > args.max_overhead:
        print(
            f"ERROR: enabled-tracing overhead {overhead * 100:.1f}% exceeds "
            f"{args.max_overhead * 100:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


def channel_bytes(ipc, transport: str) -> float:
    """Round-traffic bytes (broadcast + results) one IPC channel moved —
    on the pipes, every direction except the ``state`` frames."""
    return sum(
        ipc.get(ipc_bytes_counter(transport, direction), 0)
        for direction in ("broadcast", "results")
    )


def fingerprint(history):
    return [
        (r.round_index, r.end_time, r.accuracy, r.collected_clients, r.total_bytes)
        for r in history.records
    ]


def leaked_shm_segments() -> list[str]:
    """Leftover ``repro-ipc*`` segments in /dev/shm (should be none)."""
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return []
    return sorted(
        p.name for p in shm_dir.iterdir() if p.name.startswith(SEGMENT_PREFIX)
    )


def run_profiled(cfg, executor, rounds: int, seed: int, *, wire=None,
                 scheme="fedavg"):
    """One measured run with the phase profiler attached; returns the
    history, aggregate-phase seconds per round, and byte totals."""
    strategy = build_strategy(scheme, cfg.optimizer_spec())
    layer = parse_wire_spec(wire)
    if layer is not None:
        strategy.set_wire(layer)
    profiler = PhaseProfiler()
    sim = make_environment(
        cfg, strategy, seed=seed, executor=executor, profiler=profiler
    )
    try:
        history = sim.run(rounds)
    finally:
        sim.close()
    laps = profiler.round_breakdowns()
    aggregate_s = sum(lap.get("aggregate", 0.0) for lap in laps)
    wire_events = [
        ev["wire"]
        for r in history.records
        for ev in r.client_events.values()
        if "wire" in ev
    ]
    if wire_events:
        wire_bytes = sum(w["wire_bytes"] for w in wire_events)
        raw_bytes = sum(w["raw_bytes"] for w in wire_events)
    else:
        wire_bytes = raw_bytes = sum(r.total_bytes for r in history.records)
    return history, aggregate_s, wire_bytes, raw_bytes


def wire_matrix(args, workers: int) -> tuple[list[dict], int]:
    """``{serial, parallel:N} × {raw, quant8}`` A/B grid.

    Rows record aggregate-phase seconds (phase profiler) and raw-vs-wire
    bytes per round. Gates: every parallel history must match the
    reference loop's under the same wire bitwise, and quant8 must move ≤
    ``--wire-gate`` (0.3×) of the raw bytes per round.
    """
    cfg = bench_config(args.clients[0])
    rounds, seed = args.rounds, args.seed
    shm_ok, shm_reason = shm_available()
    rows: list[dict] = []
    if not (fork_available() and shm_ok):
        print(f"wire matrix skipped (fork/shm unavailable: {shm_reason})")
        return rows, 0

    refs = {}
    for wire in ["raw", "quant8"]:
        hist, aggregate_s, wire_bytes, raw_bytes = run_profiled(
            cfg, SerialExecutor(), rounds, seed, wire=wire
        )
        refs[wire] = fingerprint(hist)
        rows.append(
            {
                "executor": "serial",
                "wire": wire,
                "aggregate_s": round(aggregate_s, 4),
                "wire_bytes_per_round": round(wire_bytes / rounds),
                "raw_bytes_per_round": round(raw_bytes / rounds),
                "histories_identical": True,
            }
        )
        if wire == "quant8":
            ratio = wire_bytes / max(raw_bytes, 1)
            print(
                f"wire=quant8  bytes/round: raw={raw_bytes / rounds / 1024:.1f}KiB "
                f"wire={wire_bytes / rounds / 1024:.1f}KiB  ratio={ratio:.3f} "
                f"(gate <= {args.wire_gate})"
            )
            if ratio > args.wire_gate:
                print(
                    f"ERROR: quant8 moved {ratio:.3f}x the raw bytes "
                    f"(gate is {args.wire_gate}x)",
                    file=sys.stderr,
                )
                return rows, 1

    spec = f"parallel:{workers}"
    for wire in ["raw", "quant8"]:
        hist, aggregate_s, wire_bytes, raw_bytes = run_profiled(
            cfg, spec, rounds, seed, wire=wire
        )
        identical = fingerprint(hist) == refs[wire]
        rows.append(
            {
                "executor": spec,
                "wire": wire,
                "aggregate_s": round(aggregate_s, 4),
                "wire_bytes_per_round": round(wire_bytes / rounds),
                "raw_bytes_per_round": round(raw_bytes / rounds),
                "histories_identical": identical,
            }
        )
        print(
            f"{spec}  wire={wire:6s}  aggregate={aggregate_s:7.4f}s  "
            f"wire_bytes={wire_bytes / rounds / 1024:8.1f}KiB/round  "
            f"identical={identical}"
        )
        if not identical:
            print(
                f"ERROR: {spec} wire={wire} history diverged from the "
                "reference loop's",
                file=sys.stderr,
            )
            return rows, 1

    leaked = leaked_shm_segments()
    if leaked:
        print(
            f"ERROR: leaked shm segments after the wire matrix: {leaked}",
            file=sys.stderr,
        )
        return rows, 1
    return rows, 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel pool size (default: usable cores)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=str(Path(__file__).parent.parent / "BENCH_parallel.json"))
    parser.add_argument("--recorder", default="null", choices=["null", "trace"],
                        help="telemetry recorder attached to every measured run")
    parser.add_argument("--telemetry-check", action="store_true",
                        help="run the NullRecorder-vs-TraceRecorder overhead "
                             "gate instead of the serial/parallel bench")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="JSONL trace destination for trace-recorder runs")
    parser.add_argument("--max-overhead", type=float, default=0.10,
                        help="--telemetry-check failure threshold "
                             "(fraction, default 0.10)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="--telemetry-check best-of repeat count")
    parser.add_argument("--skip-wire-matrix", action="store_true",
                        help="skip the {serial, parallel} × {raw, quant8} "
                             "wire matrix and its gates")
    parser.add_argument("--wire-gate", type=float, default=0.3,
                        help="max quant8 wire/raw bytes-per-round ratio "
                             "(default 0.3)")
    args = parser.parse_args(argv)

    if args.telemetry_check:
        return telemetry_check(args)

    def make_recorder():
        if args.recorder == "trace":
            return TraceRecorder(trace_path=args.trace_out)
        return None

    workers = args.workers or default_workers()
    shm_ok, shm_reason = shm_available()
    pool_ok = fork_available() and shm_ok
    report = {
        "benchmark": "default engine vs parallel round execution (fedavg, micro cnn)",
        "rounds": args.rounds,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "usable_cores": default_workers(),
        "fork_available": fork_available(),
        "shm_available": shm_ok,
        "results": [],
    }
    if not pool_ok:
        print(f"worker pool cannot start here ({shm_reason or 'no fork'}); "
              "serial rows only")

    for n in args.clients:
        cfg = bench_config(n)

        def timed(executor):
            # One recorder at a time: concurrent runs would otherwise hold
            # the same --trace-out file open (the last run's trace is kept).
            rec = make_recorder()
            try:
                return run_once(cfg, executor, args.rounds, args.seed, recorder=rec)
            finally:
                if rec is not None:
                    rec.close()

        reference_s, hist_reference, _ = timed(SerialExecutor())
        default_s, hist_default, _ = timed("serial")
        if not pool_ok:
            report["results"].append(
                {
                    "clients": n,
                    "reference_s": round(reference_s, 4),
                    "default_s": round(default_s, 4),
                }
            )
            continue
        parallel_s, hist_parallel, ipc = timed(f"parallel:{workers}")
        identical = fingerprint(hist_reference) == fingerprint(hist_parallel)
        speedup = default_s / parallel_s if parallel_s > 0 else float("inf")
        pipe_bytes = channel_bytes(ipc, "pipe") / args.rounds
        shm_bytes = channel_bytes(ipc, "shm") / args.rounds
        state_bytes = ipc.get(ipc_bytes_counter("pipe", "state"), 0)
        report["results"].append(
            {
                "clients": n,
                "reference_s": round(reference_s, 4),
                "default_s": round(default_s, 4),
                "parallel_s": round(parallel_s, 4),
                "speedup": round(speedup, 3),
                "worker_chunk_width": round(ipc["worker_chunk_width"], 2),
                "pipe_bytes_per_round": round(pipe_bytes),
                "state_bytes_per_round": round(state_bytes / args.rounds),
                "shm_bytes_per_round": round(shm_bytes),
                "broadcast_seconds": round(ipc.get(BROADCAST_SECONDS, 0.0), 4),
                "histories_identical": identical,
            }
        )
        print(
            f"clients={n:3d}  reference={reference_s:7.3f}s  "
            f"default={default_s:7.3f}s  parallel[{workers}]={parallel_s:7.3f}s  "
            f"speedup={speedup:5.2f}x  pipe={pipe_bytes / 1024:8.1f}KiB/round  "
            f"state={state_bytes / args.rounds / 1024:8.1f}KiB/round  "
            f"shm={shm_bytes / 1024:8.1f}KiB/round  identical={identical}"
        )
        if not identical:
            print(
                "ERROR: the parallel history diverged from the reference loop's",
                file=sys.stderr,
            )
            return 1
        if state_bytes != ipc["state_bytes_shipped"]:
            print(
                f"ERROR: the state frames moved {state_bytes:.0f} B, not the "
                f"{ipc['state_bytes_shipped']} B of blobs the jobs carried",
                file=sys.stderr,
            )
            return 1
        if pipe_bytes > CONTROL_BYTES_SHARE * shm_bytes:
            print(
                f"ERROR: control pipes moved {pipe_bytes:.0f} B/round, more "
                f"than {CONTROL_BYTES_SHARE:.0%} of the {shm_bytes:.0f} B/round "
                "that rode the shared-memory arenas",
                file=sys.stderr,
            )
            return 1

    if not args.skip_wire_matrix:
        rows, rc = wire_matrix(args, workers)
        report["wire"] = rows
        if rc != 0:
            return rc

    leaked = leaked_shm_segments()
    if leaked:
        print(f"ERROR: leaked shm segments: {leaked}", file=sys.stderr)
        return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
