"""Trace writer benchmark: producer-side cost and run overhead.

Two measurements, written to ``BENCH_obs.json`` (DESIGN.md §13):

1. **Hot-path ingest rate** — sustained events/sec on the producer
   thread for (a) encoding each event inline in this bench's own loop
   (:func:`~repro.obs.sinks.encode_jsonl` plus a buffered file write per
   event, what a thread-free writer would cost the simulation thread) and
   (b) :meth:`~repro.obs.TraceWriter.write` (one deque append; encoding
   and I/O happen on the flusher thread). The writer's ingest rate must be
   at least ``--min-speedup`` (default 10×) higher; the bench exits
   non-zero otherwise, or if the two files differ by a byte. Queue-drain
   time is reported separately (``drain_s``) — what the writer buys is
   taking the encode+write cost off the simulation thread. The
   ``recorder_events_per_sec`` row gives the full
   :meth:`~repro.obs.TraceRecorder.emit` path into a trace file (event
   construction included) for context.

2. **End-to-end overhead** — wall-clock for the FedCA micro-CNN run with
   telemetry disabled vs a JSONL trace file attached, best-of
   ``--repeats`` alternating pairs. Overhead above ``--max-overhead`` (default 5 %) fails
   the bench; histories must be fingerprint-identical.

Regenerate with::

    PYTHONPATH=src python benchmarks/obs_bench.py --out BENCH_obs.json
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
from repro.obs import TraceEvent, TraceRecorder, TraceWriter  # noqa: E402
from repro.obs.sinks import QUEUE_CAPACITY, encode_jsonl  # noqa: E402


def fingerprint(history):
    return [
        (r.round_index, r.end_time, r.accuracy, r.collected_clients, r.total_bytes)
        for r in history.records
    ]


# ----------------------------------------------------------------------
# 1. Hot-path ingest rate: inline encoding vs the trace writer
# ----------------------------------------------------------------------
def make_events(n: int) -> list:
    return [
        TraceEvent(
            seq=i,
            kind="client.round",
            sim_time=i * 0.01,
            round_index=i >> 5,
            client_id=i & 31,
            fields={"iterations_run": 20, "loss": 0.5},
        )
        for i in range(n)
    ]


def ingest_rate(path: str, events: list, *, writer: bool) -> dict:
    """Time the producer-side write loop, then the drain.

    ``--events`` stays under the writer's queue capacity, so the timed
    section measures pure producer cost — the steady-state regime of a
    real run, where the flusher drains between rounds.
    """
    sink = TraceWriter(path) if writer else open(path, "wb")
    start = time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design
    if writer:
        for event in events:
            sink.write(event)
    else:
        for event in events:
            sink.write(encode_jsonl(event))
    emit_s = time.perf_counter() - start  # reprolint: allow[DET002] benchmark measures wall-clock by design
    start = time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design
    sink.close()
    drain_s = time.perf_counter() - start  # reprolint: allow[DET002] benchmark measures wall-clock by design
    return {
        "path": "writer" if writer else "inline",
        "events": len(events),
        "emit_s": round(emit_s, 4),
        "drain_s": round(drain_s, 4),
        "events_per_sec": round(len(events) / emit_s),
        "trace_bytes": os.path.getsize(path),
    }


def recorder_rate(path: str, *, events: int) -> float:
    """Full-path ``TraceRecorder.emit`` events/sec into a trace file."""
    rec = TraceRecorder(trace_path=path)
    start = time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design
    for i in range(events):
        rec.emit(
            "client.round",
            sim_time=i * 0.01,
            round_index=i >> 5,
            client_id=i & 31,
            iterations_run=20,
            loss=0.5,
        )
    emit_s = time.perf_counter() - start  # reprolint: allow[DET002] benchmark measures wall-clock by design
    rec.close()
    return round(events / emit_s)


def throughput_check(args, report) -> int:
    if args.events > QUEUE_CAPACITY:
        print(
            f"ERROR: --events {args.events} exceeds the writer's queue "
            f"capacity {QUEUE_CAPACITY}; the producer would block",
            file=sys.stderr,
        )
        return 1
    tmp = Path(args.scratch)
    events = make_events(args.events)
    best = {}
    for writer in (False, True):
        key = "writer" if writer else "inline"
        rows = [
            ingest_rate(str(tmp / f"ingest_{key}_{r}.jsonl"), events, writer=writer)
            for r in range(args.repeats)
        ]
        best[key] = max(rows, key=lambda row: row["events_per_sec"])
    best["writer"]["recorder_events_per_sec"] = recorder_rate(
        str(tmp / "ingest_recorder.jsonl"), events=args.events
    )
    inline_bytes = (tmp / "ingest_inline_0.jsonl").read_bytes()
    if (tmp / "ingest_writer_0.jsonl").read_bytes() != inline_bytes:
        print("ERROR: the writer's trace differs from inline encoding",
              file=sys.stderr)
        return 1
    speedup = best["writer"]["events_per_sec"] / best["inline"]["events_per_sec"]
    report["ingest"] = {
        "inline": best["inline"],
        "writer": best["writer"],
        "ingest_speedup": round(speedup, 2),
    }
    print(
        f"ingest: inline={best['inline']['events_per_sec']:,} ev/s  "
        f"writer={best['writer']['events_per_sec']:,} ev/s  "
        f"speedup={speedup:.1f}x (floor {args.min_speedup:.0f}x)"
    )
    if speedup < args.min_speedup:
        print(
            f"ERROR: writer ingest only {speedup:.1f}x inline encoding "
            f"(acceptance floor is {args.min_speedup:.0f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# 2. End-to-end enabled-vs-disabled overhead
# ----------------------------------------------------------------------
def run_once(cfg, rounds: int, seed: int, recorder):
    strategy = build_strategy("fedca", cfg.optimizer_spec())
    sim = make_environment(cfg, strategy, seed=seed, recorder=recorder)
    try:
        start = time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design
        history = sim.run(rounds)
        elapsed = time.perf_counter() - start  # reprolint: allow[DET002] benchmark measures wall-clock by design
    finally:
        sim.close()
    return elapsed, history


def overhead_check(args, report) -> int:
    cfg = replace(
        get_workload("cnn", "micro"),
        num_clients=args.clients,
        num_samples=max(get_workload("cnn", "micro").num_samples, args.clients * 100),
        local_iterations=10,
    )

    trace_path = str(Path(args.scratch) / "overhead_trace.jsonl")
    factories = {
        "disabled": lambda: None,
        "traced": lambda: TraceRecorder(trace_path=trace_path),
    }
    times = {key: [] for key in factories}
    histories = {}
    # Alternate which side runs first, so neither always pays a cold start.
    for r in range(args.repeats):
        for key in sorted(factories, reverse=bool(r % 2)):
            rec = factories[key]()
            elapsed, histories[key] = run_once(cfg, args.rounds, args.seed, rec)
            if rec is not None:
                rec.close()
            times[key].append(elapsed)
    null_s, traced_s = min(times["disabled"]), min(times["traced"])
    if fingerprint(histories["disabled"]) != fingerprint(histories["traced"]):
        print("ERROR: tracing changed the history", file=sys.stderr)
        return 1
    overhead = (traced_s - null_s) / null_s
    report["overhead"] = {
        "clients": args.clients,
        "rounds": args.rounds,
        "disabled_s": round(null_s, 4),
        "traced_s": round(traced_s, 4),
        "overhead_fraction": round(overhead, 4),
        "trace_bytes": os.path.getsize(trace_path),
    }
    print(
        f"overhead: disabled={null_s:.3f}s traced={traced_s:.3f}s "
        f"overhead={overhead * 100:+.1f}% (limit {args.max_overhead * 100:.0f}%)"
    )
    if overhead > args.max_overhead:
        print(
            f"ERROR: trace-writer overhead {overhead * 100:.1f}% exceeds "
            f"{args.max_overhead * 100:.0f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=50_000,
                        help="synthetic events per ingest measurement")
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of repeat count per measurement")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="writer-vs-inline ingest floor (default 10x)")
    parser.add_argument("--max-overhead", type=float, default=0.05,
                        help="end-to-end overhead budget (default 0.05)")
    parser.add_argument("--scratch", default="/tmp",
                        help="directory for scratch trace files")
    parser.add_argument(
        "--out",
        default=str(Path(__file__).parent.parent / "BENCH_obs.json"),
    )
    args = parser.parse_args(argv)

    report = {
        "benchmark": "trace writer producer cost and run overhead",
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "repeats": args.repeats,
    }
    rc = throughput_check(args, report) or overhead_check(args, report)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
