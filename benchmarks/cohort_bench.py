"""Wall-clock benchmark: serial vs cohort (batched tensor program) rounds.

Measures the time to run ``--rounds`` communication rounds of the micro CNN,
LSTM and (BatchNorm) WRN workloads under the :class:`SerialExecutor` and the
:class:`CohortExecutor` at several cohort sizes, on one process and one
core.  The baseline is the per-client reference loop, built as an instance:
the ``serial`` spec is itself a batched engine, against which ``cohort:M``
would read about 1.0x.  Unlike the parallel bench, the speedup here comes
from arithmetic intensity — M clients' forward/backward/optimizer steps
fused into single stacked GEMMs — not from extra cores.

A/B equivalence is asserted on every row: the simulated timeline, byte
counts and collected-client sets must be *exactly* equal to serial (all
scalar bookkeeping runs per-member), and evaluation accuracy must agree
within a small tolerance (a client whose shard is smaller than a batch is
zero-padded, which BLAS may round differently, see DESIGN.md §12);
``histories_identical`` records whether the row was serial's to the last
bit of ``mean_loss`` on the machine that ran it.

Acceptance gate: no row may be slower than serial — every
(workload, clients, cohort size) must reach ``--min-speedup`` (default
1.0); the bench exits non-zero otherwise.  (The CNN ``cohort:32`` >= 2x
floor was met only while the serial conv kernels were slow; PR 12 sped
serial up to 1.4-1.8x of cohort.  ROADMAP item 1 re-derives a CNN bound.)
CI runs this in the bench-smoke job and uploads ``BENCH_cohort.json``.

Regenerate with::

    PYTHONPATH=src python benchmarks/cohort_bench.py \
        --clients 32 --rounds 3 --cohort-sizes 8 32 --out BENCH_cohort.json
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
from repro.runtime import SerialExecutor  # noqa: E402
from repro.runtime.parallel import default_workers  # noqa: E402


def bench_config(workload: str, num_clients: int):
    """Micro workload resized to ``num_clients`` (shards stay non-tiny).
    ``wrn`` is the preset's BatchNorm WideResNet, ``wrn-gn`` its group-norm
    variant."""
    cfg = get_workload(workload.removesuffix("-gn"), "micro")
    return replace(
        cfg,
        num_clients=num_clients,
        num_samples=max(cfg.num_samples, num_clients * 100),
        local_iterations=10,
        model_kwargs={"norm": "group"} if workload == "wrn-gn" else cfg.model_kwargs,
    )


def run_once(cfg, executor, rounds: int, seed: int, *, scheme="fedavg"):
    strategy = build_strategy(scheme, cfg.optimizer_spec())
    sim = make_environment(cfg, strategy, seed=seed, executor=executor)
    try:
        start = time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design
        history = sim.run(rounds)
        elapsed = time.perf_counter() - start  # reprolint: allow[DET002] benchmark measures wall-clock by design
        occupancy = (
            sim.executor.occupancy()
            if hasattr(sim.executor, "occupancy")
            else None
        )
    finally:
        sim.close()
    return elapsed, history, occupancy


def timeline(history):
    """The parts of the history that must be *exactly* serial-equal."""
    return [
        (r.round_index, r.end_time, r.collected_clients, r.total_bytes)
        for r in history.records
    ]


def fingerprint(history):
    return [
        (r.round_index, r.end_time, r.accuracy, r.mean_loss, r.collected_clients,
         r.total_bytes)
        for r in history.records
    ]


def max_accuracy_diff(a, b):
    return max(
        (abs(ra.accuracy - rb.accuracy) for ra, rb in zip(a.records, b.records)),
        default=0.0,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workloads", nargs="+", default=["cnn", "lstm", "wrn"],
                        choices=["cnn", "lstm", "wrn", "wrn-gn"])
    parser.add_argument("--clients", type=int, nargs="+", default=[32])
    parser.add_argument("--cohort-sizes", type=int, nargs="+", default=[8, 32])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--scheme", default="fedavg")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="speedup-vs-serial floor every row must reach "
                             "(default 1.0; 0 makes a run equivalence-only)")
    parser.add_argument("--accuracy-atol", type=float, default=0.02,
                        help="max tolerated per-round accuracy deviation")
    parser.add_argument("--out",
                        default=str(Path(__file__).parent.parent / "BENCH_cohort.json"))
    args = parser.parse_args(argv)

    report = {
        "benchmark": "serial vs cohort batched rounds "
                     f"({args.scheme}, micro {'/'.join(args.workloads)}, single core)",
        "rounds": args.rounds,
        "cpu_count": os.cpu_count(),
        "usable_cores": default_workers(),
        "min_speedup_gate": args.min_speedup,
        "results": [],
    }
    failures = []

    for workload in args.workloads:
        for n in args.clients:
            cfg = bench_config(workload, n)
            serial_s, hist_serial, _ = run_once(
                cfg, SerialExecutor(), args.rounds, args.seed, scheme=args.scheme
            )
            for m in args.cohort_sizes:
                cohort_s, hist_cohort, occ = run_once(
                    cfg, f"cohort:{m}", args.rounds, args.seed,
                    scheme=args.scheme,
                )
                speedup = serial_s / cohort_s if cohort_s > 0 else float("inf")
                exact = fingerprint(hist_serial) == fingerprint(hist_cohort)
                timeline_ok = timeline(hist_serial) == timeline(hist_cohort)
                acc_diff = max_accuracy_diff(hist_serial, hist_cohort)
                equivalent = timeline_ok and acc_diff <= args.accuracy_atol
                report["results"].append(
                    {
                        "workload": workload,
                        "clients": n,
                        "cohort_size": m,
                        "serial_s": round(serial_s, 4),
                        "cohort_s": round(cohort_s, 4),
                        "speedup": round(speedup, 3),
                        "occupancy": round(occ["occupancy"], 4) if occ else None,
                        "timeline_identical": timeline_ok,
                        "histories_identical": exact,
                        "max_accuracy_diff": round(acc_diff, 6),
                    }
                )
                print(
                    f"{workload:6s} clients={n:3d}  serial={serial_s:7.3f}s  "
                    f"cohort:{m:<3d}={cohort_s:7.3f}s  speedup={speedup:5.2f}x  "
                    f"occupancy={occ['occupancy'] if occ else 0:.3f}  "
                    f"equivalent={equivalent}"
                )
                if not equivalent:
                    failures.append(
                        f"{workload}@{n} cohort:{m}: diverged from serial "
                        f"(timeline_identical={timeline_ok}, "
                        f"max_accuracy_diff={acc_diff:.4f})"
                    )
                if speedup < args.min_speedup:
                    failures.append(
                        f"{workload}@{n} cohort:{m} speedup {speedup:.2f}x "
                        f"below the {args.min_speedup:.1f}x floor"
                    )

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
