"""Peak RSS of a ``--scale paper`` environment and one round on it.

A fresh child process — glibc's allocator pinned as the e2e harness pins it
(``benchmarks/e2e/run.py``: the heap is never trimmed, so every transient
stays in the peak) and one BLAS thread — builds the paper-scale FedAvg
environment of ``--workload`` (WRN by default; 128 clients, batch 50) and
runs one round of ``--iterations`` local steps on the default engine. At the
default of one iteration every chunk is one stacked step, so the child's
``ru_maxrss`` is the environment plus the largest step. ``--reference`` runs
the per-client loop (``SerialExecutor``) instead; ``--iterations 125`` is
the paper's round. Prints one JSON line and exits 1 if the peak exceeds
``--ceiling-mib``::

    PYTHONPATH=src python benchmarks/paper_rss.py --ceiling-mib 200
    PYTHONPATH=src python benchmarks/paper_rss.py --workload lstm --ceiling-mib 400
    PYTHONPATH=src python benchmarks/paper_rss.py --iterations 125 --reference
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

PINS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(256 * 2**20),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

CHILD = """
import dataclasses, json, resource, sys, time
from repro.algorithms import build_strategy
from repro.experiments import get_workload, make_environment
from repro.runtime import SerialExecutor

workload, iterations, reference = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
cfg = dataclasses.replace(get_workload(workload, "paper"), local_iterations=iterations)
sim = make_environment(
    cfg,
    build_strategy("fedavg", cfg.optimizer_spec()),
    seed=0,
    executor=SerialExecutor() if reference else None,
)
start = time.perf_counter()
record = sim.run_round()
seconds = time.perf_counter() - start
print(json.dumps({
    "workload": workload,
    "engine": "reference" if reference else "default",
    "width": getattr(sim.executor, "cohort_size", 1),
    "iterations": iterations,
    "round_wall_s": round(seconds, 2),
    "accuracy": record.accuracy,
    "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
}))
"""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("wrn", "cnn", "lstm"), default="wrn")
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--ceiling-mib", type=float, default=None)
    args = parser.parse_args(argv)
    out = subprocess.run(
        [sys.executable, "-c", CHILD, args.workload, str(args.iterations),
         str(int(args.reference))],
        env={**os.environ, **PINS},
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    report = json.loads(out.strip().splitlines()[-1])
    print(json.dumps(report))
    if args.ceiling_mib is not None and report["peak_rss_mib"] > args.ceiling_mib:
        print(
            f"peak RSS {report['peak_rss_mib']} MiB exceeds the {args.ceiling_mib} MiB ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
