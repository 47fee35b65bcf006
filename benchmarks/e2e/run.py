"""End-to-end benchmark of the FedCA simulator with a per-layer time budget.

One command, three uses:

``python benchmarks/e2e/run.py``
    The full set: every workload ``--repeats`` times, interleaved
    (W1, W2, W3, W4, W1, …), plus one traced run per workload for the
    per-layer numbers. Prints every metric by name and unit, checks the
    outputs, writes the raw per-run JSON to ``--out``.

``python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload — the ``BENCHMARK.json`` contract. The last
    stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
    the end-to-end metrics with ``--trace 0``, the per-layer ones with
    ``--trace 1``.

``python benchmarks/e2e/run.py compare A.json B.json``
    improved / unchanged / unresolved / regressed for every
    (workload, metric) of two full-set result files.

The load is a closed loop: this process is the one generator, rounds are
strictly sequential, one workload at a time. Every simulator run is a
fresh child process pinned to one BLAS thread and to a fixed allocator
policy (see ``child.py`` and :data:`MALLOC_PINS`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, WORKER_INTERNAL  # noqa: E402
from report import END_TO_END, compare_results  # noqa: E402
from spans import now, percentile_with_tail  # noqa: E402
from workloads import WORKLOADS, Workload, calibration_units, rounds_for  # noqa: E402

BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: glibc's allocator moves its mmap and trim thresholds with the order in
#: which large arrays happen to be freed, and on ``wrn_fedca_parallel`` that
#: tipped ``peak_rss_mib`` by up to 8 % between seeds, and between two
#: launches that differed only in their environment's size. Every child
#: therefore runs with both thresholds frozen: arrays up to 32 MiB (the top
#: of glibc's dynamic range) come from the heap, and the heap is never
#: trimmed (256 MiB is above any run's footprint). The peak is then the
#: heap's high-water mark: it repeats within 0.3 % for a seed there, seeds
#: differ by 2 %, and round times are the default allocator's within noise.
#: (Freezing the thresholds at their 128 KiB defaults was as steady but
#: 15 % slower on the conv workloads: every temporary is mapped and faulted
#: in afresh.)
MALLOC_PINS = {
    "MALLOC_MMAP_THRESHOLD_": str(32 * 2**20),
    "MALLOC_TRIM_THRESHOLD_": str(256 * 2**20),
}
WORK_DIR = HERE / ".work"
CHILD_TIMEOUT_S = 170
#: A run whose calibration spin drifts by more than this is flagged noisy.
NOISY_DRIFT = 0.10
SMOKE_ROUNDS = 6
ORACLE_ROUNDS = 3
SETUP_SAMPLES = 3


class ChildFailed(RuntimeError):
    """A child process exited non-zero or printed no report."""


def spawn(
    workload: str,
    seed: int,
    rounds: int,
    mode: str,
    trace: int = 0,
    quick: bool = False,
) -> dict:
    """Run ``child.py`` once in a pinned process; returns its report.
    ``quick`` (the smoke run) calibrates a quarter as long and runs no
    untraced twin: it checks that everything is emitted, not how steady or
    how costly it is."""
    units = calibration_units(WORKLOADS[workload])
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=WORK_DIR)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--rounds", str(rounds),
        "--mode", mode,
        "--trace", str(trace),
        "--workdir", workdir,
        "--calib-units", str(max(1, units // 4) if quick else units),
        *(["--no-twin"] if quick else []),
        "--spawned-at", repr(now()),
    ]
    try:
        proc = subprocess.run(
            cmd,
            env={**os.environ, **BLAS_PINS, **MALLOC_PINS},
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(
            f"{workload} ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(lines[-1])


def _calib_drift(report: dict) -> float:
    """Host drift inside one run: mean calibration-unit time over the
    second half of the measured window against the first half."""
    blocks = report["unit_s"][1:]
    half = len(blocks) // 2
    first, second = statistics.mean(blocks[:half]), statistics.mean(blocks[half:])
    return abs(second - first) / first


def scaled_round_walls(report: dict) -> list[float]:
    """Each measured round's wall time over the host slowness *around that
    round*: the mean of the calibration blocks before and after it. Local
    scaling follows drift inside a run; the median over rounds then drops
    the bursts."""
    blocks = report["unit_s"]  # [start, after round 0, after round 1, ...]
    ref = report["unit_ref_s"]
    return [
        wall / ((blocks[i + 1] + blocks[i + 2]) / 2.0 / ref)
        for i, wall in enumerate(report["round_wall_s"])
    ]


def _scaled_layers(report: dict) -> dict:
    """A traced child's per-layer values with every time divided by that
    run's host slowness, like the end-to-end wall-clock metrics."""
    slowness = report["slowness"]
    times = {m.name for m in PER_LAYER if m.unit in ("s/round", "s", "us")}
    return {
        name: value / slowness if name in times and value is not None else value
        for name, value in report["layers"].items()
    }


def _scaled_setup(report: dict) -> float:
    return report["setup_s"] / report["setup_slowness"]


def _fingerprint_check(name: str, got: list, want: list) -> dict:
    n = min(len(got), len(want))
    for a, b in zip(got[:n], want[:n], strict=True):
        if a != b:
            return {
                "name": name,
                "ok": False,
                "detail": f"round {a[0]} differs: {a} != {b}",
            }
    return {"name": name, "ok": n > 0, "detail": f"{n} rounds bit-equal"}


def _tally(rounds: int, checks: list[dict], oracle_ok: bool) -> tuple[int, int]:
    """``(attempted, failed)``: operations are the rounds plus the checks; a
    run whose oracle check fails counts all its rounds as failed."""
    failed = sum(not c["ok"] for c in checks)
    if not oracle_ok:
        failed += rounds
    return rounds + len(checks), failed


def measure_run(workload: Workload, seed: int, rounds: int, quick: bool = False) -> dict:
    """One untraced run: the end-to-end metrics and the correctness gate.
    Set-up is sampled :data:`SETUP_SAMPLES` times (once when ``quick``)."""
    main = spawn(workload.name, seed, rounds, "measure", quick=quick)
    setups = [main] + [
        spawn(workload.name, seed, 1, "setup")
        for _ in range(0 if quick else SETUP_SAMPLES - 1)
    ]
    # The smoke run traces the oracle prefix of a pooled workload right
    # away, so its traced run can reuse it for the worker-internal split.
    oracle = spawn(
        workload.name,
        seed,
        ORACLE_ROUNDS,
        "oracle",
        trace=int(quick and workload.workers > 0),
        quick=quick,
    )
    oracle_check = _fingerprint_check(
        "oracle_prefix", main["fingerprint"][:ORACLE_ROUNDS], oracle["fingerprint"]
    )
    checks = main["checks"] + [oracle_check]
    attempted, failed = _tally(rounds, checks, oracle_check["ok"])
    walls = main["round_wall_s"]
    # Wall-clock metrics are host seconds divided by the measured host
    # slowness (see child.Calibrator); "raw" keeps the unscaled ones.
    slowness = main["slowness"]
    scaled_walls = scaled_round_walls(main)
    metrics = {
        "round_wall_s": statistics.median(scaled_walls),
        "client_iters_per_s": main["iterations"] / main["window_s"] * slowness,
        "setup_s": statistics.median(_scaled_setup(r) for r in setups),
        "peak_rss_mib": main["peak_rss_mib"],
        **main["sim"],
    }
    raw = {
        "round_wall_s": statistics.median(walls),
        "client_iters_per_s": main["iterations"] / main["window_s"],
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "slowness": slowness,
    }
    tail = percentile_with_tail(scaled_walls)
    drift = _calib_drift(main)
    return {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "metrics": metrics,
        "raw": raw,
        "round_wall_s_samples": len(walls),
        "round_wall_s_tail": None
        if tail is None
        else {"percentile": tail[0], "value": tail[1]},
        "setup_s_samples": [_scaled_setup(r) for r in setups],
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "calib_drift_share": drift,
        "noisy": drift > NOISY_DRIFT,
        "child": main,
        "oracle_child": oracle,
    }


def trace_run(
    workload: Workload,
    seed: int,
    rounds: int,
    quick: bool = False,
    oracle: dict | None = None,
) -> dict:
    """One traced run: the per-layer metrics. The child also runs an
    untraced twin of the workload round for round in the same process; the
    median per-round ratio of the two is the tracing overhead. ``oracle``
    is an already traced oracle-prefix report to reuse (smoke run)."""
    traced = spawn(workload.name, seed, rounds, "measure", trace=1, quick=quick)
    layers = _scaled_layers(traced)
    reasons: dict = dict(traced["layer_reasons"])
    sources: dict = {}
    checks = list(traced["checks"])
    if "shadow_fingerprint" in traced:
        checks.append(
            _fingerprint_check(
                "tracing_changes_nothing",
                traced["fingerprint"],
                traced["shadow_fingerprint"],
            )
        )
        ratios = [
            t / p
            for t, p in zip(
                traced["round_wall_s"], traced["shadow_round_wall_s"], strict=True
            )
        ]
        layers["harness.trace_overhead_share"] = statistics.median(ratios) - 1.0
    else:
        layers["harness.trace_overhead_share"] = None
        reasons["harness.trace_overhead_share"] = "smoke run: no untraced twin"
    if workload.workers:
        # The pool workers are opaque to the parent's wrappers; their
        # internal split comes from the traced serial oracle prefix.
        if oracle is None:
            oracle = spawn(
                workload.name, seed, ORACLE_ROUNDS, "oracle", trace=1, quick=quick
            )
        oracle_layers = _scaled_layers(oracle)
        for name in (*WORKER_INTERNAL, "nn.step_us"):
            if layers.get(name) is None and oracle_layers.get(name) is not None:
                layers[name] = oracle_layers[name]
                sources[name] = "serial_oracle_prefix"
                reasons.pop(name, None)
    layers["harness.calib_s"] = statistics.mean(traced["unit_s"])
    layers["harness.calib_drift_share"] = _calib_drift(traced)
    attempted, failed = _tally(rounds, checks, True)
    return {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds,
        "layers": layers,
        "layer_reasons": reasons,
        "layer_sources": sources,
        "oracle_prefix_layers": None if oracle is None else _scaled_layers(oracle),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "child": traced,
    }


# ----------------------------------------------------------------------
# Contract mode: one run, one JSON line
# ----------------------------------------------------------------------
def contract_line(result: dict, trace: int) -> dict:
    if trace:
        metrics = {
            m.name: {
                # A layer that does not run on this workload spends 0 there;
                # the raw results keep the null and its reason.
                "value": result["layers"].get(m.name) or 0.0,
                "unit": m.unit,
            }
            for m in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["metrics"][m.name], "unit": m.unit}
            for m in END_TO_END
            if m.contract
        }
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def run_contract(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    if args.trace:
        result = trace_run(workload, args.seed, rounds_for(workload, args.seconds / 2))
    else:
        result = measure_run(workload, args.seed, rounds_for(workload, args.seconds))
    for check in result["checks"]:
        if not check["ok"]:
            print(f"FAILED {check['name']}: {check['detail']}", file=sys.stderr)
    print(json.dumps(contract_line(result, args.trace)))
    return 0


# ----------------------------------------------------------------------
# Full mode: the whole set, written to a results file
# ----------------------------------------------------------------------
def _commit() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _slim(result: dict) -> dict:
    """A measured run for the results file: without the oracle child and
    without any span table (the traced run keeps its own)."""
    child = {k: v for k, v in result["child"].items() if k != "spans"}
    return {**result, "child": child, "oracle_child": None}


def _layer_cell(traced: dict, metric) -> dict:
    """One per-layer entry of the results file: value and unit, plus the
    reason when null and the source when not read from the traced run."""
    cell = {"value": traced["layers"].get(metric.name), "unit": metric.unit}
    if metric.name in traced["layer_reasons"]:
        cell["reason"] = traced["layer_reasons"][metric.name]
    if metric.name in traced["layer_sources"]:
        cell["source"] = traced["layer_sources"][metric.name]
    return cell


def run_full(args: argparse.Namespace) -> int:
    names = list(WORKLOADS)
    seconds = args.seconds
    repeats = 1 if args.smoke else args.repeats
    runs: dict[str, list[dict]] = {n: [] for n in names}
    discarded: list[dict] = []
    for repeat in range(repeats):
        for name in names:  # interleaved, so drift hits every workload alike
            workload = WORKLOADS[name]
            rounds = SMOKE_ROUNDS if args.smoke else rounds_for(workload, seconds)
            print(f"[{repeat + 1}/{repeats}] {name}: {rounds} rounds", file=sys.stderr)
            result = measure_run(workload, args.seed, rounds, quick=args.smoke)
            if result["noisy"] and not args.smoke:
                print(
                    f"  noisy (calibration drift "
                    f"{100 * result['calib_drift_share']:.1f}%), re-running once",
                    file=sys.stderr,
                )
                discarded.append(_slim(result))
                result = measure_run(workload, args.seed, rounds)
            runs[name].append(result)
    traced: dict[str, dict] = {}
    for name in names:
        workload = WORKLOADS[name]
        print(f"[traced] {name}", file=sys.stderr)
        rounds = SMOKE_ROUNDS if args.smoke else rounds_for(workload, seconds / 2)
        traced[name] = trace_run(
            workload,
            args.seed,
            rounds,
            quick=args.smoke,
            oracle=runs[name][0]["oracle_child"] if args.smoke else None,
        )

    first_child = runs[names[0]][0]["child"]
    out: dict = {
        "schema": 1,
        "commit": _commit(),
        "host": first_child["host"],
        "blas_threads": BLAS_PINS,
        "malloc": MALLOC_PINS,
        "seed": args.seed,
        "seconds": seconds,
        "repeats": repeats,
        "smoke": args.smoke,
        "workloads": {},
        "discarded_noisy_runs": discarded,
    }
    any_failed = False
    for name in names:
        rs, tr = runs[name], traced[name]
        attempted = sum(r["attempted"] for r in rs) + tr["attempted"]
        failed = sum(r["failed"] for r in rs) + tr["failed"]
        any_failed |= failed > 0
        out["workloads"][name] = {
            "why": WORKLOADS[name].why,
            "rounds": rs[0]["rounds"],
            "target_accuracy": WORKLOADS[name].target_accuracy,
            "end_to_end": {
                m.name: {
                    "median": statistics.median(r["metrics"][m.name] for r in rs),
                    "unit": m.unit,
                    "runs": [r["metrics"][m.name] for r in rs],
                }
                for m in END_TO_END
            },
            "round_wall_s_samples": rs[0]["round_wall_s_samples"],
            "round_wall_s_tail": [r["round_wall_s_tail"] for r in rs],
            "failed_share": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "per_layer": {m.name: _layer_cell(tr, m) for m in PER_LAYER},
            "traced_rounds": tr["rounds"],
            "runs": [_slim(r) for r in rs],
            "traced": tr,
        }
    print_report(out)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(out, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 1 if any_failed else 0


def print_report(out: dict) -> None:
    for name, w in out["workloads"].items():
        print(f"\n== {name} ({w['rounds']} rounds, target {w['target_accuracy']}) ==")
        for metric, cell in w["end_to_end"].items():
            runs = ", ".join(f"{v:.6g}" for v in cell["runs"])
            print(f"  {metric:<28} {cell['median']:>14.6g} {cell['unit']:<6} [{runs}]")
        tail = w["round_wall_s_tail"][0]
        if tail is not None:
            print(
                f"  {'round_wall_s p' + format(tail['percentile'], '.0f'):<28} "
                f"{tail['value']:>14.6g} s      "
                f"(diagnostic; {w['round_wall_s_samples']} samples per run)"
            )
        print(
            f"  {'failed_share':<28} {w['failed_share']:>14.6g} ratio  "
            f"({w['failed']} of {w['attempted']} operations)"
        )
        print(f"  -- per layer, traced run of {w['traced_rounds']} rounds --")
        for metric, cell in w["per_layer"].items():
            if cell["value"] is None:
                print(f"  {metric:<40} {'null':>14}  ({cell['reason']})")
            else:
                source = f"  [{cell['source']}]" if "source" in cell else ""
                print(f"  {metric:<40} {cell['value']:>14.6g} {cell['unit']}{source}")
        for run in [*w["runs"], w["traced"]]:
            for check in run["checks"]:
                if not check["ok"]:
                    print(f"  FAILED {check['name']}: {check['detail']}")


def run_compare(args: argparse.Namespace) -> int:
    parent = json.loads(Path(args.files[0]).read_text())
    change = json.loads(Path(args.files[1]).read_text())
    rows = compare_results(parent, change)
    for workload, metric, verdict, detail in rows:
        print(f"{workload:<20} {metric:<22} {verdict:<10} {detail}")
    return 1 if any(r[2] == "regressed" for r in rows) else 0


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("command", nargs="?", choices=("compare",))
    parser.add_argument("files", nargs="*", help="compare: A.json B.json")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_ROUNDS} rounds per workload, one repeat")
    parser.add_argument("--out", default=str(HERE / "results" / "latest.json"),
                        help="full mode: where the raw per-run JSON goes")
    args = parser.parse_args(argv)
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes exactly two result files")
        return run_compare(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload:
        return run_contract(args)
    return run_full(args)


if __name__ == "__main__":
    sys.exit(main())
