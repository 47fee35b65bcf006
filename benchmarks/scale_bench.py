"""Scale benchmark: the client pager at every capacity (repro.scale).

Two measurements, written to ``BENCH_scale.json``:

* **A/B** at a moderate population (default 2000 clients, ~1 %
  participation): the same run under ``--population eager`` (a pager
  that never evicts) and ``--population lazy`` (one that does), asserting
  the history SHA-256 digests are identical (eviction is invisible to the
  run) and recording setup time, per-round time and peak RSS for both.
* **Large** lazy-only run (default 100 000 clients, 0.1 % participation):
  reports microseconds per client creation (``us_per_creation``: time
  inside ``ClientFactory.create``, ``derive`` and ``page``, less the model replicas
  the first page-ins build, over ``cache.creations``) and per eviction
  (``us_per_eviction``: capture, encode and replica release, over
  ``cache.evictions``) and per pace drawn (``us_per_pace``: time inside
  the pace callable, which the simulator asks once per selection with
  every cid it has not drawn, over the cids it was asked for)
  and demonstrates flat memory — peak RSS is gated by ``--rss-ceiling-mb``
  (CI pins a ceiling far below what keeping every touched client live
  would need) — and that paging builds no models: the run fails if
  ``model_fn`` ran more than ``resident_clients + 2`` times (one replica
  per cache slot, the global model, one spare) however many clients it
  created.
* **Traced** lazy construction at the A/B size and at the large size:
  ``traced_setup_s`` is the least of five timed constructions with a
  ``TraceRecorder(trace_path=...)`` attached (the recorder's creation
  included), then the run's rounds go to that trace file and the report
  records its line count. Construction enumerates no client, so the run
  fails if ``traced_setup_s`` at the large size exceeds twice that at the
  A/B size.
* **Long** lazy run (``--long-rounds``, default 200 rounds of 100 out of
  20 000 clients at ``lazy:cache=64``, a checkpoint every 50 rounds):
  memory must stay flat in *rounds* too. Most of the population ends up
  parked in the pager, so the run fails if peak RSS after the last round
  exceeds peak RSS after round 20 by more than ``--long-rss-growth-mb``
  (the parked clients are a few hundred bytes each — see
  ``snapshot_bytes`` in the report), or if loading its last checkpoint
  back takes longer than ``--long-load-seconds``.

Each measurement runs in a **child process** (``--phase`` mode) that
reports its own ``ru_maxrss``: peak RSS is a high-watermark per process,
so phases measured in one process would contaminate each other.

The workload is deliberately tiny (8×8 mono images, a 2-channel LeNet,
16-sample shards from a fixed pool via :class:`SubsampledShards`, per-cid
pace from :func:`iteration_time_for`) — the bench measures the *population
machinery*, not SGD throughput.

Regenerate with (the CI scale job's gates)::

    PYTHONPATH=src python benchmarks/scale_bench.py --rounds 2 \
        --rss-ceiling-mb 400 --long-rss-growth-mb 40 --long-load-seconds 0.1 \
        --out BENCH_scale.json

The million-client acceptance run (1 % participation; CI's scale job runs
it as its own step)::

    PYTHONPATH=src python benchmarks/scale_bench.py --ab-clients 0 \
        --large-clients 1000000 --large-participation 0.01 \
        --rounds 1 --long-rounds 0 --rss-ceiling-mb 1024
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.algorithms import build_strategy  # noqa: E402
from repro.algorithms.base import OptimizerSpec  # noqa: E402
from repro.data import make_image_dataset, train_test_split  # noqa: E402
from repro.nn import LeNetCNN  # noqa: E402
from repro.obs import TraceRecorder  # noqa: E402
from repro.persist import RunCheckpoint, list_checkpoints, save_run_checkpoint  # noqa: E402
from repro.runtime import FederatedSimulator  # noqa: E402
from repro.runtime import history_to_json  # noqa: E402
from repro.runtime.parallel import default_workers  # noqa: E402
from repro.scale import SubsampledShards  # noqa: E402
from repro.sysmodel import iteration_time_for  # noqa: E402

POOL_SAMPLES = 2048
TEST_SAMPLES = 128
SHARD_SIZE = 16
NUM_CLASSES = 4

#: The long lazy run: population, selection, and the round whose peak RSS
#: the final one is compared with (past warm-up: the cache is full, the
#: first checkpoint is not yet written).
LONG_CLIENTS = 20_000
LONG_CLIENTS_PER_ROUND = 100
LONG_RSS_MARK_ROUND = 20
LONG_CHECKPOINT_EVERY = 50

#: Timed traced constructions per traced leg; the least is reported.
TRACED_SETUP_REPEATS = 5
#: The traced gate: large-population traced setup over A/B traced setup.
TRACED_SETUP_MAX_RATIO = 2.0


def _clock() -> float:
    return time.perf_counter()  # reprolint: allow[DET002] benchmark measures wall-clock by design


def peak_rss_bytes() -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def model_fn():
    return LeNetCNN(
        in_channels=1,
        image_size=8,
        num_classes=NUM_CLASSES,
        conv_channels=(2, 2),
        fc_sizes=(8, 8),
        rng=np.random.default_rng(7),
    )


def pace(cids):
    return iteration_time_for(cids, 0.01, seed=0)


def build_sim(
    num_clients: int,
    clients_per_round: int,
    population: str | None,
    model_fn=model_fn,
    recorder=None,
    pace=pace,
):
    # Pool and test set come from ONE generated dataset: two generator
    # seeds give disjoint class prototypes and a chance-level accuracy.
    data = make_image_dataset(
        num_samples=POOL_SAMPLES + TEST_SAMPLES, num_classes=NUM_CLASSES,
        channels=1, image_size=8, seed=5,
    )
    pool, test = train_test_split(
        data, test_fraction=TEST_SAMPLES / (POOL_SAMPLES + TEST_SAMPLES), seed=6
    )
    return FederatedSimulator(
        model_fn=model_fn,
        strategy=build_strategy(
            "fedavg", OptimizerSpec(lr=0.05, weight_decay=0.0)
        ),
        shards=SubsampledShards(pool, num_clients, SHARD_SIZE, alpha=0.5, seed=9),
        test_set=test,
        base_iteration_times=pace,
        batch_size=8,
        local_iterations=4,
        aggregation_fraction=0.8,
        clients_per_round=clients_per_round,
        seed=1,
        population=population,
        recorder=recorder,
    )


def run_traced_phase(args) -> dict:
    """Child-process body of a traced leg, JSON report on stdout."""
    with tempfile.TemporaryDirectory(prefix="scale-bench-trace-") as tmp:
        path = Path(tmp) / "trace.jsonl"
        setups = []
        for _ in range(TRACED_SETUP_REPEATS):
            if setups:
                sim.close()
                sim.recorder.close()
            t0 = _clock()
            sim = build_sim(
                args.clients, args.clients_per_round, args.population,
                recorder=TraceRecorder(trace_path=str(path)),
            )
            setups.append(_clock() - t0)
        try:
            t1 = _clock()
            sim.run(args.rounds)
            run_seconds = _clock() - t1
        finally:
            sim.close()
            sim.recorder.close()
        with path.open("rb") as trace:
            trace_lines = sum(1 for _ in trace)
        trace_bytes = path.stat().st_size
    return {
        "population": args.population,
        "clients": args.clients,
        "clients_per_round": args.clients_per_round,
        "rounds": args.rounds,
        "traced_setup_s": min(setups),
        "traced_setup_runs_s": setups,
        "run_seconds": run_seconds,
        "trace_lines": trace_lines,
        "trace_bytes": trace_bytes,
    }


def run_phase(args) -> dict:
    """Child-process body: one measured run, JSON report on stdout."""
    models_built = []
    model_seconds = [0.0, False]

    def counting_model_fn():
        models_built.append(1)
        return model_fn()

    pace_seconds, paces_drawn = [0.0, False], [0]

    def counting_pace(cids):
        paces_drawn[0] += np.size(cids)
        return pace(cids)

    t0 = _clock()
    sim = build_sim(
        args.clients, args.clients_per_round, args.population,
        _timed(counting_model_fn, model_seconds), pace=_timed(counting_pace, pace_seconds),
    )
    setup_seconds = _clock() - t0
    long_run: dict = {}
    paging_seconds = [0.0, False]
    eviction_seconds = [0.0, False]
    # Time every creation, batched seed derivation included; the model
    # replicas the first page-ins build are timed apart and left out.
    # An eviction is timed whole: capture, encode, replica release.
    model_seconds[0] = 0.0
    factory = sim.population.factory
    for name in ("create", "derive", "page"):
        setattr(factory, name, _timed(getattr(factory, name), paging_seconds))
    cache = sim.population.cache
    cache._evict_one = _timed(cache._evict_one, eviction_seconds)
    try:
        t1 = _clock()
        if args.checkpoint_every:
            with tempfile.TemporaryDirectory(prefix="scale-bench-ckpt-") as ckpt_dir:
                history = sim.run(
                    args.rounds,
                    progress=lambda record: _after_long_round(
                        sim, record.round_index + 1, args, ckpt_dir, long_run
                    ),
                )
                run_seconds = _clock() - t1
                long_run["peak_rss_bytes_after_run"] = peak_rss_bytes()
                _, last = list_checkpoints(ckpt_dir)[-1]
                t2 = _clock()
                loaded = RunCheckpoint.load(last)
                long_run["checkpoint_load_seconds"] = _clock() - t2
                long_run["checkpoint_bytes"] = Path(last).stat().st_size
                long_run["checkpoint_clients"] = len(loaded.clients)
        else:
            history = sim.run(args.rounds)
            run_seconds = _clock() - t1
        digest = hashlib.sha256(
            history_to_json(history).encode()
        ).hexdigest()
    finally:
        sim.close()
    if long_run:
        long_run["parked_clients"] = cache.parked_clients
        long_run["snapshot_bytes"] = cache.snapshot_bytes
    return {
        **long_run,
        "population": args.population or "eager",
        "clients": args.clients,
        "clients_per_round": args.clients_per_round,
        "rounds": args.rounds,
        "setup_seconds": setup_seconds,
        "run_seconds": run_seconds,
        "seconds_per_round": run_seconds / args.rounds,
        "peak_rss_bytes": peak_rss_bytes(),
        "resident_clients": len(cache),
        "creations": cache.creations,
        "us_per_creation": (
            (paging_seconds[0] - model_seconds[0]) / cache.creations * 1e6
            if cache.creations
            else None
        ),
        "us_per_eviction": (
            eviction_seconds[0] / cache.evictions * 1e6 if cache.evictions else None
        ),
        "us_per_pace": pace_seconds[0] / paces_drawn[0] * 1e6 if paces_drawn[0] else None,
        "models_built": len(models_built),
        "usable_cores": default_workers(),
        "final_accuracy": history.final_accuracy,
        "history_sha256": digest,
    }


def _timed(fn, total: list):
    """``fn`` adding its wall time to ``total[0]`` (not again when one timed
    callable calls another: ``create`` derives a batch of one itself)."""

    def timed(*args, **kwargs):
        if total[1]:
            return fn(*args, **kwargs)
        total[1] = True
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            total[0] += _clock() - t0
            total[1] = False

    return timed


def _after_long_round(sim, rounds_done: int, args, ckpt_dir: str, out: dict) -> None:
    """Long-run bookkeeping between rounds: the two RSS marks, and a
    checkpoint every ``--checkpoint-every`` rounds."""
    if rounds_done % args.checkpoint_every == 0:
        t0 = _clock()
        save_run_checkpoint(sim, ckpt_dir)
        out["checkpoint_save_seconds"] = _clock() - t0
    if rounds_done == LONG_RSS_MARK_ROUND:
        out["peak_rss_bytes_at_mark"] = peak_rss_bytes()


def spawn_phase(
    clients: int,
    clients_per_round: int,
    rounds: int,
    population: str | None,
    checkpoint_every: int = 0,
    traced: bool = False,
) -> dict:
    """Run one measurement in a fresh process so ru_maxrss is per-phase."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--phase",
        "--clients", str(clients),
        "--clients-per-round", str(clients_per_round),
        "--rounds", str(rounds),
        "--checkpoint-every", str(checkpoint_every),
    ]
    if population:
        cmd += ["--population", population]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"phase {population or 'eager'}/{clients} failed:\n{proc.stderr}"
        )
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phase", action="store_true",
                        help="internal: run one measured phase and print JSON")
    parser.add_argument("--population", default=None,
                        help="population spec for --phase (default eager)")
    parser.add_argument("--traced", action="store_true",
                        help="for --phase: time traced constructions, count "
                             "the run's trace lines")
    parser.add_argument("--clients", type=int, default=2000,
                        help="population size for --phase")
    parser.add_argument("--clients-per-round", type=int, default=20,
                        help="selected clients per round for --phase")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--checkpoint-every", type=int, default=0,
                        help="for --phase: checkpoint every N rounds, mark "
                             "RSS, time the last checkpoint's load")
    parser.add_argument("--ab-clients", type=int, default=2000,
                        help="population size for the eager-vs-lazy A/B "
                             "(0 skips the A/B)")
    parser.add_argument("--ab-participation", type=float, default=0.01)
    parser.add_argument("--large-clients", type=int, default=100_000,
                        help="population size for the lazy-only large run "
                             "(0 skips it)")
    parser.add_argument("--large-participation", type=float, default=0.001)
    parser.add_argument("--rss-ceiling-mb", type=float, default=None,
                        help="fail if the large lazy run's peak RSS exceeds "
                             "this many MiB")
    parser.add_argument("--long-rounds", type=int, default=200,
                        help="rounds of the long lazy:cache=64 run with a "
                             f"checkpoint every {LONG_CHECKPOINT_EVERY} (0 skips it)")
    parser.add_argument("--long-rss-growth-mb", type=float, default=None,
                        help="fail if the long run's peak RSS after its last "
                             f"round exceeds that after round {LONG_RSS_MARK_ROUND} "
                             "by more than this many MiB")
    parser.add_argument("--long-load-seconds", type=float, default=None,
                        help="fail if loading the long run's last checkpoint "
                             "takes longer than this")
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args()

    if args.phase:
        print(json.dumps(run_traced_phase(args) if args.traced else run_phase(args)))
        return 0

    report: dict = {"workload": {
        "pool_samples": POOL_SAMPLES, "shard_size": SHARD_SIZE,
        "num_classes": NUM_CLASSES, "local_iterations": 4, "rounds": args.rounds,
    }}
    failures = []

    if args.ab_clients:
        per_round = max(1, round(args.ab_clients * args.ab_participation))
        eager = spawn_phase(args.ab_clients, per_round, args.rounds, None)
        lazy = spawn_phase(args.ab_clients, per_round, args.rounds, "lazy")
        report["ab"] = {"eager": eager, "lazy": lazy}
        if eager["history_sha256"] != lazy["history_sha256"]:
            failures.append(
                "A/B history digests differ: the evicting pager is not "
                f"bitwise-identical to the never-evicting one ({lazy['history_sha256']} != {eager['history_sha256']})"
            )
        print(f"A/B @ {args.ab_clients} clients, {per_round}/round:")
        for row in (eager, lazy):
            print(
                f"  {row['population']:>5}: setup {row['setup_seconds']:.2f}s, "
                f"{row['seconds_per_round']:.4f}s/round, "
                f"{row['models_built']} models built, "
                f"peak RSS {row['peak_rss_bytes'] / 2**20:.1f} MiB"
            )
        print(f"  histories identical: "
              f"{eager['history_sha256'] == lazy['history_sha256']}")

    if args.large_clients:
        per_round = max(1, round(args.large_clients * args.large_participation))
        large = spawn_phase(args.large_clients, per_round, args.rounds, "lazy")
        report["large"] = large
        rss_mib = large["peak_rss_bytes"] / 2**20
        print(
            f"large lazy @ {args.large_clients} clients, {per_round}/round: "
            f"setup {large['setup_seconds']:.2f}s, "
            f"{large['seconds_per_round']:.2f}s/round, "
            f"{large['creations']} creations "
            f"({large['us_per_creation']:.0f} us each without model builds), "
            f"{large['us_per_eviction']:.0f} us per eviction, "
            f"{large['us_per_pace']:.0f} us per pace, "
            f"{large['models_built']} models built, "
            f"peak RSS {rss_mib:.1f} MiB"
        )
        if large["models_built"] > large["resident_clients"] + 2:
            failures.append(
                f"large lazy run built {large['models_built']} models for "
                f"{large['resident_clients']} resident clients: page-ins are "
                "building replicas instead of taking the emptied slot's"
            )
        if args.rss_ceiling_mb is not None:
            report["rss_ceiling_mb"] = args.rss_ceiling_mb
            if rss_mib > args.rss_ceiling_mb:
                failures.append(
                    f"large lazy run peak RSS {rss_mib:.1f} MiB exceeds the "
                    f"{args.rss_ceiling_mb:.1f} MiB ceiling"
                )
            else:
                print(f"  RSS gate: {rss_mib:.1f} <= {args.rss_ceiling_mb:.1f} "
                      "MiB ceiling")

    if args.ab_clients and args.large_clients:
        traced = {}
        for leg, clients, participation in (
            ("ab", args.ab_clients, args.ab_participation),
            ("large", args.large_clients, args.large_participation),
        ):
            per_round = max(1, round(clients * participation))
            traced[leg] = spawn_phase(clients, per_round, args.rounds, "lazy", traced=True)
        ratio = traced["large"]["traced_setup_s"] / traced["ab"]["traced_setup_s"]
        traced["setup_ratio"] = ratio
        traced["max_setup_ratio"] = TRACED_SETUP_MAX_RATIO
        report["traced"] = traced
        for leg in ("ab", "large"):
            row = traced[leg]
            print(
                f"traced lazy @ {row['clients']} clients: setup "
                f"{row['traced_setup_s']:.3f}s (least of {TRACED_SETUP_REPEATS}), "
                f"{row['trace_lines']} trace lines ({row['trace_bytes']} B) "
                f"after {row['rounds']} rounds"
            )
        if ratio > TRACED_SETUP_MAX_RATIO:
            failures.append(
                f"traced lazy setup at {args.large_clients} clients is {ratio:.1f}x "
                f"that at {args.ab_clients}, over the {TRACED_SETUP_MAX_RATIO:.0f}x "
                "bound: construction enumerates the population"
            )
        else:
            print(f"  traced setup gate: {ratio:.2f}x <= {TRACED_SETUP_MAX_RATIO:.0f}x")

    if args.long_rounds:
        long = spawn_phase(
            LONG_CLIENTS, LONG_CLIENTS_PER_ROUND, args.long_rounds,
            "lazy:cache=64", checkpoint_every=LONG_CHECKPOINT_EVERY,
        )
        report["long"] = long
        growth_mib = (
            long["peak_rss_bytes_after_run"] - long["peak_rss_bytes_at_mark"]
        ) / 2**20
        long["rss_growth_mib"] = growth_mib
        print(
            f"long lazy:cache=64 @ {LONG_CLIENTS} clients, "
            f"{LONG_CLIENTS_PER_ROUND}/round, {args.long_rounds} rounds: "
            f"{long['seconds_per_round']:.3f}s/round, "
            f"{long['us_per_creation']:.0f} / {long['us_per_eviction']:.0f} / "
            f"{long['us_per_pace']:.0f} us per creation / eviction / pace, peak RSS "
            f"{long['peak_rss_bytes_at_mark'] / 2**20:.1f} MiB after round "
            f"{LONG_RSS_MARK_ROUND} -> {long['peak_rss_bytes_after_run'] / 2**20:.1f} MiB "
            f"after round {args.long_rounds} (+{growth_mib:.1f}); "
            f"{long['parked_clients']} parked clients in "
            f"{long['snapshot_bytes'] / 2**20:.2f} MiB "
            f"({long['snapshot_bytes'] / max(1, long['parked_clients']):.0f} B each); "
            f"last checkpoint {long['checkpoint_bytes'] / 2**20:.2f} MiB, "
            f"save {long['checkpoint_save_seconds']:.3f}s, "
            f"load {long['checkpoint_load_seconds']:.3f}s"
        )
        if args.long_rss_growth_mb is not None:
            report["long_rss_growth_mb"] = args.long_rss_growth_mb
            if growth_mib > args.long_rss_growth_mb:
                failures.append(
                    f"long lazy run grew {growth_mib:.1f} MiB of peak RSS between "
                    f"round {LONG_RSS_MARK_ROUND} and round {args.long_rounds}, "
                    f"over the {args.long_rss_growth_mb:.1f} MiB bound"
                )
        if args.long_load_seconds is not None:
            report["long_load_seconds"] = args.long_load_seconds
            if long["checkpoint_load_seconds"] > args.long_load_seconds:
                failures.append(
                    f"loading the long run's last checkpoint took "
                    f"{long['checkpoint_load_seconds']:.3f}s, over the "
                    f"{args.long_load_seconds:.3f}s bound"
                )

    report["failures"] = failures
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
