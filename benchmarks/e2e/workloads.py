"""The four benchmark workloads, built through public entry points only.

Every workload is a function of ``--seed``: the three paper presets pass
it to :func:`make_environment` (client selection, batch order, speed
dynamics), the lazy population also generates its data pool from it. The
*oracle* variant of a workload is the configuration its first three
rounds must reproduce exactly (serial executor, eager or larger cache, no
telemetry) — the repo's byte-identity contract, checked on every run.

The catalogue at the top imports nothing from ``repro``: the parent process
reads it without loading the simulator, and in the child the ``repro``
import happens inside :func:`build_env`, within the timed set-up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

__all__ = [
    "WORKLOADS",
    "Workload",
    "Env",
    "build_env",
    "calibration_units",
    "rounds_for",
]

#: Checkpoint cadence of ``lazy_fedavg_obs`` (also saved after the last
#: round, so every run has a final checkpoint to load back).
CHECKPOINT_EVERY = 10

LAZY_CLIENTS = 20_000
LAZY_CLIENTS_PER_ROUND = 100
LAZY_CLASSES = 4
LAZY_POOL_SEED = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``rounds_per_second`` is the round rate pinned on the reference box
    (2 cores, one BLAS thread); it turns ``--seconds`` into a *fixed*
    round count, so the simulated metrics stay bit-reproducible for a
    given ``(seed, seconds)`` instead of depending on host speed.
    ``target_accuracy`` is the pinned time-to-accuracy target: the highest
    multiple of 0.05 that seeds 0-9 all reach by round ``target_by_round``,
    two thirds of the run at the pinned ``run_seconds`` (the presets' own
    targets are out of reach in runs this short). ``lazy_fedavg_obs``
    keeps the 0.90 the issue pinned; all ten seeds reach it by round 26
    of 31. A run at least ``target_by_round`` long which never reaches
    the target counts as a failed operation.
    """

    name: str
    why: str
    rounds_per_second: float
    target_accuracy: float
    target_by_round: int
    fedca: bool = False
    workers: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cnn_fedavg_serial",
            why="plain single-worker baseline: scalar nn conv/dense kernels and SGD "
            "do the work; FedCA, IPC, pager and telemetry are bypassed",
            rounds_per_second=1.1,
            target_accuracy=0.65,
            target_by_round=8,
        ),
        Workload(
            name="lstm_fedca_cohort",
            why="stacked nn/cohort kernels plus FedCA's batched twin and core Eq. 1-6 "
            "bookkeeping; anchor vs optimised rounds split profiler cost from early stop",
            rounds_per_second=2.0,
            target_accuracy=0.35,
            target_by_round=11,
            fedca=True,
        ),
        Workload(
            name="wrn_fedca_parallel",
            why="only workload with pack/transport, shard tree-reduce, worker scheduling "
            "and the quant8 wire codec; workers run the serial FedCA body",
            rounds_per_second=1.0,
            target_accuracy=0.10,
            target_by_round=8,
            fedca=True,
            workers=2,
        ),
        Workload(
            name="lazy_fedavg_obs",
            why="20000-client lazy population at 100 clients/round: pager, trace sinks, "
            "checkpoints and tiny-tensor nn call overhead; rehydrations rise over the run",
            rounds_per_second=3.7,
            target_accuracy=0.90,
            target_by_round=26,
        ),
    )
}


#: Calibration time after each round, as a share of a nominal round. The
#: host-slowness estimate is only as good as the time spent sampling it.
CALIBRATION_RATIO = 0.4
#: Seconds one calibration unit (``child.Calibrator``) takes on the
#: reference box in its usual state. Only ratios between commits matter;
#: the constant just keeps the scaled metrics close to raw seconds there.
UNIT_REF_S = 0.004


def rounds_for(workload: Workload, seconds: float) -> int:
    """Round count for a measuring time (rounds plus calibration): a
    multiple of 5 plus 1 — round 0 is warm-up, and FedCA anchors fall on
    every 5th round — and at least 6."""
    work_seconds = seconds / (1.0 + CALIBRATION_RATIO)
    return max(1, round(workload.rounds_per_second * work_seconds / 5.0)) * 5 + 1


def calibration_units(workload: Workload) -> int:
    """Calibration units timed after every round of ``workload``."""
    per_round = CALIBRATION_RATIO / workload.rounds_per_second
    return max(1, round(per_round / UNIT_REF_S))


@dataclass
class Env:
    """A built simulator plus the telemetry/persistence it was wired to."""

    sim: Any  # FederatedSimulator
    recorder: Any = None  # TraceRecorder | None
    trace_path: str | None = None
    checkpoint_dir: str | None = None


def _build_lazy(seed: int, oracle: bool, workdir: str) -> Env:
    import numpy as np

    from repro.algorithms import OptimizerSpec, build_strategy
    from repro.data import make_image_dataset, train_test_split
    from repro.nn import LeNetCNN
    from repro.obs import TraceRecorder
    from repro.runtime import FederatedSimulator
    from repro.scale import SubsampledShards
    from repro.sysmodel import iteration_time_for

    # Pool and test set come from ONE generated dataset: two generator
    # seeds give disjoint class prototypes and a meaningless accuracy. The
    # pool is the task, so like the presets' ``data_seed`` it is fixed;
    # ``seed`` draws the federation (shards, selection, order, speeds).
    pool = make_image_dataset(
        num_samples=2560,
        num_classes=LAZY_CLASSES,
        channels=1,
        image_size=8,
        seed=LAZY_POOL_SEED,
    )
    train, test = train_test_split(pool, test_fraction=0.2, seed=LAZY_POOL_SEED + 1)

    def model_fn() -> LeNetCNN:
        return LeNetCNN(
            in_channels=1,
            image_size=8,
            num_classes=LAZY_CLASSES,
            conv_channels=(2, 2),
            fc_sizes=(8, 8),
            rng=np.random.default_rng(7),
        )

    recorder = trace_path = checkpoint_dir = None
    if not oracle:
        trace_path = os.path.join(workdir, "trace.jsonl")
        checkpoint_dir = os.path.join(workdir, "checkpoints")
        recorder = TraceRecorder(trace_path=trace_path, buffered=True)
    sim = FederatedSimulator(
        model_fn=model_fn,
        strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05, weight_decay=0.0)),
        shards=SubsampledShards(train, LAZY_CLIENTS, 16, alpha=0.5, seed=seed),
        test_set=test,
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.01, seed=seed),
        batch_size=8,
        local_iterations=2,
        aggregation_fraction=0.8,
        clients_per_round=LAZY_CLIENTS_PER_ROUND,
        seed=seed,
        population="lazy:cache=256" if oracle else "lazy:cache=64",
        recorder=recorder,
        spill_client_events=not oracle,
    )
    return Env(sim, recorder, trace_path, checkpoint_dir)


def build_env(name: str, seed: int, *, oracle: bool, workdir: str) -> Env:
    """Build workload ``name`` (or its oracle configuration) for ``seed``."""
    if name == "lazy_fedavg_obs":
        return _build_lazy(seed, oracle, workdir)
    if name not in WORKLOADS:
        raise ValueError(
            f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}"
        )
    from repro.algorithms import build_strategy
    from repro.core import FedCAConfig
    from repro.experiments.configs import get_workload, make_environment
    from repro.runtime import parse_wire_spec

    if name == "cnn_fedavg_serial":
        cfg = get_workload("cnn")
        strategy = build_strategy("fedavg", cfg.optimizer_spec())
        return Env(make_environment(cfg, strategy, seed=seed))
    if name == "lstm_fedca_cohort":
        cfg = replace(get_workload("lstm"), num_clients=32)
        strategy = build_strategy(
            "fedca",
            cfg.optimizer_spec(),
            fedca_config=FedCAConfig(profile_every=cfg.fedca_profile_every),
        )
        executor = None if oracle else "cohort:8"
        return Env(make_environment(cfg, strategy, seed=seed, executor=executor))
    cfg = get_workload("wrn")
    strategy = build_strategy(
        "fedca",
        cfg.optimizer_spec(),
        fedca_config=FedCAConfig(profile_every=cfg.fedca_profile_every),
    )
    strategy.set_wire(parse_wire_spec("quant8"))
    executor = None if oracle else "parallel:2@shm+shards=2"
    return Env(make_environment(cfg, strategy, seed=seed, executor=executor))
