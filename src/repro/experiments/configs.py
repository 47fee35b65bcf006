"""Workload and environment presets for every experiment.

Each paper workload (CNN/CIFAR-10, LSTM/KWS, WRN/CIFAR-100) maps to a
:class:`WorkloadConfig` at one of three scales:

* ``micro`` — the default for benches and tests: 8–16 clients, ~20
  iterations/round, seconds-long simulated rounds. Sized so that the full
  suite runs on one CPU core while preserving the paper's qualitative
  regimes (heterogeneity, mid-round dynamicity at round-comparable
  timescales, communication a significant round-time fraction).
* ``small`` — 32 clients / 50 iterations: closer to the paper's statistical
  regime for the figure-quality experiments.
* ``paper`` — the verbatim §5.1 setup (128 clients, K = 125, batch 50,
  13.7 Mbps links, Γ(2,40)/Γ(2,6) dynamics). Provided for completeness; at
  pure-NumPy speed a full paper-scale run takes hours, so nothing in the
  test/bench suites uses it.

Learning rates are tuned per synthetic workload (the paper's 0.01/0.05/0.1
were tuned for CIFAR/KWS); difficulty (noise, classes) is tuned so accuracy
climbs over tens of rounds rather than saturating instantly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ..algorithms import OptimizerSpec
from ..data import Dataset, dirichlet_partition, make_workload_data
from ..nn import Module, build_model
from ..sysmodel import LinkModel, base_iteration_times
from ..sysmodel.speed import GAMMA_FAST, GAMMA_SLOW

__all__ = ["WorkloadConfig", "get_workload", "make_environment", "SCALES"]

SCALES = ("micro", "small", "paper")


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything needed to instantiate one workload's FL environment."""

    name: str  # cnn / lstm / wrn
    scale: str
    # --- data ---
    num_samples: int
    num_classes: int
    alpha: float  # Dirichlet concentration (paper: 0.1)
    data_seed: int
    # --- model ---
    model_kwargs: dict = field(default_factory=dict)
    model_seed: int = 7
    # --- optimisation (paper §5.1 analogues) ---
    lr: float = 0.05
    weight_decay: float = 0.01
    batch_size: int = 16
    local_iterations: int = 20
    target_accuracy: float = 0.8
    # --- system substrate ---
    num_clients: int = 8
    fastest_iteration_time: float = 0.02
    speed_sigma: float = 0.6
    link_mbps: float = 1.0
    aggregation_fraction: float = 0.9
    deadline_min_fraction: float = 0.5
    gamma_fast: tuple[float, float] = (2.0, 3.0)
    gamma_slow: tuple[float, float] = (2.0, 3.0)
    # --- FedCA scale adaptation ---
    # The paper profiles every 10 rounds over 200–500-round runs; micro runs
    # last ~20 rounds, where a 10-round period leaves the volatile early
    # curves in charge for half the run. 5 keeps the anchor fraction sane.
    fedca_profile_every: int = 5
    # --- run length ---
    default_rounds: int = 30

    # ------------------------------------------------------------------
    def make_data(self) -> tuple[list[Dataset], Dataset]:
        """Build ``(client_shards, test_set)``."""
        train, test = make_workload_data(
            self.name,
            num_samples=self.num_samples,
            num_classes=self.num_classes,
            seed=self.data_seed,
        )
        # min_samples only guards against structurally empty shards; at
        # α = 0.1 with many clients, demanding more would make the Dirichlet
        # draw infeasible (extreme label skew IS the experiment). BatchStream
        # clamps batches to the shard size, so tiny shards still train.
        parts = dirichlet_partition(
            train,
            self.num_clients,
            alpha=self.alpha,
            seed=self.data_seed + 10,
            min_samples=2,
        )
        return [train.subset(p) for p in parts], test

    def model_fn(self) -> Callable[[], Module]:
        """Deterministic model factory (same bytes on server and clients)."""
        name, kwargs, seed = self.name, dict(self.model_kwargs), self.model_seed

        def factory() -> Module:
            return build_model(name, rng=np.random.default_rng(seed), **kwargs)

        return factory

    def optimizer_spec(self) -> OptimizerSpec:
        return OptimizerSpec(lr=self.lr, weight_decay=self.weight_decay)

    def base_iteration_times(self, seed: int = 0) -> np.ndarray:
        return base_iteration_times(
            self.num_clients,
            self.fastest_iteration_time,
            sigma=self.speed_sigma,
            seed=self.data_seed + 20 + seed,
        )

    def link_fn(self) -> Callable[[int], LinkModel]:
        mbps = self.link_mbps

        def make_link(_cid: int) -> LinkModel:
            return LinkModel(uplink_mbps=mbps, downlink_mbps=mbps)

        return make_link


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------
_MICRO: dict[str, WorkloadConfig] = {
    "cnn": WorkloadConfig(
        name="cnn",
        scale="micro",
        num_samples=1500,
        num_classes=10,
        alpha=0.1,
        data_seed=11,
        model_kwargs={},
        lr=0.03,
        weight_decay=0.01,
        batch_size=8,
        local_iterations=40,
        target_accuracy=0.85,
        num_clients=12,
        fastest_iteration_time=0.02,
        speed_sigma=0.8,
        link_mbps=0.3,
        default_rounds=45,
    ),
    "lstm": WorkloadConfig(
        name="lstm",
        scale="micro",
        num_samples=1500,
        num_classes=10,
        alpha=0.1,
        data_seed=12,
        model_kwargs={},
        lr=0.1,
        weight_decay=0.01,
        batch_size=8,
        local_iterations=40,
        target_accuracy=0.8,
        num_clients=12,
        fastest_iteration_time=0.015,
        speed_sigma=0.8,
        link_mbps=0.3,
        default_rounds=50,
    ),
    "wrn": WorkloadConfig(
        name="wrn",
        scale="micro",
        num_samples=2000,
        num_classes=20,
        alpha=0.1,
        data_seed=13,
        model_kwargs={},
        lr=0.1,
        weight_decay=0.0005,
        batch_size=8,
        local_iterations=30,
        target_accuracy=0.35,
        num_clients=10,
        fastest_iteration_time=0.05,
        speed_sigma=0.8,
        link_mbps=0.15,
        default_rounds=35,
    ),
}


def _small(cfg: WorkloadConfig) -> WorkloadConfig:
    return replace(
        cfg,
        scale="small",
        num_clients=32,
        num_samples=cfg.num_samples * 2,
        local_iterations=50,
        default_rounds=60,
    )


def _paper(cfg: WorkloadConfig) -> WorkloadConfig:
    """The verbatim §5.1 environment (slow at NumPy speed — see module doc)."""
    paper_lr = {"cnn": 0.01, "lstm": 0.05, "wrn": 0.1}
    paper_wd = {"cnn": 0.01, "lstm": 0.01, "wrn": 0.0005}
    paper_target = {"cnn": 0.55, "lstm": 0.85, "wrn": 0.55}
    return replace(
        cfg,
        scale="paper",
        num_clients=128,
        num_samples=cfg.num_samples * 8,
        batch_size=50,
        local_iterations=125,
        lr=paper_lr[cfg.name],
        weight_decay=paper_wd[cfg.name],
        target_accuracy=paper_target[cfg.name],
        link_mbps=13.7,
        gamma_fast=GAMMA_FAST,
        gamma_slow=GAMMA_SLOW,
        default_rounds=200,
    )


def get_workload(name: str, scale: str = "micro") -> WorkloadConfig:
    """Look up a workload preset by model name and scale."""
    key = name.lower()
    if key not in _MICRO:
        raise ValueError(f"unknown workload {name!r}; expected cnn/lstm/wrn")
    if scale == "micro":
        return _MICRO[key]
    if scale == "small":
        return _small(_MICRO[key])
    if scale == "paper":
        return _paper(_MICRO[key])
    raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")


def make_environment(
    cfg: WorkloadConfig,
    strategy,
    *,
    seed: int = 0,
    executor=None,
    population: str | None = None,
    recorder=None,
    profiler=None,
):
    """Assemble a :class:`~repro.runtime.FederatedSimulator` for a preset.

    ``executor`` selects the client-execution engine (``None``/``"serial"``,
    ``"parallel[:N]"``, or an :class:`~repro.runtime.Executor` instance);
    ``population`` how many clients the run's pager keeps live
    (``"eager"`` default: every one it built; ``"lazy[:cache=N]"``: at
    most N — see :mod:`repro.scale`); ``recorder`` an optional
    :class:`~repro.obs.Recorder` telemetry sink; ``profiler`` an optional
    :class:`~repro.obs.PhaseProfiler` for wall-clock phase breakdowns.
    """
    from ..runtime import FederatedSimulator

    shards, test = cfg.make_data()
    return FederatedSimulator(
        model_fn=cfg.model_fn(),
        strategy=strategy,
        shards=shards,
        test_set=test,
        base_iteration_times=cfg.base_iteration_times(),
        batch_size=cfg.batch_size,
        local_iterations=cfg.local_iterations,
        aggregation_fraction=cfg.aggregation_fraction,
        deadline_min_fraction=cfg.deadline_min_fraction,
        link_fn=cfg.link_fn(),
        gamma_fast=cfg.gamma_fast,
        gamma_slow=cfg.gamma_slow,
        seed=seed,
        executor=executor,
        population=population,
        recorder=recorder,
        profiler=profiler,
    )
