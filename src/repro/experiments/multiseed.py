"""Multi-seed aggregation for the headline efficiency claims.

Micro-scale runs are noisy (10–12 clients, single trajectory); a single
seed can flip the CNN ordering between FedAvg and FedCA. This module runs a
scheme comparison across several seeds and aggregates time-to-target, which
is how EXPERIMENTS.md quotes the ">15 % efficiency improvement" claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configs import WorkloadConfig
from .report import format_table
from .runner import RunSpec, run_scheme

__all__ = ["MultiSeedSummary", "run_multiseed", "format_multiseed"]


@dataclass(frozen=True)
class MultiSeedSummary:
    """Per-scheme aggregate over seeds."""

    scheme: str
    seeds: tuple[int, ...]
    times_to_target: tuple[float, ...]  # NaN where the target was missed
    mean_round_times: tuple[float, ...]

    @property
    def mean_time_to_target(self) -> float:
        """Mean over seeds that reached the target (NaN if none did)."""
        vals = [t for t in self.times_to_target if not np.isnan(t)]
        return float(np.mean(vals)) if vals else float("nan")

    @property
    def hit_rate(self) -> float:
        return float(np.mean([not np.isnan(t) for t in self.times_to_target]))

    @property
    def mean_round_time(self) -> float:
        return float(np.mean(self.mean_round_times))


def run_multiseed(
    cfg: WorkloadConfig,
    schemes: list[str],
    *,
    seeds: tuple[int, ...] = (0, 5, 42),
    rounds: int | None = None,
    cache=None,
) -> dict[str, MultiSeedSummary]:
    """Run every scheme at every seed; returns per-scheme summaries.

    ``cache`` is an optional :class:`~repro.persist.ResultCache`: cells
    already computed by an earlier sweep (any executor) are reused instead
    of re-simulated, so a warm rerun of a schemes × seeds grid costs zero
    simulation."""
    if not seeds:
        raise ValueError("need at least one seed")
    out: dict[str, MultiSeedSummary] = {}
    for scheme in schemes:
        ttas: list[float] = []
        prts: list[float] = []
        display_name = scheme
        for seed in seeds:
            res = run_scheme(RunSpec(cfg, scheme, rounds=rounds, seed=seed), cache=cache)
            display_name = res.scheme
            tta = res.time_to_target
            ttas.append(float("nan") if tta is None else tta)
            prts.append(res.mean_round_time)
        out[display_name] = MultiSeedSummary(
            scheme=display_name,
            seeds=tuple(seeds),
            times_to_target=tuple(ttas),
            mean_round_times=tuple(prts),
        )
    return out


def format_multiseed(
    summaries: dict[str, MultiSeedSummary], *, title: str = ""
) -> str:
    rows = []
    for name, s in summaries.items():
        per_seed = " ".join(
            "—" if np.isnan(t) else f"{t:.0f}" for t in s.times_to_target
        )
        rows.append(
            [
                name,
                f"{s.mean_round_time:.2f}",
                per_seed,
                "—" if np.isnan(s.mean_time_to_target) else f"{s.mean_time_to_target:.1f}",
                f"{s.hit_rate:.0%}",
            ]
        )
    if not title:
        if summaries:
            seeds = next(iter(summaries.values())).seeds
            title = f"Multi-seed comparison over seeds {seeds}"
        else:
            title = "Multi-seed comparison (no results)"
    return format_table(
        ["Scheme", "Per-round (s)", "TTA per seed (s)", "Mean TTA (s)", "Hit rate"],
        rows,
        title=title,
    )
