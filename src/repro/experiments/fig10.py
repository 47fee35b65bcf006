"""Fig. 10 — hyperparameter sensitivity (CNN workload).

* (a) marginal-cost ratio β ∈ {0.1, 0.01, 0.001}: β = 0.001 ≈ default;
  β = 0.1 over-penalises pre-deadline compute and slows convergence.
* (b) eager/retransmission thresholds (T_e, T_r) ∈
  {(0.95, 0.6), (0.95, 0.8), (0.85, 0.6)}: performance is stable across
  reasonable settings.
"""

from __future__ import annotations

from dataclasses import replace

from ..core import FedCAConfig
from .configs import get_workload
from .report import format_series, format_table
from .runner import RunSpec, SchemeResult, run_scheme

__all__ = ["run_fig10", "format_fig10", "BETAS", "THRESHOLD_COMBOS"]

BETAS = (0.1, 0.01, 0.001)
THRESHOLD_COMBOS = ((0.95, 0.6), (0.95, 0.8), (0.85, 0.6))


def run_fig10(
    *,
    model: str = "cnn",
    scale: str = "micro",
    rounds: int | None = None,
    seed: int = 0,
) -> dict:
    cfg = get_workload(model, scale)
    spec = RunSpec(cfg, "fedavg", rounds=rounds, stop_at_target=False, seed=seed)
    baseline = run_scheme(spec)

    def fedca(**overrides) -> SchemeResult:
        config = FedCAConfig(profile_every=cfg.fedca_profile_every, **overrides)
        return run_scheme(replace(spec, scheme="fedca", fedca_config=config))

    beta_runs = {beta: fedca(beta=beta) for beta in BETAS}
    threshold_runs = {
        (te, tr): fedca(eager_threshold=te, retransmit_threshold=tr)
        for te, tr in THRESHOLD_COMBOS
    }

    return {
        "model": model,
        "baseline": baseline,
        "beta": beta_runs,
        "thresholds": threshold_runs,
    }


def format_fig10(data: dict) -> str:
    lines = [f"Fig. 10 — sensitivity analysis ({data['model']})"]
    rows = []

    def add(label: str, res: SchemeResult) -> None:
        times, accs = res.history.accuracy_series()
        lines.append(
            format_series(label, times, accs, x_label="time(s)", y_label="acc")
        )
        rows.append(
            [label, f"{res.mean_round_time:.2f}", f"{res.history.best_accuracy():.3f}"]
        )

    add("FedAvg", data["baseline"])
    for beta, res in data["beta"].items():
        add(f"beta={beta}", res)
    for (te, tr), res in data["thresholds"].items():
        add(f"Te={te},Tr={tr}", res)
    lines.append(format_table(["Setup", "Per-round (s)", "Best Acc"], rows))
    return "\n".join(lines)
