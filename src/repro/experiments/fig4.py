"""Fig. 4 — progress-curve similarity across consecutive rounds.

The justification for *periodical* profiling: the statistical-progress
curve of one client changes little between adjacent rounds (at both early
and late stages), so an anchor round's curve remains valid for the next
``profile_every − 1`` rounds. We quantify similarity as the maximum
absolute pointwise gap between each round's curve and the window's first
(anchor) curve.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import build_strategy
from .configs import get_workload, make_environment
from .probe import probe_curves
from .report import format_series

__all__ = ["run_fig4", "format_fig4", "curve_window_deviation"]


def curve_window_deviation(curves: list[np.ndarray]) -> float:
    """Max pointwise |P_τ difference| of later curves vs the first curve."""
    if len(curves) < 2:
        raise ValueError("need at least two curves")
    anchor = curves[0]
    return max(float(np.max(np.abs(c - anchor))) for c in curves[1:])


def run_fig4(
    *,
    model: str = "cnn",
    scale: str = "micro",
    early_start: int = 2,
    late_start: int = 12,
    window: int = 5,
    client: int = 0,
    seed: int = 0,
) -> dict:
    """Returns ``{stage: {round_index: curve}}`` for two round windows."""
    cfg = get_workload(model, scale)
    sim = make_environment(
        cfg, build_strategy("fedavg", cfg.optimizer_spec()), seed=seed
    )
    out: dict = {"model": model, "early": {}, "late": {}}

    def probe_now() -> np.ndarray:
        return probe_curves(
            model_fn=cfg.model_fn(),
            shard=sim.clients[client].shard,
            global_state=sim.global_state,
            optimizer=cfg.optimizer_spec(),
            iterations=cfg.local_iterations,
            batch_size=cfg.batch_size,
            seed=seed + client,
        ).full.model_curve

    current = 0
    for stage, start in (("early", early_start), ("late", late_start)):
        while current < start:
            sim.run_round()
            current += 1
        for offset in range(window):
            out[stage][start + offset] = probe_now()
            sim.run_round()
            current += 1
    return out


def format_fig4(data: dict) -> str:
    lines = [f"Fig. 4 — cross-round curve similarity ({data['model']})"]
    for stage in ("early", "late"):
        curves = list(data[stage].values())
        dev = curve_window_deviation(curves)
        lines.append(f"{stage}: max pointwise deviation across window = {dev:.4f}")
        for rnd, curve in data[stage].items():
            xs = np.arange(1, len(curve) + 1)
            lines.append(
                format_series(
                    f"{stage}/round-{rnd}",
                    xs.tolist(),
                    curve.tolist(),
                    x_label="iter",
                    y_label="P",
                    max_points=15,
                )
            )
    return "\n".join(lines)
