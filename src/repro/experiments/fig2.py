"""Fig. 2 — whole-model statistical-progress curves.

Two randomly selected clients, at an early and a late training stage, for
each workload. The reproduction claims to preserve: (a) diminishing
marginal benefit — a sharp early rise followed by a flattening tail;
(b) cross-client heterogeneity — the two clients' curves do not coincide;
(c) cross-stage heterogeneity — early- and late-round curves differ.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import build_strategy
from .configs import get_workload, make_environment
from .probe import probe_curves
from .report import format_series

__all__ = ["run_fig2", "format_fig2"]


def _advance(cfg, rounds: int, seed: int):
    """Run a FedAvg environment forward so the global model reaches the
    requested training stage."""
    sim = make_environment(
        cfg, build_strategy("fedavg", cfg.optimizer_spec()), seed=seed
    )
    for _ in range(rounds):
        sim.run_round()
    return sim


def run_fig2(
    *,
    models: tuple[str, ...] = ("cnn", "lstm", "wrn"),
    scale: str = "micro",
    early_round: int = 2,
    late_round: int = 12,
    clients: tuple[int, int] = (0, 1),
    seed: int = 0,
) -> dict:
    """Returns ``{model: {stage: {client: curve}}}`` with P_τ arrays."""
    out: dict = {}
    for model in models:
        cfg = get_workload(model, scale)
        out[model] = {}
        for stage, target_round in (("early", early_round), ("late", late_round)):
            sim = _advance(cfg, target_round, seed)
            stage_curves = {}
            for cid in clients:
                probe = probe_curves(
                    model_fn=cfg.model_fn(),
                    shard=sim.clients[cid].shard,
                    global_state=sim.global_state,
                    optimizer=cfg.optimizer_spec(),
                    iterations=cfg.local_iterations,
                    batch_size=cfg.batch_size,
                    seed=seed + cid,
                )
                stage_curves[cid] = probe.full.model_curve
            out[model][stage] = stage_curves
    return out


def format_fig2(data: dict) -> str:
    lines = ["Fig. 2 — statistical progress curves (whole model)"]
    for model, stages in data.items():
        for stage, curves in stages.items():
            for cid, curve in curves.items():
                xs = np.arange(1, len(curve) + 1)
                lines.append(
                    format_series(
                        f"{model}/{stage}/client-{cid}",
                        xs.tolist(),
                        curve.tolist(),
                        x_label="iter",
                        y_label="P",
                    )
                )
    return "\n".join(lines)
