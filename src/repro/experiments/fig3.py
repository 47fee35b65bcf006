"""Fig. 3 — per-layer statistical-progress curves.

Two layers per workload at an early and a late stage, demonstrating
cross-layer heterogeneity: different layers of the same model converge at
visibly different paces within a round, which is the premise of layerwise
eager transmission.
"""

from __future__ import annotations

import numpy as np

from .fig2 import _advance
from .configs import get_workload
from .probe import probe_curves
from .report import format_series

__all__ = ["run_fig3", "format_fig3", "DEFAULT_LAYERS"]

# Layer pairs echoing the names in the paper's Fig. 3 (adapted to the
# micro-scale architectures, which use the same naming scheme).
DEFAULT_LAYERS: dict[str, tuple[str, str]] = {
    "cnn": ("fc2.weight", "conv2.weight"),
    "lstm": ("rnn.weight_hh_l0", "rnn.bias_ih_l1"),
    "wrn": ("conv3.0.residual.0.bias", "conv4.0.residual.6.weight"),
}


def run_fig3(
    *,
    models: tuple[str, ...] = ("cnn", "lstm", "wrn"),
    scale: str = "micro",
    early_round: int = 2,
    late_round: int = 12,
    client: int = 0,
    layers: dict[str, tuple[str, str]] | None = None,
    seed: int = 0,
) -> dict:
    """Returns ``{model: {stage: {layer: curve}}}``."""
    layers = layers or DEFAULT_LAYERS
    out: dict = {}
    for model in models:
        cfg = get_workload(model, scale)
        wanted = layers[model]
        out[model] = {}
        for stage, target_round in (("early", early_round), ("late", late_round)):
            sim = _advance(cfg, target_round, seed)
            probe = probe_curves(
                model_fn=cfg.model_fn(),
                shard=sim.clients[client].shard,
                global_state=sim.global_state,
                optimizer=cfg.optimizer_spec(),
                iterations=cfg.local_iterations,
                batch_size=cfg.batch_size,
                seed=seed + client,
            )
            missing = [l for l in wanted if l not in probe.full.names]
            if missing:
                raise KeyError(f"layers {missing} not found in {model} model")
            out[model][stage] = {l: probe.full.layer_curve(l) for l in wanted}
    return out


def format_fig3(data: dict) -> str:
    lines = ["Fig. 3 — statistical progress curves (per layer)"]
    for model, stages in data.items():
        for stage, curves in stages.items():
            for layer, curve in curves.items():
                xs = np.arange(1, len(curve) + 1)
                lines.append(
                    format_series(
                        f"{model}/{stage}/{layer}",
                        xs.tolist(),
                        curve.tolist(),
                        x_label="iter",
                        y_label="P",
                    )
                )
    return "\n".join(lines)
