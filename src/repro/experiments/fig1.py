"""Fig. 1 — anatomy of the statistical-progress metric (toy + real).

The paper's Fig. 1 is an illustration: during a local round the early
iterations take large aligned steps toward the local optimum, so the
accumulated gradient of a few iterations is already close — in the Eq. 1
sense — to the full-round accumulated gradient. We regenerate it twice:
once on a controlled 2-D toy walk (matching the figure's 7-iteration
setup), and once on a real probed local round of a chosen workload.
"""

from __future__ import annotations

import numpy as np

from ..algorithms import build_strategy
from ..core import statistical_progress
from .configs import get_workload, make_environment
from .probe import probe_curves
from .report import format_series

__all__ = ["run_fig1", "format_fig1", "toy_progress_walk"]


def toy_progress_walk(
    *, iterations: int = 7, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's toy: diminishing, increasingly-noisy 2-D steps.

    Returns ``(step_magnitudes, progress_curve)`` of length ``iterations``.
    """
    if iterations < 2:
        raise ValueError("need at least two iterations")
    rng = np.random.default_rng(seed)
    direction = np.array([1.0, 0.6])
    steps = []
    for i in range(iterations):
        scale = 1.0 / (i + 1)  # diminishing step toward the local optimum
        noise = rng.normal(scale=0.25 * (i + 1) / iterations, size=2)
        steps.append(scale * direction + noise)
    cumulative = np.cumsum(steps, axis=0)
    g_k = cumulative[-1]
    progress = np.array([statistical_progress(g, g_k) for g in cumulative])
    magnitudes = np.linalg.norm(cumulative, axis=1)
    return magnitudes, progress


def run_fig1(
    *, model: str = "cnn", scale: str = "micro", warmup_rounds: int = 3, seed: int = 0
) -> dict:
    """Returns the toy walk plus one real probed round's curve."""
    magnitudes, toy_curve = toy_progress_walk(seed=seed)

    cfg = get_workload(model, scale)
    sim = make_environment(
        cfg, build_strategy("fedavg", cfg.optimizer_spec()), seed=seed
    )
    for _ in range(warmup_rounds):
        sim.run_round()
    probe = probe_curves(
        model_fn=cfg.model_fn(),
        shard=sim.clients[0].shard,
        global_state=sim.global_state,
        optimizer=cfg.optimizer_spec(),
        iterations=cfg.local_iterations,
        batch_size=cfg.batch_size,
        seed=seed,
    )
    return {
        "model": model,
        "toy_magnitudes": magnitudes,
        "toy_curve": toy_curve,
        "real_curve": probe.full.model_curve,
    }


def format_fig1(data: dict) -> str:
    lines = ["Fig. 1 — statistical-progress anatomy"]
    k = len(data["toy_curve"])
    xs = list(range(1, k + 1))
    lines.append(
        format_series("toy/|G_i|", xs, data["toy_magnitudes"].tolist(),
                      x_label="iter", y_label="|G|")
    )
    lines.append(
        format_series("toy/P_i", xs, data["toy_curve"].tolist(),
                      x_label="iter", y_label="P")
    )
    real = data["real_curve"]
    lines.append(
        format_series(
            f"{data['model']}/real-round P_tau",
            list(range(1, len(real) + 1)),
            real.tolist(),
            x_label="iter",
            y_label="P",
        )
    )
    half = real[len(real) // 2 - 1]
    lines.append(f"real round: P at K/2 = {half:.3f}")
    return "\n".join(lines)
