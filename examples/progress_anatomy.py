#!/usr/bin/env python3
"""Fig. 1 companion — anatomy of the statistical-progress metric.

Reproduces the paper's toy illustration: during a local round the early
iterations take large, consistent steps toward the client's local optimum,
so the accumulated gradient after a few iterations is already close
(in the Eq. 1 sense) to the full-round accumulated gradient.

The example then probes a *real* local round of the CNN workload and shows
the same anatomy: per-iteration step magnitudes shrink while the progress
metric saturates, and individual layers saturate at different iterations.

Run:  python examples/progress_anatomy.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import build_strategy
from repro.core import statistical_progress
from repro.experiments import get_workload, make_environment, probe_curves


def toy_example() -> None:
    """A 2-D gradient walk like the paper's Fig. 1: 7 steps toward an
    optimum, early steps long and aligned, later steps short and noisy."""
    rng = np.random.default_rng(0)
    steps = []
    direction = np.array([1.0, 0.6])
    for i in range(7):
        scale = 1.0 / (i + 1)  # diminishing step sizes
        noise = rng.normal(scale=0.25 * (i + 1) / 7, size=2)
        steps.append(scale * direction + noise)
    cumulative = np.cumsum(steps, axis=0)
    g_k = cumulative[-1]
    print("Toy round (7 iterations):")
    for i, g_i in enumerate(cumulative, start=1):
        p = statistical_progress(g_i, g_k)
        print(f"  after iter {i}: |G_i|={np.linalg.norm(g_i):.3f}  P_i={p:.3f}")
    print("  -> P_3 is already close to 1: 3 of 7 iterations capture most of the round.\n")


def real_round() -> None:
    cfg = get_workload("cnn", scale="micro")
    sim = make_environment(
        cfg, build_strategy("fedavg", cfg.optimizer_spec()), seed=0
    )
    for _ in range(4):  # move past the chaotic first rounds
        sim.run_round()
    probe = probe_curves(
        model_fn=cfg.model_fn(),
        shard=sim.clients[0].shard,
        global_state=sim.global_state,
        optimizer=cfg.optimizer_spec(),
        iterations=cfg.local_iterations,
        batch_size=cfg.batch_size,
        seed=0,
    )
    print("Real CNN round (client 0, round 5):")
    print("  whole-model P_tau:",
          " ".join(f"{p:.2f}" for p in probe.full.model_curve))
    half = cfg.local_iterations // 2
    print(f"  P at K/2 = {probe.full.model_curve[half - 1]:.3f} — most of the round's "
          "statistical value arrives early.")
    print("  per-layer P at K/2:")
    for name in sorted(probe.full.names):
        print(f"    {name:22s} {probe.full.layer_curve(name)[half - 1]:.3f}")


def main() -> None:
    toy_example()
    real_round()


if __name__ == "__main__":
    main()
