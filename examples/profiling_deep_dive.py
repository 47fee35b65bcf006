#!/usr/bin/env python3
"""Periodical-sampling profiler — an API tour (paper §4.1).

Walks through FedCA's profiling machinery on a live CNN client:

1. builds the intra-layer sampler and shows the min(50 %, 100) rule at work
   per layer, plus the memory budget versus naive full profiling;
2. records an anchor round and prints the resulting whole-model and
   per-layer progress curves;
3. derives the round's decisions from those curves: each layer's eager-
   transmission trigger iteration (Eq. 5) and the early-stop utility trace
   (Eqs. 2–4) under an example deadline.

Run:  python examples/profiling_deep_dive.py
"""

from __future__ import annotations

import numpy as np

from repro.algorithms import build_strategy
from repro.core import (
    NEVER,
    AnchorRecorder,
    EagerSchedule,
    EarlyStopPolicy,
    FedCAConfig,
    LayerSampler,
    marginal_cost,
)
from repro.data import BatchStream
from repro.experiments import get_workload, make_environment
from repro.nn import softmax_cross_entropy


def main() -> None:
    cfg = get_workload("cnn", scale="micro")
    sim = make_environment(
        cfg, build_strategy("fedavg", cfg.optimizer_spec()), seed=1
    )
    for _ in range(3):  # move past the chaotic first rounds
        sim.run_round()

    model = cfg.model_fn()()
    model.load_state_dict(sim.global_state)
    fedca_cfg = FedCAConfig()

    # 1. The sampler and its memory budget. ------------------------------
    sampler = LayerSampler.for_model(
        model, fraction=fedca_cfg.sample_fraction, cap=fedca_cfg.sample_cap, seed=0
    )
    print("Intra-layer sampling (min(50%, 100) scalars per layer):")
    bounds = sampler.bounds
    for (name, p), lo, hi in zip(model.named_parameters(), bounds, bounds[1:]):
        print(f"  {name:14s} {p.data.size:6d} params -> {hi - lo:3d} sampled")
    k = cfg.local_iterations
    print(
        f"  profiling memory for one K={k} anchor round: "
        f"{sampler.snapshot_bytes(k) / 1e3:.1f} KB sampled vs "
        f"{model.num_parameters() * k * 4 / 1e3:.1f} KB full\n"
    )

    # 2. Record an anchor round. -----------------------------------------
    shard = sim.clients[0].shard
    stream = BatchStream(shard, cfg.batch_size, seed=7)
    opt = cfg.optimizer_spec().build(model)
    params = model.arena().values  # the whole model as one (P,) vector
    anchor_state = params.copy()
    recorder = AnchorRecorder([sampler], k)  # one member's stack
    for _ in range(k):
        x, y = stream.next_batch()
        _, grad = softmax_cross_entropy(model(x), y)
        model.zero_grad()
        model.backward(grad)
        opt.step()
        recorder.record(params, anchor_state)
    (curves,) = recorder.finalize(round_index=3)

    print("Whole-model progress curve P_tau:")
    print("  " + " ".join(f"{p:.2f}" for p in curves.model_curve) + "\n")

    # 3. The decisions the curves drive. ----------------------------------
    schedule = EagerSchedule([curves], fedca_cfg.eager_threshold)
    print(f"Eager-transmission triggers (T_e = {fedca_cfg.eager_threshold}):")
    for name, trig in zip(schedule.names, schedule.triggers[0].tolist()):
        print(f"  {name:14s} -> " + (f"iteration {trig}" if trig != NEVER else "never"))

    deadline = k * 0.6 * 0.05  # an example compute deadline
    print(f"\nNet-benefit trace under a {deadline:.2f}s deadline "
          f"(0.05 s/iteration pace, beta = {fedca_cfg.beta}):")
    # Eq. 2 per iteration; -inf at K, where the curve is exhausted.
    benefit = EarlyStopPolicy([curves], fedca_cfg).benefit[0]
    for tau in range(1, k + 1):
        elapsed = tau * 0.05
        b = benefit[tau - 1]
        c = marginal_cost(elapsed, deadline, fedca_cfg.beta)
        marker = "  <- stop" if b - c < 0 else ""
        print(f"  tau={tau:2d}  b={b:7.4f}  c={c:7.4f}  n={b - c:+7.4f}{marker}")
        if b - c < 0:
            break


if __name__ == "__main__":
    main()
