#!/usr/bin/env python3
"""Communication baselines vs FedCA — the §2.2 prior art, head to head.

The paper positions quantization and sparsification as the classical
*server-autocratic* answers to the communication bottleneck. This example
runs FedAvg, FedAvg+8-bit QSGD quantization, FedAvg+top-10 % sparsification
(with error feedback) and FedCA on the CNN workload, then compares bytes on
the wire, per-round time and time-to-accuracy.

The punchline matches the paper's framing: codecs shrink bytes (and help
when the link is the bottleneck) but do nothing about stragglers, while
FedCA attacks both ends — and the two are orthogonal, so a production
system could stack them.

Run:  python examples/communication_codecs.py
"""

from __future__ import annotations

from repro.algorithms import build_strategy
from repro.core import FedCAConfig
from repro.experiments import get_workload, make_environment
from repro.runtime import parse_wire_spec


def main() -> None:
    cfg = get_workload("cnn", scale="micro")
    opt = cfg.optimizer_spec()
    # (label, scheme, wire format) — compression is a wire format any
    # scheme can transmit through, not a scheme of its own.
    contenders = [
        ("FedAvg", "fedavg", "raw"),
        ("FedAvg+Q8", "fedavg", "quant8"),
        ("FedAvg+Top10%", "fedavg", "topk:0.1"),
        ("FedCA", "fedca", "raw"),
    ]

    print(f"{'scheme':14s} {'round(s)':>9s} {'MB sent':>8s} {'target hit':>18s}")
    for label, scheme, wire in contenders:
        strategy = build_strategy(
            scheme, opt,
            fedca_config=FedCAConfig(profile_every=cfg.fedca_profile_every),
        )
        strategy.set_wire(parse_wire_spec(wire))
        sim = make_environment(cfg, strategy, seed=11)
        hist = sim.run(cfg.default_rounds, target_accuracy=cfg.target_accuracy)
        total_mb = sum(r.total_bytes for r in hist.records) / 1e6
        tta = hist.time_to_accuracy(cfg.target_accuracy)
        hit = f"{tta[0]:7.1f}s / {tta[1]:3d} rounds" if tta else "not reached"
        print(
            f"{label:14s} {hist.mean_round_time():9.2f} "
            f"{total_mb:8.2f} {hit:>18s}"
        )


if __name__ == "__main__":
    main()
