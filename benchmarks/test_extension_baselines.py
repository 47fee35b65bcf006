"""Benches for the implemented extensions beyond the paper's figures.

1. §2.2 communication baselines — quantization / top-k sparsification as
   server-autocratic comparators against FedCA.
2. §6 future work — client-autonomous intra-round batch adaptation
   (``FedCA+AB``) under heavy mid-round dynamics.
"""

from __future__ import annotations

from repro.algorithms import FedCAAdaptiveBatch, build_strategy
from repro.core import FedCAConfig
from repro.experiments import format_table, get_workload, make_environment
from repro.runtime import parse_wire_spec


def test_communication_baselines(once):
    cfg = get_workload("cnn")
    opt = cfg.optimizer_spec()

    def run_all():
        out = {}
        for label, scheme, wire in (
            ("FedAvg", "fedavg", "raw"),
            ("FedAvg+Q8", "fedavg", "quant8"),
            ("FedAvg+Top10%", "fedavg", "topk:0.1"),
            ("FedCA", "fedca", "raw"),
        ):
            strategy = build_strategy(
                scheme, opt,
                fedca_config=FedCAConfig(profile_every=cfg.fedca_profile_every),
            )
            strategy.set_wire(parse_wire_spec(wire))
            sim = make_environment(cfg, strategy, seed=11)
            out[label] = sim.run(12)
        return out

    results = once(run_all)
    rows = [
        [
            name,
            f"{hist.mean_round_time():.2f}",
            f"{sum(r.total_bytes for r in hist.records) / 1e6:.2f}",
            f"{hist.best_accuracy():.3f}",
        ]
        for name, hist in results.items()
    ]
    print()
    print(format_table(
        ["Scheme", "Per-round (s)", "MB sent", "Best acc"], rows,
        title="Communication baselines vs FedCA (CNN, 12 rounds)",
    ))

    bytes_of = {
        name: sum(r.total_bytes for r in hist.records)
        for name, hist in results.items()
    }
    # Codecs must shrink traffic dramatically vs plain FedAvg.
    assert bytes_of["FedAvg+Q8"] <= bytes_of["FedAvg"] * 0.3
    assert bytes_of["FedAvg+Top10%"] < bytes_of["FedAvg"] * 0.5
    # But codecs do not fix stragglers: FedCA's rounds stay the cheapest.
    per_round = {n: h.mean_round_time() for n, h in results.items()}
    assert per_round["FedCA"] == min(per_round.values()), per_round
    # Every contender still learns.
    for name, hist in results.items():
        assert hist.best_accuracy() > 0.3, f"{name} collapsed"


def test_adaptive_batch_extension(once):
    """FedCA+AB sheds per-iteration work under slowdowns instead of only
    stopping rounds; under heavy mid-round dynamics its rounds must not be
    slower than plain FedCA's, without losing learning."""
    cfg = get_workload("cnn")
    opt = cfg.optimizer_spec()
    pe = cfg.fedca_profile_every

    def run_pair():
        out = {}
        for strategy in (
            build_strategy("fedca", opt, fedca_config=FedCAConfig(profile_every=pe)),
            FedCAAdaptiveBatch(opt, config=FedCAConfig(profile_every=pe)),
        ):
            sim = make_environment(cfg, strategy, seed=11)
            # Heavier dynamics than the preset: longer, deeper slow periods.
            for cid in range(len(sim.clients)):
                sim.clients[cid].trace._gamma_slow = (2.0, 6.0)
            out[strategy.name] = sim.run(12)
        return out

    results = once(run_pair)
    rows = [
        [name, f"{h.mean_round_time():.2f}", f"{h.best_accuracy():.3f}"]
        for name, h in results.items()
    ]
    print()
    print(format_table(
        ["Scheme", "Per-round (s)", "Best acc"], rows,
        title="§6 extension — intra-round batch adaptation (CNN, 12 rounds)",
    ))
    plain = results["FedCA"]
    adaptive = results["FedCA+AB"]
    assert adaptive.mean_round_time() <= plain.mean_round_time() * 1.1
    assert adaptive.best_accuracy() > plain.best_accuracy() - 0.15
