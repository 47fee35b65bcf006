"""Bench: ablations of FedCA's *design choices* (DESIGN.md §6).

These are not paper figures; they stress the individual design decisions
the paper motivates in §4 and quantify what each buys:

1. **Benefit floor** (Eq. 2's ``(1 − P)/(K − τ)`` term) — without it a
   noisy flat curve segment terminates rounds instantly.
2. **Deadline-kinked cost** (Eq. 3's β kink) — a linear cost either never
   stops stragglers (β small) or stops everyone (β large).
3. **Profiling period** — anchors refresh curves; too sparse and early
   curves misguide every optimised round.
"""

from __future__ import annotations

import numpy as np

from repro.core import EarlyStopPolicy, FedCAConfig, marginal_benefit, marginal_cost
from repro.core.profiler import ProfiledCurves
from repro.experiments import RunSpec, format_table, run_scheme, get_workload


def _policy(values):
    """One member's early-stop policy over a whole-model (and one-layer)
    curve."""
    arr = np.asarray(values, dtype=np.float64)
    return EarlyStopPolicy([ProfiledCurves(0, np.stack([arr, arr]), ("l",))], FedCAConfig())


def test_benefit_floor_rescues_flat_segments(benchmark):
    """A flat segment mid-curve yields zero delta; the floor keeps the
    benefit equal to the remaining average progress."""

    def evaluate():
        noisy = _policy([0.4, 0.4, 0.4, 0.7, 1.0])
        benefit = marginal_benefit(noisy.p, noisy.num_iterations)[0]
        with_floor = [benefit[t - 1] for t in (2, 3)]
        raw_delta = [noisy.p[0, t] - noisy.p[0, t - 1] for t in (2, 3)]
        return with_floor, raw_delta

    with_floor, raw_delta = benchmark(evaluate)
    assert all(d == 0.0 for d in raw_delta)
    assert all(b > 0.1 for b in with_floor)


def test_deadline_kink_separates_regimes(benchmark):
    """Pre-deadline cost stays ~β-scaled; post-deadline it dominates any
    plausible marginal benefit — the property that turns T_R into an
    effective straggler bound."""

    def evaluate():
        pre = marginal_cost(0.9 * 10.0, 10.0, 0.01)
        post = marginal_cost(1.1 * 10.0, 10.0, 0.01)
        return pre, post

    pre, post = benchmark(evaluate)
    assert pre < 0.01 + 1e-12
    assert post > 1.0
    assert post / pre > 50


def test_profiling_period_tradeoff(once):
    """Sparser anchors → cheaper rounds on average but staler curves.
    Verifies both periods learn and reports the trade-off."""
    cfg = get_workload("cnn")

    def run_both():
        out = {}
        for pe in (3, 10):
            res = run_scheme(RunSpec(
                cfg, "fedca", rounds=12, stop_at_target=False, seed=5,
                fedca_config=FedCAConfig(profile_every=pe),
            ))
            out[pe] = res
        return out

    results = once(run_both)
    rows = [
        [pe, f"{res.mean_round_time:.2f}", f"{res.history.best_accuracy():.3f}"]
        for pe, res in results.items()
    ]
    print()
    print(format_table(["profile_every", "per-round (s)", "best acc"], rows,
                       title="Profiling-period ablation (CNN, 12 rounds)"))
    for res in results.values():
        assert res.history.best_accuracy() > 0.3
    # More frequent anchors mean more full-length (unoptimised) rounds.
    assert results[3].mean_round_time >= results[10].mean_round_time * 0.9


def test_utility_function_vs_naive_deadline_stop(once):
    """DESIGN.md §6(2): what the Eq. 2–4 utility buys over stopping blindly
    at the deadline. FedCA must not be slower than the naive rule, and it
    must preserve at least as much accuracy at the same round budget."""
    cfg = get_workload("cnn")

    def run_pair():
        out = {}
        for scheme in ("deadline-stop", "fedca"):
            res = run_scheme(RunSpec(cfg, scheme, rounds=12, stop_at_target=False, seed=5))
            out[res.scheme] = res
        return out

    results = once(run_pair)
    rows = [
        [name, f"{res.mean_round_time:.2f}", f"{res.history.best_accuracy():.3f}"]
        for name, res in results.items()
    ]
    print()
    print(format_table(
        ["Scheme", "Per-round (s)", "Best acc"], rows,
        title="Utility-guided vs naive deadline stopping (CNN, 12 rounds)",
    ))
    naive = results["DeadlineStop"]
    fedca = results["FedCA"]
    assert fedca.history.best_accuracy() >= naive.history.best_accuracy() - 0.1
    # Both must still learn.
    assert naive.history.best_accuracy() > 0.3
    assert fedca.history.best_accuracy() > 0.3
