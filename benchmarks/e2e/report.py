"""End-to-end metric catalogue, run statistics and the A/B comparator.

Pure functions over numbers and result dicts — no simulator, no clock —
so ``test_harness.py`` can pin the arithmetic that gates later PRs.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

__all__ = [
    "END_TO_END",
    "E2EMetric",
    "VERDICTS",
    "compare_results",
    "relative_spread",
    "verdict",
]


class E2EMetric(NamedTuple):
    """``bound`` is the share of the parent's median by which the metric may
    worsen under the ``BENCHMARK.json`` protocol (which carries the same
    number): medians over runs with *different* seeds on a host that
    drifts. It therefore covers host noise and, for the simulated outcomes,
    the seed-to-seed variation of the science.

    ``same_seed_bound`` is what :func:`compare_results` applies to two
    result files of the same seed. The simulated outcomes then repeat bit
    for bit, so a host-only PR must leave them *equal*; their small bound
    applies only to PRs that mean to change the science.

    ``contract`` is False for a metric the full set reports but
    ``BENCHMARK.json`` cannot gate: across seeds ``sim_time_to_target_s``
    spreads by 8-23 % of its median, and a bound may be at most 0.25 with
    the spread inside it."""

    name: str
    unit: str
    better: str
    bound: float
    same_seed_bound: float
    contract: bool = True


# Wall-clock bounds are wider than the 10 % the issue asked for: on the
# reference box the host itself drifts by 20-30 % between runs, and even
# scaled by the calibration spin ten runs spread by 2-12 %.
# ``peak_rss_mib`` repeats within 0.5 % for a fixed seed under the frozen
# allocator thresholds (``run.MALLOC_PINS``), but on ``wrn_fedca_parallel``
# some seeds hold 2 % more than others, so across seeds it gets 10 %.
END_TO_END: tuple[E2EMetric, ...] = (
    E2EMetric("round_wall_s", "s", "lower", 0.25, 0.15),
    E2EMetric("client_iters_per_s", "1/s", "higher", 0.25, 0.15),
    E2EMetric("setup_s", "s", "lower", 0.25, 0.15),
    E2EMetric("peak_rss_mib", "MiB", "lower", 0.10, 0.05),
    E2EMetric("sim_round_s", "sim_s", "lower", 0.25, 0.01),
    E2EMetric("sim_time_to_target_s", "sim_s", "lower", 0.25, 0.02, contract=False),
    E2EMetric("uplink_mib_per_round", "MiB", "lower", 0.05, 0.01),
    E2EMetric("accuracy_final", "ratio", "higher", 0.25, 0.02),
)

VERDICTS = ("improved", "unchanged", "unresolved", "regressed")


def relative_spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance with four or more runs, the full range with fewer (quartiles
    of three numbers are extrapolations)."""
    if len(values) < 2:
        return 0.0
    median = statistics.median(values)
    if median == 0:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return abs(width / median)


def verdict(
    parent: list[float], change: list[float], *, better: str, bound: float
) -> str:
    """One of :data:`VERDICTS` for a metric measured on two commits.

    ``worse`` is how far the change's median moved in the bad direction, as
    a share of the parent's median. A pair whose run-to-run spread is wider
    than the bound cannot be called unchanged or regressed from medians
    alone: it is *unresolved* unless every run of one side beats every run
    of the other. An improvement must also exceed the spread.
    """
    if parent == change:
        return "unchanged"  # bit-equal runs (the simulated metrics)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (c_med - p_med) / abs(p_med) if p_med else sign * (c_med - p_med)
    spread = max(relative_spread(parent), relative_spread(change))
    if better == "lower":
        all_better = max(change) < min(parent)
        all_worse = min(change) > max(parent)
    else:
        all_better = min(change) > max(parent)
        all_worse = max(change) < min(parent)
    if spread > bound:
        if all_better:
            return "improved"
        if all_worse and worse > bound:
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < 0 and -worse > spread and all_better:
        return "improved"
    return "unchanged"


def compare_results(parent: dict, change: dict) -> list[tuple[str, str, str, str]]:
    """``(workload, metric, verdict, detail)`` rows for two result files
    written by ``run.py`` (full mode)."""
    rows = []
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            rows.append((name, "*", "unresolved", "workload missing from B"))
            continue
        for metric in END_TO_END:
            pa = a["end_to_end"][metric.name]["runs"]
            pb = b["end_to_end"][metric.name]["runs"]
            bound = metric.same_seed_bound
            v = verdict(pa, pb, better=metric.better, bound=bound)
            ma, mb = statistics.median(pa), statistics.median(pb)
            change_pct = 100.0 * (mb - ma) / abs(ma) if ma else 0.0
            rows.append(
                (
                    name,
                    metric.name,
                    v,
                    f"{ma:.6g} -> {mb:.6g} {metric.unit} ({change_pct:+.2f}%, "
                    f"bound {100 * bound:g}%, spread "
                    f"{100 * max(relative_spread(pa), relative_spread(pb)):.2f}%)",
                )
            )
        fa, fb = a["failed_share"], b["failed_share"]
        rows.append(
            (
                name,
                "failed_share",
                "regressed" if fb > fa else "unchanged",
                f"{fa:g} -> {fb:g} (bound 0)",
            )
        )
    return rows
