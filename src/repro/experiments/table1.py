"""Table 1 + Fig. 7 — end-to-end time-to-accuracy comparison.

Runs FedAvg / FedProx / FedAda / FedCA on each workload under identical
data, heterogeneity and dynamicity, reporting per-round time, rounds to the
target accuracy and total time (Table 1), with the full accuracy-vs-time
series doubling as Fig. 7.

Reproduction claims (shape, not absolute numbers): FedCA attains the lowest
per-round time and the lowest total time; FedAda lands between FedAvg and
FedCA; FedCA takes somewhat more rounds than FedAvg.
"""

from __future__ import annotations

from dataclasses import replace

from .configs import get_workload
from .report import format_series, format_table
from .runner import RunSpec, SchemeResult, run_scheme

__all__ = ["run_table1", "format_table1", "format_fig7", "SCHEMES"]

SCHEMES = ("fedavg", "fedprox", "fedada", "fedca")


def run_table1(
    *,
    models: tuple[str, ...] = ("cnn", "lstm", "wrn"),
    scale: str = "micro",
    schemes: tuple[str, ...] = SCHEMES,
    rounds: int | None = None,
    seed: int = 0,
) -> dict[str, list[SchemeResult]]:
    """Returns ``{model: [SchemeResult per scheme]}``."""
    out: dict[str, list[SchemeResult]] = {}
    for model in models:
        spec = RunSpec(get_workload(model, scale), schemes[0], rounds=rounds, seed=seed)
        out[model] = [run_scheme(replace(spec, scheme=s)) for s in schemes]
    return out


def format_table1(data: dict[str, list[SchemeResult]]) -> str:
    rows = []
    for model, results in data.items():
        target = results[0].target_accuracy
        for res in results:
            rows.append(
                [
                    f"{model} ({target})",
                    res.scheme,
                    f"{res.mean_round_time:.2f}",
                    res.rounds_to_target if res.reached_target else "—",
                    f"{res.time_to_target:.1f}" if res.reached_target else "—",
                    f"{res.history.final_accuracy:.3f}",
                ]
            )
    return format_table(
        ["Model", "Scheme", "Per-round Time (s)", "# Rounds", "Total Time (s)", "Final Acc"],
        rows,
        title="Table 1 — time to reach the target accuracy",
    )


def format_fig7(data: dict[str, list[SchemeResult]]) -> str:
    lines = ["Fig. 7 — time-to-accuracy curves"]
    for model, results in data.items():
        for res in results:
            times, accs = res.history.accuracy_series()
            lines.append(
                format_series(
                    f"{model}/{res.scheme}",
                    times,
                    accs,
                    x_label="time(s)",
                    y_label="acc",
                )
            )
    return "\n".join(lines)
