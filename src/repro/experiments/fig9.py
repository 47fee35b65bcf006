"""Fig. 9 — ablation of FedCA's solution modules.

FedAvg vs FedCA-v1 (early stop only) vs FedCA-v2 (+eager transmission,
no retransmission) vs FedCA-v3 (standard). Claims: v1 alone already beats
FedAvg; v3's eager transmission adds further speedup; v2 (no error
feedback) loses accuracy relative to v3, showing retransmission is
indispensable.
"""

from __future__ import annotations

from dataclasses import replace

from .configs import get_workload
from .report import format_series, format_table
from .runner import RunSpec, SchemeResult, run_scheme

__all__ = ["run_fig9", "format_fig9", "ABLATION_SCHEMES"]

ABLATION_SCHEMES = ("fedavg", "fedca-v1", "fedca-v2", "fedca-v3")


def run_fig9(
    *,
    models: tuple[str, ...] = ("cnn", "lstm"),
    scale: str = "micro",
    rounds: int | None = None,
    seed: int = 0,
) -> dict[str, list[SchemeResult]]:
    out: dict[str, list[SchemeResult]] = {}
    for model in models:
        spec = RunSpec(
            get_workload(model, scale), ABLATION_SCHEMES[0], rounds=rounds,
            stop_at_target=False, seed=seed,
        )
        out[model] = [run_scheme(replace(spec, scheme=s)) for s in ABLATION_SCHEMES]
    return out


def format_fig9(data: dict[str, list[SchemeResult]]) -> str:
    lines = ["Fig. 9 — ablation study"]
    rows = []
    for model, results in data.items():
        for res in results:
            times, accs = res.history.accuracy_series()
            lines.append(
                format_series(
                    f"{model}/{res.scheme}", times, accs,
                    x_label="time(s)", y_label="acc",
                )
            )
            rows.append(
                [
                    model,
                    res.scheme,
                    f"{res.mean_round_time:.2f}",
                    f"{res.history.best_accuracy():.3f}",
                    f"{res.history.total_time:.1f}",
                ]
            )
    lines.append(
        format_table(
            ["Model", "Scheme", "Per-round (s)", "Best Acc", "Total Time (s)"],
            rows,
        )
    )
    return "\n".join(lines)
