"""Fig. 8 — FedCA behaviour deep dive (CNN workload).

* (a) CDF of the iteration at which local computation stops early, under
  FedCA (instantaneous net-benefit) vs FedAda (server-assigned budgets).
  Claim: FedCA's stop moments are generally *earlier* — diminishing
  marginal benefit lets it quit before the uniform-contribution budget
  would.
* (b) CDF of eager-transmission moments, raw triggers vs effective moments
  (a retransmitted layer's effective moment is the round's final
  iteration). Claim: retransmission postpones some moments, but most eager
  transmissions stand.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .configs import get_workload
from .report import cdf_points, format_series
from .runner import RunSpec, run_scheme

__all__ = ["run_fig8", "format_fig8"]


def run_fig8(
    *,
    model: str = "cnn",
    scale: str = "micro",
    rounds: int | None = None,
    seed: int = 0,
) -> dict:
    """Returns early-stop samples for FedCA/FedAda and eager-moment samples
    with and without retransmission accounting."""
    cfg = get_workload(model, scale)
    spec = RunSpec(cfg, "fedca", rounds=rounds, stop_at_target=False, seed=seed)
    fedca = run_scheme(spec)
    fedada = run_scheme(replace(spec, scheme="fedada"))

    # FedAda's "stop moment" is its assigned budget whenever it is below K;
    # recorded per client per round from the iterations actually run.
    ran = np.concatenate(
        [r.events.data["iterations_run"] for r in fedada.history.records]
    )
    fedada_stops = ran[ran < cfg.local_iterations].tolist()

    return {
        "model": model,
        "local_iterations": cfg.local_iterations,
        "fedca_early_stops": fedca.history.early_stop_iterations(),
        "fedada_early_stops": fedada_stops,
        "eager_raw": fedca.history.eager_iterations(effective=False),
        "eager_effective": fedca.history.eager_iterations(effective=True),
    }


def format_fig8(data: dict) -> str:
    lines = [f"Fig. 8 — FedCA behaviour CDFs ({data['model']}, K={data['local_iterations']})"]
    for name, key in (
        ("early-stop/FedCA", "fedca_early_stops"),
        ("early-stop/FedAda", "fedada_early_stops"),
        ("eager/raw (w/o retrans accounting)", "eager_raw"),
        ("eager/effective (w/ retrans accounting)", "eager_effective"),
    ):
        xs, ys = cdf_points(data[key])
        if not xs:
            lines.append(f"{name}: no events")
            continue
        lines.append(
            format_series(name, xs, ys, x_label="iteration", y_label="CDF")
        )
        mean = sum(data[key]) / len(data[key])
        lines.append(f"  n={len(xs)} mean={mean:.1f} median={xs[len(xs)//2]}")
    return "\n".join(lines)
