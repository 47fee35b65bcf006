"""Fig. 6 — eager transmission's computation/communication overlap.

The paper's Fig. 6 illustrates the mechanism: eagerly transmitted layers'
uploads hide behind remaining local compute, shrinking the post-compute
communication tail (with retransmitted layers added back to the tail). We
regenerate it as measurements: one optimised FedCA round's uplink schedule
for a chosen client, plus the counterfactual single end-of-round upload,
and the resulting critical-path saving.
"""

from __future__ import annotations

from ..algorithms import build_strategy
from ..core import FedCAConfig
from .configs import get_workload, make_environment
from .report import format_table

__all__ = ["run_fig6", "format_fig6"]


def run_fig6(
    *, model: str = "wrn", scale: str = "micro", seed: int = 3
) -> dict:
    """Run an anchor + one optimised FedCA round; returns the observed
    uplink schedule and overlap accounting for one collected client."""
    cfg = get_workload(model, scale)
    strategy = build_strategy(
        "fedca", cfg.optimizer_spec(),
        fedca_config=FedCAConfig(profile_every=cfg.fedca_profile_every),
    )
    sim = make_environment(cfg, strategy, seed=seed)
    sim.run_round()  # anchor
    record = sim.run_round()  # optimised

    cid = record.collected_clients[0]
    client = sim.clients[cid]
    events = record.events
    row = events.data["cid"].tolist().index(cid)
    log = list(client.uplink.log)
    base = log[0].submit_time if log else 0.0

    tail = [tx for tx in log if tx.label == "tail"]
    compute_end = tail[0].submit_time if tail else (log[-1].finish_time if log else base)
    overlap_finish = client.uplink.busy_until
    counterfactual = compute_end + client.link.upload_seconds(client.model_bytes)

    return {
        "model": model,
        "client": cid,
        "eager_layers": int((events.data["eager"][row] >= 0).sum()),
        "retransmitted": int(events.retransmitted[row].sum()),
        "schedule": [
            {
                "label": tx.label,
                "submit": tx.submit_time - base,
                "start": tx.start_time - base,
                "finish": tx.finish_time - base,
                "nbytes": tx.nbytes,
            }
            for tx in log
        ],
        "compute_end": compute_end - base,
        "overlap_finish": overlap_finish - base,
        "single_upload_finish": counterfactual - base,
        "saving": counterfactual - overlap_finish,
    }


def format_fig6(data: dict) -> str:
    lines = [
        f"Fig. 6 — eager-transmission timeline ({data['model']}, client "
        f"{data['client']})"
    ]
    rows = [
        [
            tx["label"],
            f"{tx['submit']:.3f}",
            f"{tx['start']:.3f}",
            f"{tx['finish']:.3f}",
            tx["nbytes"],
        ]
        for tx in data["schedule"]
    ]
    lines.append(
        format_table(["transfer", "submit", "start", "finish", "bytes"], rows)
    )
    lines.append(
        f"compute ends at {data['compute_end']:.3f}; last byte leaves at "
        f"{data['overlap_finish']:.3f}; a single end-of-round upload would "
        f"have finished at {data['single_upload_finish']:.3f} "
        f"(saving {data['saving']:.3f}s)"
    )
    lines.append(
        f"eager layers: {data['eager_layers']}, "
        f"retransmitted: {data['retransmitted']}"
    )
    return "\n".join(lines)
