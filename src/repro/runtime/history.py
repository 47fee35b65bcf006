"""Run history: per-round records and time-to-accuracy extraction."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

__all__ = ["RoundRecord", "RunHistory"]


@dataclass(frozen=True)
class RoundRecord:
    """Summary of one communication round."""

    round_index: int
    start_time: float
    end_time: float
    accuracy: float
    mean_loss: float
    collected_clients: tuple[int, ...]
    straggler_clients: tuple[int, ...]
    mean_iterations: float
    total_bytes: int
    client_events: dict[int, dict[str, Any]]

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass
class RunHistory:
    """Ordered round records plus derived efficiency metrics.

    ``retain_client_events`` bounds run memory: the per-round
    ``client_events`` dicts are the only per-client payload the history
    accumulates, so on long or large-population runs they dominate its
    footprint and grow without bound. With ``retain_client_events=False``
    each appended record keeps an empty dict — the same information still
    streams to the trace file (``client.round`` spans, FedCA decision
    events), but the post-hoc helpers that read retained events
    (:meth:`early_stop_iterations`, :meth:`eager_iterations`) will see
    nothing. Round summaries (times, accuracy, collected/straggler ids)
    are always retained.
    """

    records: list[RoundRecord] = field(default_factory=list)
    retain_client_events: bool = True

    def append(self, record: RoundRecord) -> None:
        if self.records and record.round_index <= self.records[-1].round_index:
            raise ValueError("round records must be appended in order")
        if not self.retain_client_events and record.client_events:
            record = replace(record, client_events={})
        self.records.append(record)

    # ------------------------------------------------------------------
    @property
    def num_rounds(self) -> int:
        return len(self.records)

    @property
    def total_time(self) -> float:
        return self.records[-1].end_time if self.records else 0.0

    @property
    def final_accuracy(self) -> float:
        return self.records[-1].accuracy if self.records else 0.0

    def best_accuracy(self) -> float:
        return max((r.accuracy for r in self.records), default=0.0)

    def mean_round_time(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.duration for r in self.records) / len(self.records)

    # ------------------------------------------------------------------
    def time_to_accuracy(self, target: float) -> tuple[float, int] | None:
        """First ``(sim_time, rounds_taken)`` at which the global model's
        test accuracy reached ``target``; None if never reached.

        Matches the paper's Table 1 convention: time is measured at the end
        of the round whose evaluation first meets the target.
        """
        for record in self.records:
            if record.accuracy >= target:
                return record.end_time, record.round_index + 1
        return None

    def accuracy_series(self) -> tuple[list[float], list[float]]:
        """``(times, accuracies)`` for time-to-accuracy curves (Fig. 7/9/10)."""
        return (
            [r.end_time for r in self.records],
            [r.accuracy for r in self.records],
        )

    # ------------------------------------------------------------------
    def early_stop_iterations(self) -> list[int]:
        """All early-stop trigger iterations across rounds/clients (Fig. 8a)."""
        out = []
        for record in self.records:
            for events in record.client_events.values():
                tau = events.get("early_stop_iteration")
                if tau is not None:
                    out.append(tau)
        return out

    def eager_iterations(self, *, effective: bool) -> list[int]:
        """Eager-transmission trigger iterations across rounds/clients/layers
        (Fig. 8b).

        With ``effective=True``, a layer that was later retransmitted counts
        at the round's final iteration (its update only became valid then) —
        the paper's "w/ retransmission" CDF. With ``effective=False`` the raw
        trigger iteration is used.
        """
        out = []
        for record in self.records:
            for events in record.client_events.values():
                eager: dict[str, int] = events.get("eager", {})
                if not eager:
                    continue
                retransmitted = set(events.get("retransmitted", []))
                final_iter = events.get("iterations_run")
                for layer, tau in eager.items():
                    if effective and layer in retransmitted:
                        out.append(final_iter if final_iter is not None else tau)
                    else:
                        out.append(tau)
        return out
