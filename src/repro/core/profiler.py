"""Periodical-sampling profiler (paper §4.1).

At *anchor rounds* (every ``profile_every`` rounds) the client records, after
every local iteration, the sampled accumulated update of each layer. At
round end it turns those snapshots into per-layer and whole-model
statistical-progress curves, which guide early stopping and eager
transmission for the following ``profile_every − 1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .progress import progress_curve
from .sampling import LayerSampler

__all__ = ["ProfiledCurves", "AnchorRecorder", "is_anchor_round"]


def is_anchor_round(round_index: int, profile_every: int) -> bool:
    """Anchor rounds are 0, P, 2P, … — the very first round must be an
    anchor because no curves exist before it."""
    if round_index < 0:
        raise ValueError("round_index must be non-negative")
    if profile_every < 1:
        raise ValueError("profile_every must be >= 1")
    return round_index % profile_every == 0


@dataclass(frozen=True)
class ProfiledCurves:
    """Progress curves from one anchor round.

    ``layer_curves[name][τ-1]`` is the layer's ``P_τ``; ``model_curve[τ-1]``
    the whole-model ``P_τ``. ``num_iterations`` is the anchor round's K.
    """

    round_index: int
    num_iterations: int
    layer_curves: dict[str, np.ndarray]
    model_curve: np.ndarray

    def __post_init__(self) -> None:
        if self.model_curve.shape != (self.num_iterations,):
            raise ValueError("model curve length must equal num_iterations")
        for name, curve in self.layer_curves.items():
            if curve.shape != (self.num_iterations,):
                raise ValueError(f"layer curve {name!r} length mismatch")

    def p(self, tau: int) -> float:
        """Whole-model ``P_τ`` with the convention ``P_0 = 0``."""
        if tau < 0 or tau > self.num_iterations:
            raise ValueError(f"tau must be in [0, {self.num_iterations}]")
        return 0.0 if tau == 0 else float(self.model_curve[tau - 1])

    def layer_p(self, name: str, tau: int) -> float:
        if tau < 0 or tau > self.num_iterations:
            raise ValueError(f"tau must be in [0, {self.num_iterations}]")
        return 0.0 if tau == 0 else float(self.layer_curves[name][tau - 1])

    def layer_trigger_iteration(self, name: str, threshold: float) -> int | None:
        """First iteration τ at which the layer's profiled progress crossed
        ``threshold`` (Eq. 5); ``None`` if it never did."""
        curve = self.layer_curves[name]
        hits = np.flatnonzero(curve >= threshold)
        return int(hits[0]) + 1 if hits.size else None


@dataclass
class AnchorRecorder:
    """Accumulates sampled snapshots during an anchor round.

    The recorder never touches full parameter buffers beyond the sampled
    gather in :meth:`record` — peak memory is
    ``total_sampled × K × 4`` bytes (§5.5).
    """

    sampler: LayerSampler
    _snapshots: list[dict[str, np.ndarray]] = field(default_factory=list)

    def record(
        self, params: dict[str, np.ndarray], anchor: dict[str, np.ndarray]
    ) -> None:
        """Record the sampled accumulated update after one local iteration.

        ``params`` is the current model state, ``anchor`` the round-start
        state (both full dicts; only sampled entries are read).
        """
        self._snapshots.append(self.sampler.extract_delta(params, anchor))

    @property
    def num_recorded(self) -> int:
        return len(self._snapshots)

    def memory_bytes(self) -> int:
        """Actual bytes held by the recorded snapshots."""
        return sum(
            sum(v.nbytes for v in snap.values()) for snap in self._snapshots
        )

    def stats(self) -> dict[str, int]:
        """Anchor-round profiling cost summary (telemetry: the
        ``fedca.anchor`` event payload — §4.1 snapshots held, §5.5 bytes
        and sampled-parameter counts)."""
        return {
            "iterations": self.num_recorded,
            "profiling_bytes": self.memory_bytes(),
            "sampled_scalars": self.sampler.total_sampled(),
            "sampled_layers": len(self.sampler.indices),
        }

    def finalize(self, round_index: int) -> ProfiledCurves:
        """Compute per-layer and whole-model curves from the snapshots."""
        if not self._snapshots:
            raise RuntimeError("no snapshots recorded for this anchor round")
        k = len(self._snapshots)
        layer_names = list(self.sampler.indices.keys())

        layer_curves = {
            name: progress_curve([s[name] for s in self._snapshots])
            for name in layer_names
        }
        # Whole-model curve: progress of the concatenated sampled vector.
        model_curve = progress_curve(
            [np.concatenate([s[n] for n in layer_names]) for s in self._snapshots]
        )
        curves = ProfiledCurves(
            round_index=round_index,
            num_iterations=k,
            layer_curves=layer_curves,
            model_curve=model_curve,
        )
        self._snapshots.clear()
        return curves
