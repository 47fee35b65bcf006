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
    """Progress curves from one anchor round, as one ``(L + 1, K)`` matrix.

    Row 0 is the whole-model curve and row ``l + 1`` layer ``names[l]``'s:
    ``curves[r, τ-1]`` is that curve's ``P_τ``. K, the number of columns,
    is the anchor round's iteration count.
    """

    round_index: int
    curves: np.ndarray
    names: tuple[str, ...]
    # Plain attributes, not properties: Eq. 2-4 read both several times per
    # local iteration.
    num_iterations: int = field(init=False)
    model_curve: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        rows, shape = len(self.names) + 1, self.curves.shape
        if len(shape) != 2 or shape[0] != rows or shape[1] < 1:
            raise ValueError(f"curves must be ({rows}, K >= 1), got {shape}")
        object.__setattr__(self, "num_iterations", shape[1])
        object.__setattr__(self, "model_curve", self.curves[0])

    def layer_curve(self, name: str) -> np.ndarray:
        return self.curves[1 + self.names.index(name)]

    def p(self, tau: int) -> float:
        """Whole-model ``P_τ`` with the convention ``P_0 = 0``."""
        if tau < 0 or tau > self.num_iterations:
            raise ValueError(f"tau must be in [0, {self.num_iterations}]")
        return 0.0 if tau == 0 else float(self.model_curve[tau - 1])


class AnchorRecorder:
    """Accumulates sampled snapshots during an anchor round of at most
    ``iterations`` steps.

    The recorder never touches full parameter buffers beyond the sampled
    gather in :meth:`record` — it holds one ``(iterations, S)`` float32
    buffer, ``total_sampled × K × 4`` bytes once K steps are in (§5.5).
    """

    def __init__(self, sampler: LayerSampler, iterations: int) -> None:
        self.sampler = sampler
        self._buf = np.empty((iterations, sampler.total_sampled()), dtype=np.float32)
        self._k = 0

    def record(self, params: np.ndarray, anchor: np.ndarray) -> None:
        """Record the sampled accumulated update after one local iteration.

        ``params`` is the current ``(P,)`` model vector, ``anchor`` the
        round-start one; only the sampled positions are read.
        """
        idx = self.sampler.index
        np.subtract(params[idx], anchor[idx], out=self._buf[self._k])
        self._k += 1

    @property
    def snapshots(self) -> np.ndarray:
        """The ``(k, S)`` snapshots recorded so far, row ``τ-1`` being
        ``G_τ`` on the sampled positions (a view of the recorder's buffer)."""
        return self._buf[: self._k]

    def stats(self) -> dict[str, int]:
        """Anchor-round profiling cost summary (telemetry: the
        ``fedca.anchor`` event payload — §4.1 snapshots held, §5.5 bytes
        and sampled-parameter counts)."""
        snaps = self.snapshots
        return {
            "iterations": len(snaps),
            "profiling_bytes": snaps.nbytes,
            "sampled_scalars": self.sampler.total_sampled(),
            "sampled_layers": len(self.sampler.names),
        }

    def finalize(self, round_index: int) -> ProfiledCurves:
        """Compute the whole-model curve (the concatenated sampled vector)
        and one curve per layer (its contiguous column slice)."""
        snaps = self.snapshots
        if not len(snaps):
            raise RuntimeError("no snapshots recorded for this anchor round")
        bounds = self.sampler.bounds
        curves = np.empty((len(bounds), len(snaps)), dtype=np.float64)
        curves[0] = progress_curve(list(snaps))
        for row, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1):
            curves[row] = progress_curve(list(snaps[:, lo:hi]))
        self._k = 0
        return ProfiledCurves(round_index, curves, self.sampler.names)
