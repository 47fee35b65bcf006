"""Periodical-sampling profiler (paper §4.1).

At *anchor rounds* (every ``profile_every`` rounds) the client records, after
every local iteration, the sampled accumulated update of each layer. At
round end it turns those snapshots into per-layer and whole-model
statistical-progress curves, which guide early stopping and eager
transmission for the following ``profile_every − 1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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
    # Plain attributes, not properties: every stack reads both.
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


class AnchorRecorder:
    """Accumulates sampled snapshots of the anchor members of one stack
    during an anchor round of at most ``iterations`` steps, member ``i``
    through ``samplers[i]`` (every sampler of one architecture draws the
    same per-layer counts, so the members share one shape).

    The recorder never touches full parameter buffers beyond the sampled
    gather in :meth:`record` — it holds one ``(n, iterations, S)`` float32
    buffer, ``total_sampled × K × 4`` bytes a member once K steps are in
    (§5.5).
    """

    def __init__(self, samplers: Sequence[LayerSampler], iterations: int) -> None:
        self.sampler = samplers[0]
        self._index = np.stack([s.index for s in samplers])
        self._buf = np.empty(
            (len(samplers), iterations, self._index.shape[1]), dtype=np.float32
        )
        self._k = 0
        self._slots = self._anchor = None
        self._at = self._base = self._index

    def record(self, values: np.ndarray, anchor: np.ndarray, slots=(0,)) -> None:
        """Record every member's sampled accumulated update after one local
        iteration, in one gather.

        ``values`` holds the current model vectors as rows (a ``(P,)``
        vector is one row), member ``i``'s at row ``slots[i]``; ``anchor``
        is the round-start ``(P,)`` one, which must not change while it is
        recorded against. Only the sampled positions are read."""
        if slots is not self._slots:  # the flat positions, once per slots
            self._slots = slots
            self._at = self._index + values.shape[-1] * np.asarray(slots)[:, None]
        if anchor is not self._anchor:
            self._anchor, self._base = anchor, anchor[self._index]
        np.subtract(values.reshape(-1)[self._at], self._base, out=self._buf[:, self._k])
        self._k += 1

    @property
    def snapshots(self) -> np.ndarray:
        """The ``(n, k, S)`` snapshots recorded so far, ``[i, τ-1]`` being
        member ``i``'s ``G_τ`` on its sampled positions (a view of the
        recorder's buffer)."""
        return self._buf[:, : self._k]

    def stats(self) -> dict[str, int]:
        """One member's anchor-round profiling cost summary — every member
        of the recorder has the same (telemetry: the ``fedca.anchor`` event
        payload — §4.1 snapshots held, §5.5 bytes and sampled-parameter
        counts)."""
        snaps = self.snapshots[0]
        return {
            "iterations": len(snaps),
            "profiling_bytes": snaps.nbytes,
            "sampled_scalars": self.sampler.total_sampled(),
            "sampled_layers": len(self.sampler.names),
        }

    def finalize(self, round_index: int) -> list[ProfiledCurves]:
        """Each member's whole-model curve (the concatenated sampled
        vector) and one curve per layer (its contiguous column slice); each
        member's ``(k, S)`` block is converted to float64 once."""
        if not self._k:
            raise RuntimeError("no snapshots recorded for this anchor round")
        bounds = self.sampler.bounds
        out = []
        for snaps in self.snapshots:
            snaps = snaps.astype(np.float64)
            curves = np.empty((len(bounds), len(snaps)), dtype=np.float64)
            curves[0] = progress_curve(snaps)
            for row, (lo, hi) in enumerate(zip(bounds, bounds[1:]), 1):
                curves[row] = progress_curve(snaps[:, lo:hi])
            out.append(ProfiledCurves(round_index, curves, self.sampler.names))
        self._k = 0
        return out
