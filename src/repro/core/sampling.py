"""Intra-layer parameter sampling (paper §4.1).

For each layer, profiling records only ``min(ceil(0.5 · n), 100)`` randomly
chosen scalar parameters — parameters within a layer evolve at a similar
pace (Fig. 5), so a small subset faithfully represents the layer's progress
curve while cutting the snapshot memory from gigabytes to megabytes (§5.5).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sample_size", "LayerSampler", "BYTES_PER_SNAPSHOT_SCALAR"]

# float32 snapshots, matching the paper's 4-bytes-per-parameter accounting.
BYTES_PER_SNAPSHOT_SCALAR = 4


def sample_size(layer_size: int, *, fraction: float = 0.5, cap: float = 100) -> int:
    """Paper rule: ``min(ceil(fraction · n), cap)``, at least 1 scalar
    (``cap=math.inf`` with ``fraction=1`` samples every scalar)."""
    if layer_size < 1:
        raise ValueError("layer_size must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return max(1, min(math.ceil(fraction * layer_size), cap))


class LayerSampler:
    """Fixed per-layer index subsets of one architecture's flat ``(P,)``
    parameter vector (:class:`~repro.nn.layout.Layout` order).

    Indices are drawn once (per client, seeded) and reused across all anchor
    rounds, so curves from different rounds are directly comparable. They
    are held as one flat position array, layer after layer, so one gather
    reads the whole model's sample: layer ``l``'s positions are
    ``index[bounds[l] : bounds[l + 1]]``.
    """

    def __init__(
        self,
        layer_shapes: dict[str, tuple[int, ...]],
        *,
        fraction: float = 0.5,
        cap: float = 100,
        seed: int = 0,
    ) -> None:
        if not layer_shapes:
            raise ValueError("layer_shapes must not be empty")
        rng = np.random.default_rng(seed)
        #: Layer names, in table order.
        self.names = tuple(layer_shapes)
        parts, bounds, offset = [], [0], 0
        for shape in layer_shapes.values():
            n = math.prod(shape)
            k = sample_size(n, fraction=fraction, cap=cap)
            parts.append(np.sort(rng.choice(n, size=k, replace=False)) + offset)
            bounds.append(bounds[-1] + k)
            offset += n
        self.index = np.concatenate(parts)
        self.bounds = tuple(bounds)

    @classmethod
    def for_model(cls, model, *, fraction: float = 0.5, cap: float = 100, seed: int = 0):
        """Build a sampler from a :class:`repro.nn.Module`'s parameters."""
        shapes = {name: p.data.shape for name, p in model.named_parameters()}
        return cls(shapes, fraction=fraction, cap=cap, seed=seed)

    # ------------------------------------------------------------------
    def total_sampled(self) -> int:
        """Total sampled scalars across layers (paper §5.5 reports 618 / 905
        / 9974 for CNN / LSTM / WRN)."""
        return int(self.index.size)

    def snapshot_bytes(self, iterations: int) -> int:
        """Profiling memory for one anchor round of ``iterations`` snapshots."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        return self.total_sampled() * iterations * BYTES_PER_SNAPSHOT_SCALAR
