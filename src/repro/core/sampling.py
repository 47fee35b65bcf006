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


def sample_size(layer_size: int, *, fraction: float = 0.5, cap: int = 100) -> int:
    """Paper rule: ``min(ceil(fraction · n), cap)``, at least 1 scalar."""
    if layer_size < 1:
        raise ValueError("layer_size must be >= 1")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    return max(1, min(math.ceil(fraction * layer_size), cap))


class LayerSampler:
    """Fixed per-layer flat-index subsets for one model architecture.

    Indices are drawn once (per client, seeded) and reused across all anchor
    rounds, so curves from different rounds are directly comparable.
    """

    def __init__(
        self,
        layer_shapes: dict[str, tuple[int, ...]],
        *,
        fraction: float = 0.5,
        cap: int = 100,
        seed: int = 0,
    ) -> None:
        if not layer_shapes:
            raise ValueError("layer_shapes must not be empty")
        rng = np.random.default_rng(seed)
        self.fraction = fraction
        self.cap = cap
        self.indices: dict[str, np.ndarray] = {}
        for name, shape in layer_shapes.items():
            n = int(np.prod(shape))
            k = sample_size(n, fraction=fraction, cap=cap)
            self.indices[name] = np.sort(rng.choice(n, size=k, replace=False))

    @classmethod
    def for_model(cls, model, *, fraction: float = 0.5, cap: int = 100, seed: int = 0):
        """Build a sampler from a :class:`repro.nn.Module`'s parameters."""
        shapes = {name: p.data.shape for name, p in model.named_parameters()}
        return cls(shapes, fraction=fraction, cap=cap, seed=seed)

    # ------------------------------------------------------------------
    def extract(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Pull the sampled scalars (as float32 copies) from full buffers.

        ``arrays`` maps layer name → full array (any shape matching the
        registered layer). Missing layers are an error — a silent subset
        would corrupt whole-model curves.
        """
        out: dict[str, np.ndarray] = {}
        for name, idx in self.indices.items():
            if name not in arrays:
                raise KeyError(f"layer {name!r} missing from arrays")
            flat = np.asarray(arrays[name]).ravel()
            out[name] = flat[idx].astype(np.float32)
        return out

    def extract_delta(
        self,
        params: dict[str, np.ndarray],
        anchor: dict[str, np.ndarray],
    ) -> dict[str, np.ndarray]:
        """Sampled accumulated update: ``params − anchor`` on sampled indices
        only (no full-model temporary is materialised)."""
        out: dict[str, np.ndarray] = {}
        for name, idx in self.indices.items():
            p = np.asarray(params[name]).ravel()
            a = np.asarray(anchor[name]).ravel()
            out[name] = (p[idx] - a[idx]).astype(np.float32)
        return out

    # ------------------------------------------------------------------
    def total_sampled(self) -> int:
        """Total sampled scalars across layers (paper §5.5 reports 618 / 905
        / 9974 for CNN / LSTM / WRN)."""
        return sum(int(idx.size) for idx in self.indices.values())

    def snapshot_bytes(self, iterations: int) -> int:
        """Profiling memory for one anchor round of ``iterations`` snapshots."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        return self.total_sampled() * iterations * BYTES_PER_SNAPSHOT_SCALAR
