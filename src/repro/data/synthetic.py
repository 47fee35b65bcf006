"""Synthetic stand-ins for CIFAR-10, CIFAR-100 and the KWS speech dataset.

The sandbox has no datasets and no network, so we substitute
class-conditional generative families that preserve the property FedCA
exploits: SGD on them exhibits large, coherent early-iteration updates and
small, conflicting late-iteration updates (diminishing marginal statistical
progress), and different layers converge at different paces.

* :func:`make_image_dataset` — each class has a smooth random prototype
  image (low-frequency Gaussian field); samples are the prototype plus
  per-sample white noise and a random global intensity jitter. This mimics a
  "learnable but non-trivial" vision task: a CNN must average out the noise
  to recover the prototypes.
* :func:`make_sequence_dataset` — each class has a prototype multi-channel
  sinusoid bank (random frequencies/phases per channel) standing in for a
  spoken-keyword spectrogram; samples add white noise and random time shift.

Both work in place in one float64 array and cast it once to float32, with
the bytes of the out-of-place expressions ``tests/helpers.py`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "make_image_dataset", "make_sequence_dataset"]


@dataclass(frozen=True)
class Dataset:
    """An in-memory labelled dataset.

    ``x`` is ``(N, ...)`` float32 features, ``y`` is ``(N,)`` int64 labels in
    ``[0, num_classes)``.
    """

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"feature/label count mismatch: {self.x.shape[0]} vs {self.y.shape[0]}"
            )
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("labels out of range")

    def __len__(self) -> int:
        return int(self.x.shape[0])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The samples at ``indices``. Integer indexing into labels already
        checked cannot leave ``[0, num_classes)``, so they are not re-checked."""
        sub = object.__new__(Dataset)
        sub.__dict__.update(x=self.x[indices], y=self.y[indices], num_classes=self.num_classes)
        return sub


def _smooth_field(
    rng: np.random.Generator, channels: int, size: int, smoothness: int = 3
) -> np.ndarray:
    """Low-frequency random image: upsampled coarse Gaussian noise."""
    coarse = rng.normal(size=(channels, smoothness, smoothness))
    # Bilinear-ish upsampling by repetition then box smoothing keeps this
    # dependency-free; visual quality is irrelevant, spatial coherence is not.
    reps = int(np.ceil(size / smoothness))
    field = np.repeat(np.repeat(coarse, reps, axis=1), reps, axis=2)[:, :size, :size]
    kernel = np.ones((3, 3)) / 9.0
    out = np.empty_like(field)
    padded = np.pad(field, ((0, 0), (1, 1), (1, 1)), mode="edge")
    for c in range(channels):
        acc = np.zeros((size, size))
        for di in range(3):
            for dj in range(3):
                acc += kernel[di, dj] * padded[c, di : di + size, dj : dj + size]
        out[c] = acc
    return out


def _add_rows(
    x: np.ndarray, prototypes: np.ndarray, labels: np.ndarray, shifts: np.ndarray | None = None
) -> None:
    """``x += prototypes[labels]`` (each row first rolled left by its
    ``shifts`` entry along axis 1), in blocks of rows, so the gathered
    prototypes never take a full-size temporary. IEEE addition commutes,
    so noise plus prototype is the bytes of prototype plus noise."""
    step = -(-len(x) // 64)
    for start in range(0, len(x), step):
        rows = slice(start, start + step)
        block = prototypes[labels[rows]]
        if shifts is not None:
            idx = (np.arange(x.shape[1])[None, :] + shifts[rows, None]) % x.shape[1]
            block = np.take_along_axis(block, idx[:, :, None], axis=1)
        x[rows] += block


def make_image_dataset(
    *,
    num_samples: int,
    num_classes: int = 10,
    channels: int = 3,
    image_size: int = 12,
    noise: float = 0.6,
    seed: int = 0,
) -> Dataset:
    """Class-conditional smooth-prototype image dataset (CIFAR stand-in)."""
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = np.random.default_rng(seed)
    prototypes = np.stack(
        [_smooth_field(rng, channels, image_size) for _ in range(num_classes)]
    )
    # Balanced labels, then shuffled: Dirichlet partitioning downstream
    # creates the non-IID skew, the base pool stays balanced like CIFAR.
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    x = rng.normal(size=(num_samples, channels, image_size, image_size))
    x *= noise
    _add_rows(x, prototypes, labels)
    # Per-sample intensity jitter makes the task slightly harder than pure
    # prototype-plus-noise and forces conv layers to learn contrast-robust
    # features.
    x *= 1.0 + 0.1 * rng.normal(size=(num_samples, 1, 1, 1))
    return Dataset(x.astype(np.float32), labels.astype(np.int64), num_classes)


def make_sequence_dataset(
    *,
    num_samples: int,
    num_classes: int = 10,
    seq_len: int = 10,
    channels: int = 8,
    noise: float = 0.5,
    max_shift: int = 0,
    seed: int = 0,
) -> Dataset:
    """Class-conditional sinusoid-bank sequence dataset (KWS stand-in).

    ``max_shift`` adds a random circular time shift of up to that many steps
    per sample (utterance misalignment); 0 keeps sequences aligned, which is
    what a last-hidden-state LSTM classifier can learn reliably.
    """
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    if not 0 <= max_shift < seq_len:
        raise ValueError("max_shift must be in [0, seq_len)")
    rng = np.random.default_rng(seed)
    t = np.arange(seq_len)[None, :, None]  # (1, T, 1)
    freqs = rng.uniform(0.2, 1.5, size=(num_classes, 1, channels))
    phases = rng.uniform(0, 2 * np.pi, size=(num_classes, 1, channels))
    amps = rng.uniform(0.5, 1.5, size=(num_classes, 1, channels))
    prototypes = amps * np.sin(freqs * t + phases)  # (C_cls, T, D)
    labels = np.arange(num_samples) % num_classes
    rng.shuffle(labels)
    shifts = rng.integers(0, max_shift + 1, size=num_samples) if max_shift > 0 else None
    x = rng.normal(size=(num_samples, seq_len, channels))
    x *= noise
    _add_rows(x, prototypes, labels, shifts)
    return Dataset(x.astype(np.float32), labels.astype(np.int64), num_classes)
