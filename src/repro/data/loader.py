"""Minibatch sampling for local client iterations.

Each FL local iteration consumes one minibatch. Clients hold small shards,
so the loader samples *with replacement per epoch-free stream*: it shuffles
its shard and walks it cyclically, reshuffling at each wrap — the standard
"infinite dataloader" used by FL simulators, which makes the number of local
iterations independent of shard size.
"""

from __future__ import annotations

import numpy as np

from ..rngstate import rng_state_bytes, set_rng_state
from .synthetic import Dataset

__all__ = ["BatchStream", "check_stream_position"]


class BatchStream:
    """Cyclic shuffled minibatch stream over one client's shard."""

    SNAPSHOT_KEYS = ("rng", "order", "cursor")  #: :meth:`snapshot_values`' names

    def __init__(
        self, dataset: Dataset, batch_size: int, *, seed: int | np.random.SeedSequence = 0
    ) -> None:
        if len(dataset) == 0:
            raise ValueError("cannot stream batches from an empty dataset")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self._rng = np.random.default_rng(seed)
        self._order = self._rng.permutation(len(dataset))
        self._cursor = 0

    def next_batch(self, size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(x, y)`` for the next minibatch.

        ``size`` overrides the stream's batch size for this draw (clamped to
        the shard size) — the intra-round batch-adaptation extension shrinks
        batches mid-round on slowed-down clients.
        """
        n = len(self.dataset)
        take = self.batch_size if size is None else max(1, min(size, n))
        idx = np.empty(take, dtype=np.int64)
        filled = 0
        while filled < take:
            avail = n - self._cursor
            step = min(avail, take - filled)
            idx[filled : filled + step] = self._order[self._cursor : self._cursor + step]
            self._cursor += step
            filled += step
            if self._cursor == n:
                self._order = self._rng.permutation(n)
                self._cursor = 0
        return self.dataset.x[idx], self.dataset.y[idx]

    # ------------------------------------------------------------------
    def snapshot_values(self) -> tuple:
        """The position — RNG state, shuffle order (not copied), cursor — from
        which a restored stream draws the batches an uninterrupted one would
        (:func:`repro.scale.cache.capture_blob`)."""
        return rng_state_bytes(self._rng), self._order, int(self._cursor)

    def restore_values(self, rng: bytes, order, cursor) -> None:
        """Inverse of :meth:`snapshot_values`; the position is checked first
        (:func:`check_stream_position`)."""
        self._order, self._cursor = check_stream_position(order, cursor, len(self.dataset))
        set_rng_state(self._rng, rng)


def check_stream_position(order, cursor, n: int) -> tuple[np.ndarray, int]:
    """The ``(order, cursor)`` of a stream position over an ``n``-sample
    shard. The position is outside input: an ``order`` that is not a
    permutation of ``range(n)``, or a cursor outside ``[0, n)``, is refused
    here rather than trained on."""
    order = np.asarray(order, dtype=np.int64)
    cursor = int(cursor)
    if order.shape != (n,):
        raise ValueError(
            f"stream snapshot order length {order.shape} does not match "
            f"dataset size {n}"
        )
    if not 0 <= cursor < n:
        raise ValueError(f"stream snapshot cursor {cursor} is outside [0, {n})")
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"stream snapshot order is not a permutation of range({n})")
    return order, cursor
