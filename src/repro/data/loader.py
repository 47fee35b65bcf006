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

__all__ = ["BatchStream"]


class BatchStream:
    """Cyclic shuffled minibatch stream over one client's shard."""

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
    def snapshot_state(self) -> dict:
        """Capture the stream position: shuffle order, cursor, RNG state.

        Restoring this into a stream over the same dataset makes
        :meth:`next_batch` produce exactly the batches an uninterrupted
        stream would (used by :mod:`repro.persist` checkpoint/resume)."""
        return {
            "rng": rng_state_bytes(self._rng),
            "order": self._order.copy(),
            "cursor": int(self._cursor),
        }

    def restore_state(self, snapshot: dict) -> None:
        """Inverse of :meth:`snapshot_state`."""
        order = np.asarray(snapshot["order"], dtype=np.int64)
        if order.shape != (len(self.dataset),):
            raise ValueError(
                f"stream snapshot order length {order.shape} does not match "
                f"dataset size {len(self.dataset)}"
            )
        set_rng_state(self._rng, snapshot["rng"])
        self._order = order
        self._cursor = int(snapshot["cursor"])

    def __iter__(self):
        while True:
            yield self.next_batch()
