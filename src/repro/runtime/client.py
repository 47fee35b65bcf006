"""Simulated FL client: local data, local model replica, device and link —
and the one home of everything remembered about it between rounds."""

from __future__ import annotations

from typing import Any, Callable, Mapping

import numpy as np

from ..data import BatchStream, Dataset
from ..nn import Module, softmax_cross_entropy
from ..sysmodel import LinkModel, SpeedTrace, UplinkScheduler

__all__ = ["SimClient"]


class SimClient:
    """One emulated edge device.

    Bundles the client's data shard (with its cyclic batch stream), a private
    model replica, the dynamic compute-speed trace and the uplink scheduler.
    Strategies drive it through :meth:`load_global` / :meth:`train_step` and
    read the system state directly.
    """

    def __init__(
        self,
        client_id: int,
        shard: Dataset,
        *,
        model_fn: Callable[[], Module],
        batch_size: int,
        trace: SpeedTrace,
        link: LinkModel,
        seed: int = 0,
    ) -> None:
        self.client_id = client_id
        self.shard = shard
        self.model = model_fn()
        self.stream = BatchStream(shard, batch_size, seed=seed)
        self.trace = trace
        self.link = link
        self.uplink = UplinkScheduler(link)
        # Live kept objects by owner key, and restored snapshots whose owner
        # has not asked for its object yet (see keep()).
        self._kept: dict[str, Any] = {}
        self._pending: dict[str, dict] = {}
        # Per-layer byte sizes drive all transmission times: the one
        # read-only mapping every replica of the architecture shares.
        self.layer_bytes: Mapping[str, int] = self.model.layer_bytes()
        self.model_bytes: int = self.model.nbytes()

    @property
    def num_samples(self) -> int:
        return len(self.shard)

    # ------------------------------------------------------------------
    def load_global(self, params: np.ndarray, buffers: np.ndarray) -> None:
        """Install the broadcast global model — its ``(P,)`` parameter and
        ``(B,)`` buffer vectors — into the local replica: two copies."""
        arena = self.model.arena()
        arena.values[...] = params
        arena.buffers[...] = buffers
        self.model.train(True)

    def train_step(self, optimizer, batch_size: int | None = None) -> float:
        """One local SGD iteration on the next minibatch; returns the loss.

        ``batch_size`` overrides the stream default for this step (used by
        the intra-round batch-adaptation extension)."""
        x, y = self.stream.next_batch(batch_size)
        logits = self.model(x)
        loss, grad = softmax_cross_entropy(logits, y)
        self.model.zero_grad()
        self.model.backward(grad)
        optimizer.step()
        return loss

    # ------------------------------------------------------------------
    def keep(self, key: str, factory: Callable[[], Any]) -> Any:
        """The object owner ``key`` (a strategy, the wire layer) keeps about
        this client across rounds: built by ``factory()`` on first use,
        starting from the snapshot for ``key`` if the client was restored
        with one. It speaks ``snapshot_state()`` / ``restore_state()`` and
        travels in the client's blob (:func:`repro.scale.cache.capture_blob`)."""
        obj = self._kept.get(key)
        if obj is None:
            obj = self._kept[key] = factory()
            pending = self._pending.pop(key, None)
            if pending is not None:
                obj.restore_state(pending)
        return obj

    def extra_state(self) -> list[tuple[str, Any]]:
        """What persists across rounds past the stream and the trace (the
        rest is rebuilt from the broadcast), present only when non-empty: the
        replica's layer RNG (dropout) and ``"kept"``, the snapshots of what
        owners :meth:`keep` here (not-yet-adopted ones carried verbatim)."""
        model_rng = self.model.rng_state()
        extra: list[tuple[str, Any]] = [("model_rng", model_rng)] if model_rng else []
        if not (self._kept or self._pending):
            return extra
        kept = dict(self._pending)
        for key, obj in self._kept.items():
            snapshot = obj.snapshot_state()
            if snapshot:
                kept[key] = snapshot
        if kept:
            # Key order is canonical, not adoption order: a resumed run's
            # snapshots serialise like the uninterrupted run's.
            extra.append(("kept", dict(sorted(kept.items()))))
        return extra

    def restore_extra(self, extra: Mapping[str, Any]) -> None:
        """Inverse of :meth:`extra_state`, given its entries by key."""
        if "model_rng" in extra:
            self.model.load_rng_state(extra["model_rng"])
        self._kept = {}
        self._pending = dict(extra.get("kept", {}))

    def local_update(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """Accumulated update ``w_local − w_global`` per layer against the
        round-start ``(P,)`` global parameters: one subtract, returned as
        views into the result."""
        arena = self.model.arena()
        return arena.layout.views(arena.values - params)
