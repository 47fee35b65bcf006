"""Client-autonomy extensions (paper §6, "Discussions on future work").

The paper closes by proposing that clients also adapt *traditional
hyper-parameters* — learning rate, momentum, batch size — within a round.
:class:`FedCAAdaptiveBatch` implements the batch-size direction: when a
client observes a mid-round slowdown, it shrinks the minibatch so that the
wall-clock cost per iteration stays near its fast-mode budget, trading
gradient variance for pace instead of dropping iterations entirely.

The system model charges an iteration ``batch/base_batch`` of the client's
base iteration work, so a half batch really takes half the compute — the
statistical effect (noisier updates) comes from the genuinely smaller SGD
batch.
"""

from __future__ import annotations

from ..runtime.client import SimClient
from .base import OptimizerSpec
from .fedca import FedCA

__all__ = ["FedCAAdaptiveBatch"]


class FedCAAdaptiveBatch(FedCA):
    """FedCA plus intra-round batch-size adaptation (see module docstring)."""

    name = "FedCA+AB"

    def __init__(
        self,
        optimizer: OptimizerSpec,
        *,
        slowdown_trigger: float = 2.0,
        min_batch_fraction: float = 0.25,
        **fedca_kwargs,
    ) -> None:
        """``slowdown_trigger``: instantaneous slowdown factor beyond which
        the client adapts; ``min_batch_fraction``: floor on the shrunken
        batch relative to the configured one (too-small batches are pure
        noise)."""
        super().__init__(optimizer, **fedca_kwargs)
        if slowdown_trigger < 1.0:
            raise ValueError("slowdown_trigger must be >= 1")
        if not 0.0 < min_batch_fraction <= 1.0:
            raise ValueError("min_batch_fraction must be in (0, 1]")
        self.slowdown_trigger = slowdown_trigger
        self.min_batch_fraction = min_batch_fraction

    def step_plan(self, client: SimClient, t: float) -> tuple[int | None, float]:
        slowdown = client.trace.slowdown_at(t)
        base_batch = client.stream.batch_size
        if slowdown >= self.slowdown_trigger:
            # Shrink the batch inversely with the slowdown, floored.
            fraction = max(self.min_batch_fraction, 1.0 / slowdown)
        else:
            fraction = 1.0
        batch = max(1, int(round(base_batch * fraction)))
        # Compute cost scales with the actual batch processed.
        return batch, batch / base_batch
