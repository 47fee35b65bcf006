"""Cohort executor: trains M same-architecture clients as one batched
tensor program (see :mod:`repro.nn.cohort` for how a model is stacked).

Where the serial executor runs M clients' rounds one after another and the
parallel executor runs them in M processes (pure overhead on a 1-core
box — BENCH_parallel.json measured 0.82–1.0×), the cohort executor stacks
the M client replicas along a leading tensor axis so every layer's
forward/backward and the optimizer step advance all M clients with one
BLAS call. The *simulation* is unchanged: per-client simulated time,
uplink scheduling, FedCA decision logic and trace events all run
per-member in plain Python, exactly as the serial path computes them —
only the numerical tensor work is batched (and therefore float-tolerance
rather than bitwise relative to serial; see DESIGN.md §12).

Chunking: jobs are split into consecutive chunks of at most
``cohort_size``; when M does not divide the number of selected clients the
**tail chunk trains the remainder** (selected=5 at M=4 → chunks of 4 and
1), so no client is ever dropped.

Fallback: exactly one, and it is a fact a layer declares, not a topology —
a model containing an unstackable layer (only ``BatchNorm2d``: its batch
statistics would absorb the padded rows of ragged member batches) runs the
serial per-client path with a single warning naming that layer, and
results are then bitwise-identical to serial. Every strategy runs batched:
``Strategy.cohort_round`` is a driver over the same per-client step
machine the serial ``client_round`` feeds (DESIGN.md §12).
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..nn.cohort import (
    CohortModel,
    CohortSGD,
    cohort_softmax_cross_entropy,
    cohort_supported,
)
from .executor import Executor
from .round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Strategy
    from .client import SimClient

__all__ = ["CohortEngine", "CohortExecutor"]

#: Default cohort width; the bench's headline configuration.
DEFAULT_COHORT_SIZE = 32


class CohortEngine:
    """One chunk's batched training facade handed to ``Strategy.cohort_round``.

    Wraps the stacked :class:`~repro.nn.cohort.CohortModel` (slot ``i`` is
    ``clients[i]``, in job order) plus the padded-minibatch assembly that
    turns M heterogeneous client shards into one ``(C, B, …)`` tensor per
    step. Strategies drive it like a multi-client ``SimClient``:
    :meth:`load_global` → repeated :meth:`train_step` with an active mask →
    :meth:`stacked_update` / :meth:`write_back`.
    """

    def __init__(self, model: CohortModel, clients: Sequence["SimClient"]) -> None:
        if len(clients) != model.cohort_size:
            raise ValueError(
                f"cohort model has {model.cohort_size} slots, got "
                f"{len(clients)} clients"
            )
        self.model = model
        self.clients = list(clients)
        self.size = len(clients)
        model.bind_member_models([c.model for c in self.clients])
        #: Batched step / member-step counters (telemetry: realized occupancy).
        self.steps = 0
        self.member_steps = 0

    # ------------------------------------------------------------------
    def load_global(self, state: dict[str, np.ndarray]) -> None:
        """Broadcast the server model into every member slot."""
        self.model.load_global(state)

    def member_params(self, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s live parameter views (zero-copy into the stack)."""
        return self.model.member_params(i)

    def build_optimizer(
        self, spec, global_state: dict[str, np.ndarray]
    ) -> CohortSGD:
        """Batched optimizer from an :class:`~repro.algorithms.base.OptimizerSpec`;
        ``global_state`` is the proximal anchor (read only when ``spec.mu``)."""
        return CohortSGD(
            self.model,
            spec.lr,
            weight_decay=spec.weight_decay,
            momentum=spec.momentum,
            mu=spec.mu,
            anchor=global_state,
        )

    # ------------------------------------------------------------------
    def train_step(
        self,
        optimizer: CohortSGD,
        active: np.ndarray,
        batch_sizes: Sequence[int | None] | None = None,
    ) -> np.ndarray:
        """One batched SGD iteration over the active members.

        Draws the next minibatch from each **active** member's own stream
        (inactive members consume no data and no RNG draws, leaving their
        cross-round stream state exactly where a serial run would), pads the
        batches to a common width, and runs forward/backward/step as one
        stacked program. ``batch_sizes[i]`` overrides member ``i``'s stream
        batch size for this step (the intra-round batch-adaptation
        extension); the padding absorbs the ragged widths. Returns
        per-member losses, shape ``(C,)`` — entries of inactive members are
        0.0 and must be ignored by the caller.
        """
        c = self.size
        counts = np.zeros(c, dtype=np.int64)
        batches: list[tuple[int, np.ndarray, np.ndarray]] = []
        for i in range(c):
            if not active[i]:
                continue
            x, y = self.clients[i].stream.next_batch(
                None if batch_sizes is None else batch_sizes[i]
            )
            batches.append((i, x, y))
            counts[i] = x.shape[0]
        if not batches:
            return np.zeros(c, dtype=np.float64)
        width = int(counts.max())
        feat = batches[0][1].shape[1:]
        x_pad = np.zeros((c, width) + feat, dtype=np.float32)
        y_pad = np.zeros((c, width), dtype=np.int64)
        for i, x, y in batches:
            x_pad[i, : x.shape[0]] = x
            y_pad[i, : y.shape[0]] = y
        self.model.set_member_rows(counts)
        logits = self.model.forward(x_pad)
        loss, grad = cohort_softmax_cross_entropy(logits, y_pad, counts)
        self.model.zero_grad()
        self.model.backward(grad)
        optimizer.step(active)
        self.steps += 1
        self.member_steps += int(np.count_nonzero(active))
        return loss

    # ------------------------------------------------------------------
    def stacked_update(
        self, global_state: dict[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Whole-cohort update tensor ``{layer: (C, *shape)}``; one
        vectorised subtract per layer. Per-member result dicts should be
        zero-copy row views of these stacks so aggregation consumes the
        batched tensor without an unstack pass."""
        return self.model.stacked_update(global_state)

    def member_update(
        self, stacked: dict[str, np.ndarray], i: int
    ) -> dict[str, np.ndarray]:
        """Member ``i``'s update dict as views into :meth:`stacked_update`."""
        return {name: arr[i] for name, arr in stacked.items()}

    def write_back(self) -> None:
        """Copy trained member slots back into the serial model replicas so
        ``client.model`` is left exactly as a serial round would leave it."""
        self.model.write_back([c.model for c in self.clients])


class CohortExecutor(Executor):
    """Single-process engine that batches chunks of M clients per round."""

    name = "cohort"

    def __init__(self, cohort_size: int | None = None) -> None:
        size = DEFAULT_COHORT_SIZE if cohort_size is None else cohort_size
        if size < 1:
            raise ValueError(f"cohort size must be >= 1, got {size}")
        self.cohort_size = size
        self._recorder = None
        #: Stacked models cached per chunk width — selection changes the
        #: membership every round but rarely the widths (full chunks of M
        #: plus one tail width), so the (C, *shape) stacks are reused.
        self._models: dict[int, CohortModel] = {}
        #: Which layer of the bound model is unstackable (``None``: none is).
        self._fallback_reason: str | None = None
        self._warned_fallback = False
        self._steps = 0
        self._member_steps = 0
        self._mirrored_steps = 0
        self._mirrored_member_steps = 0

    # ------------------------------------------------------------------
    def bind(self, clients: Sequence["SimClient"], strategy: "Strategy") -> None:
        self._clients = clients
        self._strategy = strategy
        if clients:
            ok, reason = cohort_supported(clients[0].model)
            self._fallback_reason = None if ok else reason

    def set_recorder(self, recorder) -> None:
        self._recorder = recorder

    def _model_for(self, template, width: int) -> CohortModel:
        model = self._models.get(width)
        if model is None:
            model = CohortModel(template, width)
            self._models[width] = model
        return model

    # ------------------------------------------------------------------
    def run_round(
        self,
        global_state: dict[str, np.ndarray],
        global_buffers: dict[str, np.ndarray],
        jobs: list[tuple[int, RoundContext]],
    ) -> list[ClientRoundResult]:
        if self._clients is None or self._strategy is None:
            raise RuntimeError(
                "executor not bound; construct it via FederatedSimulator"
            )
        results: list[ClientRoundResult] = []
        # Consecutive chunks of at most M; the tail chunk gets the remainder.
        with self._profiler.phase("client.train"):
            for start in range(0, len(jobs), self.cohort_size):
                chunk = jobs[start : start + self.cohort_size]
                results.extend(
                    self._run_chunk(global_state, global_buffers, chunk)
                )
        self._mirror_metrics()
        return results

    def _run_chunk(
        self,
        global_state: dict[str, np.ndarray],
        global_buffers: dict[str, np.ndarray],
        chunk: list[tuple[int, RoundContext]],
    ) -> list[ClientRoundResult]:
        clients = [self._clients[cid] for cid, _ in chunk]
        for client in clients:
            client.stage_buffers(global_buffers)
        if self._fallback_reason is not None:
            # The one fallback: the model holds an unstackable layer.
            if not self._warned_fallback:
                warnings.warn(
                    f"cohort executor falling back to serial per-client rounds: "
                    f"{self._fallback_reason}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self._warned_fallback = True
            return [
                self._strategy.client_round(client, global_state, ctx)
                for client, (_, ctx) in zip(clients, chunk)
            ]
        engine = CohortEngine(
            self._model_for(clients[0].model, len(clients)), clients
        )
        out = self._strategy.cohort_round(engine, chunk, global_state)
        self._steps += engine.steps
        self._member_steps += engine.member_steps
        return out

    def _mirror_metrics(self) -> None:
        """Publish occupancy metrics through the recorder's metric
        registries (never the event trace, so trace determinism holds)."""
        rec = self._recorder
        if rec is None or not getattr(rec, "enabled", False):
            return
        rec.gauge("repro_cohort_size", float(self.cohort_size))
        # Counters are cumulative adds; publish only the delta since the
        # last mirror so one call per round stays idempotent.
        rec.counter("repro_cohort_steps_total", self._steps - self._mirrored_steps)
        rec.counter(
            "repro_cohort_member_steps_total",
            self._member_steps - self._mirrored_member_steps,
        )
        self._mirrored_steps = self._steps
        self._mirrored_member_steps = self._member_steps

    # ------------------------------------------------------------------
    def min_resident_clients(self) -> int:
        """A full chunk of M clients is live during each batched program, so
        a lazy population must keep at least M residents (see
        :meth:`Executor.min_resident_clients`)."""
        return self.cohort_size

    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, float]:
        """Realized cohort occupancy for benches: fraction of member slots
        live across all batched steps (1.0 = no masking ever happened)."""
        if self._steps == 0:
            return {"steps": 0.0, "member_steps": 0.0, "occupancy": 0.0}
        return {
            "steps": float(self._steps),
            "member_steps": float(self._member_steps),
            "occupancy": self._member_steps / (self._steps * self.cohort_size),
        }

    def capture_run_state(self) -> dict[int, dict]:
        return self._capture_local_state()
