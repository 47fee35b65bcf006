"""Cohort executor: trains M same-architecture clients as one batched
tensor program (see :mod:`repro.nn.cohort` for how a model is stacked).

Where the reference :class:`~repro.runtime.executor.SerialExecutor` runs M
clients' rounds one after another, the cohort executor stacks the M client
replicas along a leading tensor axis so every layer's forward/backward and
the optimizer step advance all M clients with one BLAS call. The
*simulation* is unchanged: per-client simulated time, uplink scheduling,
FedCA decision logic and trace events all run per-member in plain Python,
exactly as the per-client loop computes them, and the batched tensor work
keeps the bytes of every member whose products have the loop's operand
shapes (DESIGN.md §12): all of them unpadded — the default ``serial``
engine, and what each parallel worker drives over its share of a round
(:mod:`repro.runtime.parallel`) — and under ``cohort[:M]`` all but a client
whose shard is smaller than a batch, which is zero-padded into its chunk's
program rather than given one of its own.

Chunking: jobs are split into consecutive chunks of at most
``cohort_size``; when M does not divide the number of selected clients the
**tail chunk trains the remainder** (selected=5 at M=4 → chunks of 4 and
1), so no client is ever dropped. Unpadded, a chunk is further split into
one stacked program per batch width in it.

There is no fallback: every layer runs over a stack and every strategy
runs batched — ``Strategy.cohort_round`` is a driver over the same
per-client step machine the serial ``client_round`` feeds (DESIGN.md §12).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..nn.cohort import CohortModel, CohortSGD, cohort_softmax_cross_entropy
from .executor import Executor
from .round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Strategy
    from ..nn.layout import Layout
    from ..scale import LazyClientPopulation
    from .client import SimClient

__all__ = ["CohortEngine", "CohortExecutor", "StepCounts"]

#: Default cohort width: ``cohort``'s, and the cap of an engine sized at bind.
DEFAULT_COHORT_SIZE = 32


class StepCounts:
    """Cumulative batched steps, slot-steps (a step of a chunk of width
    ``w`` offers ``w`` slots) and member-steps (slots a live member filled),
    wherever the chunks ran: a cohort executor counts its own, a parallel
    executor adds what its workers report."""

    _COUNTERS = (
        "repro_cohort_steps_total",
        "repro_cohort_slot_steps_total",
        "repro_cohort_member_steps_total",
    )

    def __init__(self) -> None:
        self.totals = [0, 0, 0]
        self._taken = [0, 0, 0]

    def add(self, steps: int, slot_steps: int, member_steps: int) -> None:
        for k, n in enumerate((steps, slot_steps, member_steps)):
            self.totals[k] += n

    def take(self) -> tuple[int, ...]:
        """What was added since the last take."""
        delta = tuple(t - s for t, s in zip(self.totals, self._taken))
        self._taken = list(self.totals)
        return delta

    def publish(self, recorder) -> None:
        """Mirror the untaken part into the recorder's counters (never the
        event trace, so trace determinism holds)."""
        if recorder is not None and getattr(recorder, "enabled", False):
            for name, delta in zip(self._COUNTERS, self.take()):
                recorder.counter(name, delta)

    def occupancy(self) -> dict[str, float]:
        """Realized occupancy for benches: fraction of offered member slots
        live across all batched steps (1.0 = no masking ever happened)."""
        steps, slot_steps, member_steps = map(float, self.totals)
        return {
            "steps": steps,
            "slot_steps": slot_steps,
            "member_steps": member_steps,
            "occupancy": member_steps / slot_steps if slot_steps else 0.0,
        }


class CohortEngine:
    """One chunk's batched training facade handed to ``Strategy.cohort_round``.

    Wraps the stacked :class:`~repro.nn.cohort.CohortModel` (slot ``i`` is
    ``clients[i]``, in job order) plus the minibatch assembly that turns M
    client shards into one ``(C, B, …)`` tensor per step. Strategies drive
    it like a multi-client ``SimClient``: :meth:`load_global` → repeated
    :meth:`train_step` with an active mask → :meth:`stacked_update` /
    :meth:`write_back`. ``buffers`` is the round's ``(B,)`` global buffer
    vector; ``pad`` is the executor's (see :class:`CohortExecutor`).
    """

    def __init__(
        self,
        model: CohortModel,
        clients: Sequence["SimClient"],
        buffers: np.ndarray,
        *,
        pad: bool = True,
    ) -> None:
        if len(clients) != model.cohort_size:
            raise ValueError(
                f"cohort model has {model.cohort_size} slots, got "
                f"{len(clients)} clients"
            )
        self.model = model
        self.clients = list(clients)
        self.size = len(clients)
        self._buffers = buffers
        self.pad = pad
        model.bind_member_models([c.model for c in self.clients])
        self._update_views: tuple[np.ndarray | None, dict[str, np.ndarray]] = (None, {})
        #: Batched step / member-step counters (telemetry: realized occupancy).
        self.steps = 0
        self.member_steps = 0

    # ------------------------------------------------------------------
    def load_global(self, params: np.ndarray) -> None:
        """Broadcast the server's ``(P,)`` parameters (and the round's
        buffers) into every member slot."""
        self.model.load_global(params, self._buffers)

    def member_params(self, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s live parameter views (zero-copy into the stack)."""
        return self.model.member_params(i)

    def build_optimizer(self, spec, params: np.ndarray) -> CohortSGD:
        """Batched optimizer from an :class:`~repro.algorithms.base.OptimizerSpec`;
        ``params`` is the proximal anchor (read only when ``spec.mu``)."""
        return CohortSGD(
            self.model,
            spec.lr,
            weight_decay=spec.weight_decay,
            momentum=spec.momentum,
            mu=spec.mu,
            anchor=params,
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
        cross-round stream state exactly where a serial run would) and runs
        forward/backward/step as one stacked program. ``batch_sizes[i]``
        overrides member ``i``'s stream batch size for this step (the
        intra-round batch-adaptation extension). Members that drew fewer
        rows than the widest are zero-padded to its width; unpadded, the
        step instead takes one forward/backward pass per distinct row
        count, the other members sitting that pass out (all-zero rows and
        loss gradient: exact zeros onto the gradients their own pass
        accumulates). Returns per-member losses, shape ``(C,)`` — entries of
        inactive members are 0.0 and must be ignored by the caller.
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
        loss = np.zeros(c, dtype=np.float64)
        if not batches:
            return loss
        feat = batches[0][1].shape[1:]
        # Ascending, as np.unique — which would import numpy.ma (~1 MiB).
        widths = (
            [int(counts.max())] if self.pad else sorted(set(counts[counts > 0].tolist()))
        )
        self.model.zero_grad()
        for width in widths:
            rows = counts if self.pad else np.where(counts == width, counts, 0)
            x_pad = np.zeros((c, width) + feat, dtype=np.float32)
            y_pad = np.zeros((c, width), dtype=np.int64)
            for i, x, y in batches:
                if rows[i]:
                    x_pad[i, : rows[i]], y_pad[i, : rows[i]] = x, y
            self.model.set_member_rows(rows)
            logits = self.model.forward(x_pad)
            member_loss, grad = cohort_softmax_cross_entropy(logits, y_pad, rows)
            self.model.backward(grad)
            loss += member_loss
        optimizer.step(active)
        self.steps += 1
        self.member_steps += int(np.count_nonzero(active))
        return loss

    # ------------------------------------------------------------------
    def stacked_update(self, params: np.ndarray) -> np.ndarray:
        """Whole-cohort ``(C, P)`` update in one subtract; row ``i`` is
        member ``i``'s. Per-member result dicts are zero-copy views of its
        rows (:meth:`member_update`), so aggregation consumes the batched
        tensor without an unstack pass."""
        return self.model.stacked_update(params)

    def member_update(self, stacked: np.ndarray, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s update dict as views into :meth:`stacked_update`:
        row ``i`` of its ``(C, *shape)`` views, built once per stack. The
        engine, not the model, holds them — the model outlives the round and
        would keep the ``(C, P)`` update alive with them."""
        if self._update_views[0] is not stacked:
            self._update_views = (stacked, self.model.stack_views(stacked))
        return {name: view[i] for name, view in self._update_views[1].items()}

    def write_back(self) -> None:
        """Copy trained member slots (parameters and buffers) back into the
        serial model replicas so ``client.model`` is left exactly as a
        serial round would leave it."""
        self.model.write_back([c.model for c in self.clients])


class CohortExecutor(Executor):
    """Single-process engine that batches chunks of M clients per round.

    ``pad`` decides what shares a stacked program. Unpadded (the default
    ``serial`` engine, and what a ``parallel`` worker runs), members share
    a program only at equal batch widths and a step only at equal row
    counts, so every GEMM has the per-client loop's operand shapes and every
    member its bytes — at one more program per distinct width. Padded
    (``cohort[:M]``), a chunk is one program and a member that draws fewer
    rows than the widest is zero-padded: full-width members keep the loop's
    bytes by construction, a padded one only where BLAS rounds a product's
    rows independently of its row count (DESIGN.md §12).

    ``cohort_size=None`` sizes the engine at :meth:`bind`:
    :data:`DEFAULT_COHORT_SIZE`, capped by the population's resident
    capacity, because a chunk is live at once — so such an engine never
    raises ``cache=N``.
    """

    def __init__(self, cohort_size: int | None = None, *, pad: bool = True) -> None:
        if cohort_size is not None and cohort_size < 1:
            raise ValueError(f"cohort size must be >= 1, got {cohort_size}")
        self._sized_at_bind = cohort_size is None
        self.cohort_size = DEFAULT_COHORT_SIZE if cohort_size is None else cohort_size
        self.pad = pad
        self._recorder = None
        #: Stacked models by width, most recently used last — selection
        #: changes the membership every round but rarely the widths, so the
        #: (C, *shape) stacks are reused; never more than 2M slots' worth.
        self._models: dict[int, CohortModel] = {}
        self.counts = StepCounts()

    @property
    def name(self) -> str:  # type: ignore[override]
        """``"serial"`` unpadded: runs, phase gauges and result-cache cells
        keep the label of the per-client loop whose bytes it reproduces."""
        return "cohort" if self.pad else "serial"

    # ------------------------------------------------------------------
    def bind(
        self,
        clients: "LazyClientPopulation",
        strategy: "Strategy",
        layouts: "tuple[Layout, Layout] | None" = None,
        jobs_per_round: int | None = None,
    ) -> None:
        super().bind(clients, strategy, layouts, jobs_per_round)
        if self._sized_at_bind:
            self.cohort_size = min(DEFAULT_COHORT_SIZE, clients.resident_capacity)

    def set_recorder(self, recorder) -> None:
        self._recorder = recorder

    def _model_for(self, template, width: int) -> CohortModel:
        model = self._models.pop(width, None) or CohortModel(template, width)
        self._models[width] = model
        while sum(self._models) > 2 * self.cohort_size:
            del self._models[next(iter(self._models))]
        return model

    # ------------------------------------------------------------------
    def run_round(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
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
                results.extend(self._run_chunk(params, buffers, chunk))
        self._mirror_metrics()
        return results

    def _run_chunk(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
        chunk: list[tuple[int, RoundContext]],
    ) -> list[ClientRoundResult]:
        clients = self._clients.acquire_chunk([cid for cid, _ in chunk])
        # One stacked program for the chunk — or, unpadded, one per batch
        # width in it (a client whose shard is smaller than a batch draws
        # fewer rows every step).
        programs: dict[int, list[int]] = {}
        for k, client in enumerate(clients):
            programs.setdefault(
                0 if self.pad else client.stream.batch_size, []
            ).append(k)
        out: list[ClientRoundResult | None] = [None] * len(chunk)
        for slots in programs.values():
            members = [clients[k] for k in slots]
            engine = CohortEngine(
                self._model_for(members[0].model, len(members)),
                members,
                buffers,
                pad=self.pad,
            )
            results = self._strategy.cohort_round(
                engine, [chunk[k] for k in slots], params
            )
            for k, result in zip(slots, results):
                out[k] = result
            self.counts.add(
                engine.steps, engine.steps * engine.size, engine.member_steps
            )
        return out

    def _mirror_metrics(self) -> None:
        """Publish the width gauge and the step counters."""
        rec = self._recorder
        if rec is not None and getattr(rec, "enabled", False):
            rec.gauge("repro_cohort_size", float(self.cohort_size))
            self.counts.publish(rec)

    # ------------------------------------------------------------------
    def min_resident_clients(self) -> int:
        """A full chunk of M clients is live during each batched program, so
        the population must keep at least M residents (see
        :meth:`Executor.min_resident_clients`); an engine sized at bind
        already fits."""
        return self.cohort_size

    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, float]:
        return self.counts.occupancy()
