"""Cohort executor: trains M same-architecture clients as one batched
tensor program (see :mod:`repro.nn.cohort` for how a model is stacked).

Where the reference :class:`~repro.runtime.executor.SerialExecutor` runs M
clients' rounds one after another, the cohort executor stacks the M client
replicas along a leading tensor axis so every layer's forward/backward and
the optimizer step advance all M clients with one BLAS call, and a member
that stops leaves the program at once (:meth:`CohortEngine.leave`). The
*simulation* is unchanged: per-client simulated time, uplink scheduling,
FedCA decisions and trace events are the scheme's stack of members
(``Strategy.Stack``) computing, as arrays over the live members, exactly
what the per-client loop computes, and the batched tensor work keeps the
bytes of every member whose products have the loop's operand
shapes (DESIGN.md §12): all of them unpadded — the default ``serial``
engine, and what each parallel worker drives over its share of a round
(:mod:`repro.runtime.parallel`) — and under ``cohort[:M]`` all but a client
whose shard is smaller than a batch, which is zero-padded into its chunk's
program rather than given one of its own.

Chunking (:func:`chunk_widths`): unpadded, n jobs are ⌈n/M⌉ consecutive
chunks whose widths differ by at most one (100 at M = 64 → 50 + 50), each
split into one stacked program per batch width in it. Padded, a member's
bytes depend on who shares its chunk, so chunks are runs of M and the
**tail chunk trains the remainder** (5 at M = 4 → 4 + 1). Every program
narrows the one stack an engine keeps, as wide as its widest chunk.

There is no fallback: every layer runs over a stack and every strategy
runs batched — ``Strategy.cohort_round`` is a driver over the same
members and stack the serial ``client_round`` feeds (DESIGN.md §12).
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..nn.cohort import CohortModel, CohortSGD, cohort_softmax_cross_entropy
from .executor import Binding, Executor
from .round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..scale import LazyClientPopulation
    from .client import SimClient

__all__ = ["CohortEngine", "CohortExecutor", "StepCounts", "bound_width", "chunk_widths"]

#: ``cohort``'s width when the spec names none.
DEFAULT_COHORT_SIZE = 32

#: What one stacked step of an engine sized at bind may hold: its width times
#: :meth:`~repro.scale.ClientFactory.step_bytes`. ``cohort:M`` is never capped.
STACK_BYTES = 48 << 20


def bound_width(clients: "LazyClientPopulation") -> int:
    """The width of an engine sized at bind: the population's resident
    capacity (a chunk is live at once), capped by how many members' steps
    fit :data:`STACK_BYTES`."""
    fits = max(1, STACK_BYTES // clients.factory.step_bytes())
    return int(min(clients.resident_capacity, fits))


def chunk_widths(n: int, width: int, pad: bool = False) -> list[int]:
    """A round of ``n`` jobs as consecutive chunk widths, widest first:
    runs of ``width`` padded, else as few as ``width`` allows, differing by
    at most one."""
    if pad:
        return [min(width, n - start) for start in range(0, n, width)]
    k = -(-n // width)
    q, r = divmod(n, k) if k else (0, 0)
    return [q + 1] * r + [q] * (k - r)


class StepCounts:
    """Cumulative batched steps, slot-steps (each step's program width: the
    members its program started with) and member-steps (the members still
    live at that step — a member that stops leaves the program), wherever
    the chunks ran: a cohort executor counts its own, a parallel executor
    adds what its workers report."""

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
        if recorder.enabled:
            for name, delta in zip(self._COUNTERS, self.take()):
                recorder.counter(name, delta)

    def occupancy(self) -> dict[str, float]:
        """Realized occupancy for benches: the live share of each program's
        width, ``member_steps / slot_steps``."""
        steps, slot_steps, member_steps = map(float, self.totals)
        return {
            "steps": steps,
            "slot_steps": slot_steps,
            "member_steps": member_steps,
            "occupancy": member_steps / slot_steps if slot_steps else 0.0,
        }


class CohortEngine:
    """One chunk's batched training facade handed to ``Strategy.cohort_round``.

    Wraps the stacked :class:`~repro.nn.cohort.CohortModel` plus the
    minibatch assembly that turns the live members' shards into one
    ``(width, B, …)`` tensor per step. Member ``i`` is ``jobs[i]``'s client;
    row ``j`` of the program is member ``order[j]`` (``clients[j]``), and
    the live members are always the first ``model.width`` rows — a prefix
    of the model's slots, which may outnumber the members. Strategies
    drive it like a multi-client ``SimClient``: :meth:`load_global` →
    repeated :meth:`train_step` → :meth:`leave` for the members that stop,
    until none is left → :meth:`member_update`. ``buffers`` is the round's
    ``(B,)`` global buffer vector; ``pad`` is the executor's (see
    :class:`CohortExecutor`).
    """

    def __init__(
        self,
        model: CohortModel,
        clients: Sequence["SimClient"],
        buffers: np.ndarray,
        *,
        pad: bool = True,
    ) -> None:
        if len(clients) > model.cohort_size:
            raise ValueError(
                f"cohort model has {model.cohort_size} slots, got "
                f"{len(clients)} clients"
            )
        self.model = model
        self.clients = list(clients)
        self.size = len(clients)
        self.order = np.arange(self.size)
        self._buffers = buffers
        self.pad = pad
        model.narrow(self.size, [c.model for c in self.clients])
        #: The round's ``(C, P)`` update; ``_row[i]`` is member ``i``'s row.
        self._update: np.ndarray | None = None
        self._row = np.zeros(self.size, dtype=np.intp)
        self._update_views: dict[str, np.ndarray] | None = None
        #: Batched steps, and the rows they ran (telemetry: every row run
        #: is a live member's).
        self.steps = 0
        self.member_steps = 0

    # ------------------------------------------------------------------
    def load_global(self, params: np.ndarray) -> None:
        """Broadcast the server's ``(P,)`` parameters (and the round's
        buffers) into every member slot."""
        self.model.load_global(params, self._buffers)

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
        batch_sizes: Sequence[int | None] | None = None,
    ) -> np.ndarray:
        """One batched SGD iteration over the live members.

        Draws the next minibatch from each live member's own stream (a
        member that left consumes no data and no RNG draws, leaving its
        cross-round stream state exactly where a serial run would) and runs
        forward/backward/step as one stacked program. ``batch_sizes[j]``
        overrides row ``j``'s stream batch size for this step (the
        intra-round batch-adaptation extension). Members that drew fewer
        rows than the widest are zero-padded to its width; unpadded, the
        step instead takes one forward/backward pass per distinct row
        count, the other members sitting that pass out (all-zero rows and
        loss gradient: exact zeros onto the gradients their own pass
        accumulates). Returns the live members' losses, shape ``(width,)``.
        """
        c = self.model.width
        counts = np.zeros(c, dtype=np.int64)
        batches: list[tuple[np.ndarray, np.ndarray]] = []
        for j, client in enumerate(self.clients[:c]):
            x, y = client.stream.next_batch(
                None if batch_sizes is None else batch_sizes[j]
            )
            batches.append((x, y))
            counts[j] = x.shape[0]
        loss = np.zeros(c, dtype=np.float64)
        feat = batches[0][0].shape[1:]
        # Ascending, as np.unique — which would import numpy.ma (~1 MiB).
        widths = [int(counts.max())] if self.pad else sorted(set(counts.tolist()))
        self.model.zero_grad()
        for width in widths:
            rows = counts if self.pad else np.where(counts == width, counts, 0)
            x_pad = np.zeros((c, width) + feat, dtype=np.float32)
            y_pad = np.zeros((c, width), dtype=np.int64)
            for j, (x, y) in enumerate(batches):
                if rows[j]:
                    x_pad[j, : rows[j]], y_pad[j, : rows[j]] = x, y
            self.model.set_member_rows(rows)
            logits = self.model.forward(x_pad)
            member_loss, grad = cohort_softmax_cross_entropy(logits, y_pad, rows)
            self.model.backward(grad)
            loss += member_loss
        optimizer.step()
        self.steps += 1
        self.member_steps += c
        return loss

    def arrange(self, order: np.ndarray) -> None:
        """Before the first step: put job ``order[j]``'s member in row
        ``j``. Every row holds the broadcast then, so only the bindings
        move."""
        if (np.diff(order) > 0).all():
            return
        self.order = self.order[order]
        self.clients = [self.clients[j] for j in order]
        self.model.narrow(self.size, [c.model for c in self.clients])

    def leave(self, keep: np.ndarray, params: np.ndarray, optimizer: CohortSGD) -> int:
        """Take the members at the live rows where ``keep`` is ``False``
        out of the program after this step: each one's replica is written
        back at once, the last stayers swap rows (parameters, buffers,
        optimizer slots) with the leavers before them, and the model
        narrows to the stayers. Once the last member left, the round's
        update is taken from every row at once (against the round-start
        ``(P,)`` ``params``). Returns how many members are still live."""
        gone, stay = np.flatnonzero(~keep), np.flatnonzero(keep)
        self.model.write_back([self.clients[j].model for j in gone], gone)
        n = stay.size
        holes, movers = gone[gone < n], stay[stay >= n]
        if holes.size:  # the last stayers swap rows with the leavers before them
            arena = self.model.module.arena()
            for rows in (arena.values, arena.buffers, *optimizer.state, self.order):
                rows[holes], rows[movers] = rows[movers], rows[holes]
            for a, b in zip(holes.tolist(), movers.tolist()):
                self.clients[a], self.clients[b] = self.clients[b], self.clients[a]
        if n:
            self.model.narrow(n, [c.model for c in self.clients[:n]])
        else:
            self._update = self.model.stacked_update(params, self.size)
            self._row[self.order] = np.arange(self.size)
        return n

    # ------------------------------------------------------------------
    def member_update(self, i: int) -> dict[str, np.ndarray]:
        """Member ``i``'s update dict, zero-copy views of its row of the
        ``(C, P)`` update the last leaver took (views built once per
        engine, so aggregation consumes the batched tensor without an
        unstack pass)."""
        if self._update_views is None:
            layout = self.model.module.arena().layout
            self._update_views = layout.views(self._update)
        row = self._row[i]
        return {name: view[row] for name, view in self._update_views.items()}


class CohortExecutor(Executor):
    """Single-process engine that batches chunks of up to M clients per round.

    ``pad`` decides what shares a stacked program. Unpadded (the default
    ``serial`` engine, and what a ``parallel`` worker runs), members share
    a program only at equal batch widths and a step only at equal row
    counts, so every GEMM has the per-client loop's operand shapes and every
    member its bytes — at one more program per distinct width. Padded
    (``cohort[:M]``), a chunk is one program and a member that draws fewer
    rows than the widest is zero-padded: full-width members keep the loop's
    bytes by construction, a padded one only where BLAS rounds a product's
    rows independently of its row count (DESIGN.md §12).

    ``cohort_size=None`` sizes the engine at :meth:`bind`
    (:func:`bound_width`): the population's resident capacity, because a
    chunk is live at once — so such an engine never raises ``cache=N`` —
    capped by :data:`STACK_BYTES`.
    """

    def __init__(self, cohort_size: int | None = None, *, pad: bool = True) -> None:
        if cohort_size is not None and cohort_size < 1:
            raise ValueError(f"cohort size must be >= 1, got {cohort_size}")
        self._sized_at_bind = cohort_size is None
        self.cohort_size = cohort_size or 0
        self.pad = pad
        #: The one stack, as wide as the widest chunk run so far: every
        #: program narrows it, so no width is ever allocated twice.
        self._model: CohortModel | None = None
        self.counts = StepCounts()

    @property
    def name(self) -> str:  # type: ignore[override]
        """``"serial"`` unpadded: runs, phase gauges and result-cache cells
        keep the label of the per-client loop whose bytes it reproduces."""
        return "cohort" if self.pad else "serial"

    # ------------------------------------------------------------------
    def bind(self, binding: Binding) -> None:
        super().bind(binding)
        if self._sized_at_bind:
            self.cohort_size = bound_width(binding.clients)
        # A chunk is live at once: the population must never evict a member
        # mid-round. An engine sized at bind already fits.
        binding.clients.reserve(self.cohort_size)

    # ------------------------------------------------------------------
    def run_round(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
        jobs: list[tuple[int, RoundContext]],
    ) -> list[ClientRoundResult]:
        if self._bound is None:
            raise RuntimeError(
                "executor not bound; construct it via FederatedSimulator"
            )
        results: list[ClientRoundResult] = []
        self._bound.clients.prefetch([cid for cid, _ in jobs])
        with self._bound.profiler.phase("client.train"):
            widths = chunk_widths(len(jobs), self.cohort_size, self.pad)
            for start, width in zip(accumulate(widths, initial=0), widths):
                results.extend(self._run_chunk(params, buffers, jobs[start : start + width]))
        self._mirror_metrics()
        return results

    def _run_chunk(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
        chunk: list[tuple[int, RoundContext]],
    ) -> list[ClientRoundResult]:
        clients = self._bound.clients.acquire_chunk([cid for cid, _ in chunk])
        if self._model is None or self._model.cohort_size < len(chunk):
            self._model = CohortModel(clients[0].model, len(chunk))
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
            engine = CohortEngine(
                self._model, [clients[k] for k in slots], buffers, pad=self.pad
            )
            results = self._bound.strategy.cohort_round(
                engine, [chunk[k] for k in slots], params
            )
            for k, result in zip(slots, results):
                out[k] = result
            self.counts.add(engine.steps, engine.steps * engine.size, engine.member_steps)
        return out

    def _mirror_metrics(self) -> None:
        """Publish the width gauge and the step counters."""
        rec = self._bound.recorder
        if rec.enabled:
            rec.gauge("repro_cohort_size", float(self.cohort_size))
            self.counts.publish(rec)

    def step_rows(self) -> int:
        """The widest chunk a round runs, times the batch."""
        jobs = self._bound.jobs_per_round or self.cohort_size
        return chunk_widths(jobs, self.cohort_size, self.pad)[0] * super().step_rows()

    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, float]:
        return self.counts.occupancy()
