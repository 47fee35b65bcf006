"""Strategy interface shared by FedAvg / FedProx / FedAda / FedCA.

A strategy owns two responsibilities:

* ``prepare_round`` — server-side, before broadcast: may assign per-client
  iteration budgets (FedAda's workload adjustment). Autonomous schemes
  return ``None``.
* ``begin`` — the client side of one round, written once per scheme: a
  :class:`RoundMember` per client (its clock, uplink and result) and the
  scheme's :class:`MemberStack` (its per-step decisions, over every member
  of a program at once). The two drivers on :class:`Strategy` feed them:
  :meth:`Strategy.client_round` a stack of one member from a
  :class:`~repro.runtime.client.SimClient`, :meth:`Strategy.cohort_round`
  M members from a :class:`~repro.runtime.cohort.CohortEngine`. No scheme
  overrides either driver (DESIGN.md §12).

A strategy holds nothing per client: what a scheme remembers about one
client between its rounds (FedCA's curves, the wire layer's codec) it keeps
on the client (:meth:`~repro.runtime.client.SimClient.keep`), so it is
checkpointed, evicted and captured from a worker with the client.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from ..nn import SGD, ProxSGD
from ..runtime.client import SimClient
from ..runtime.round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cohort import CohortEngine
    from ..runtime.simulator import FederatedSimulator
    from ..runtime.wire import WireLayer

__all__ = ["Strategy", "OptimizerSpec", "RoundMember", "MemberStack"]


class OptimizerSpec:
    """Workload-level optimiser settings (paper §5.1: SGD + weight decay).

    ``mu`` is FedProx's proximal coefficient; both engines build their
    optimiser from this one spec (``build`` here,
    :meth:`~repro.runtime.cohort.CohortEngine.build_optimizer` there).
    """

    def __init__(
        self,
        lr: float,
        weight_decay: float = 0.0,
        momentum: float = 0.0,
        mu: float = 0.0,
    ) -> None:
        self.lr = lr
        self.weight_decay = weight_decay
        self.momentum = momentum
        self.mu = mu

    def build(self, model, params: np.ndarray | None = None) -> SGD:
        """Scalar optimiser for ``model``; ``params``, the round-start
        ``(P,)`` global parameter vector, is the proximal anchor and only
        read when ``mu`` is set."""
        if not self.mu:
            return SGD(
                model, self.lr, weight_decay=self.weight_decay, momentum=self.momentum
            )
        if params is None:
            raise ValueError("a proximal optimiser (mu > 0) needs the global state")
        opt = ProxSGD(
            model,
            self.lr,
            mu=self.mu,
            weight_decay=self.weight_decay,
            momentum=self.momentum,
        )
        opt.set_anchor(params)
        return opt


class RoundMember:
    """One client's round — its clock, uplink, decision events and result.

    A member owns the client's simulated clock (``t``), its uplink, its
    decision-event buffer and its decisions; it never touches a model or an
    optimiser. Its steps run in a :class:`MemberStack` with the other
    members of its program, which hands the clock back (``t``,
    ``total_loss``, ``iterations_run``) when the member leaves; the driver
    then passes the accumulated update to :meth:`finish`.
    """

    def __init__(
        self, strategy: "Strategy", client: SimClient, ctx: RoundContext, budget: int
    ) -> None:
        self.strategy = strategy
        self.client = client
        self.ctx = ctx
        #: Most local iterations the driver may run for this member.
        self.budget = budget
        # Round starts are the one clock that never runs backwards for a
        # client, so this is where its speed trace may forget its past.
        client.trace.forget_before(ctx.round_start)
        self.compute_start = ctx.round_start + client.link.download_seconds(
            client.model_bytes
        )
        self.t = self.compute_start
        self.total_loss = 0.0
        self.iterations_run = 0
        # Decision events ride back on the result and are merged into the
        # parent recorder (works identically inside parallel workers).
        self.trace: list[dict] | None = [] if ctx.trace_enabled else None

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        """Upload ``update`` (``w_local − w_global``) and report the round."""
        raise NotImplementedError

    # -- helpers for subclasses ----------------------------------------
    def emit(self, kind: str, fields: dict, at: float | None = None) -> None:
        """Buffer one decision event at simulated time ``at`` (default: the
        member's clock)."""
        if self.trace is not None:
            sim_time = self.t if at is None else at
            self.trace.append({"kind": kind, "sim_time": sim_time, "fields": fields})

    def upload_full(
        self, update: dict[str, np.ndarray], nbytes: int, events: dict
    ) -> ClientRoundResult:
        """Single end-of-round upload of the whole update, then the result."""
        client = self.client
        wire = self.strategy.wire
        if wire is not None:
            # Compressed transport: the server aggregates the decoded
            # (lossy) update, and the *wire* byte count drives the uplink
            # timeline below. The raw counterfactual is kept for the
            # repro_wire_bytes_total{variant} accounting.
            raw_nbytes = nbytes
            update, nbytes = wire.encode(client, update)
            events["wire"] = {"raw_bytes": raw_nbytes, "wire_bytes": nbytes}
        client.uplink.reset(self.compute_start)
        upload_finish = client.uplink.submit(self.t, nbytes, label="full").finish_time
        return self.result(update, upload_finish, nbytes, events)

    def result(
        self,
        update: dict[str, np.ndarray],
        upload_finish: float,
        nbytes: int,
        events: dict,
    ) -> ClientRoundResult:
        """The round's report, from the member's clock and loss totals."""
        client = self.client
        return ClientRoundResult(
            client_id=client.client_id,
            update=update,
            num_samples=client.num_samples,
            iterations_run=self.iterations_run,
            compute_start_time=self.compute_start,
            compute_finish_time=self.t,
            upload_finish_time=upload_finish,
            bytes_uploaded=nbytes,
            mean_loss=self.total_loss / max(1, self.iterations_run),
            events=events,
            buffers=client.model.buffer_dict(),
            trace=self.trace or [],
        )


class MemberStack:
    """The members one program steps together — a stacked chunk, or the one
    client of the serial driver — their clocks as ``(C,)`` float64 arrays
    in program-row order, so a step's bookkeeping is a few array passes
    whatever the width; every element is the IEEE result of the member's
    own scalar code. The live members are the first :attr:`width` rows;
    :meth:`leave` closes ranks as the engine does. ``order`` is each row's
    job index. A scheme's per-step decisions override :meth:`decide`."""

    #: Per-row arrays: they move when rows close ranks, and :attr:`live`
    #: holds a view of each one's live rows.
    COLUMNS = ("t", "start", "loss", "budget", "work", "base", "rem", "inc", "cross")

    def __init__(
        self, strategy: "Strategy", members: list[RoundMember], global_state: np.ndarray
    ) -> None:
        n = self.width = len(members)
        self.strategy, self.members, self.order = strategy, list(members), np.arange(n)
        self.budget = np.array([m.budget for m in members])
        if self.budget.min() < 1:
            raise ValueError("iterations must be >= 1")
        self.start = np.array([m.compute_start for m in members])
        self.t, self.loss, self.work = self.start.copy(), np.zeros(n), np.ones(n)
        self.base = np.array([m.client.trace.base_iteration_time for m in members])
        self.rem, self.inc, self.cross = np.empty((3, n))
        self.done = 0  # local iterations every live member has run
        self.replan(0, n)
        self._slice()

    def _slice(self) -> None:
        k = self.width
        self.live = SimpleNamespace(**{name: getattr(self, name)[:k] for name in self.COLUMNS})
        self._horizon = int(self.live.budget.min())
        self._cross = self.live.cross.min()

    def next_batch(self) -> list[int | None] | None:
        """Each live row's minibatch size of the next step (``None``: every
        stream's own)."""
        return None

    def step(self, tau: int, losses: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
        """Account for local iteration ``tau`` of the live members, whose
        ``(P,)`` vectors are ``rows``: which of them keep training, or
        ``None`` when they all do."""
        live = self.live
        live.loss += losses
        self.done = tau
        # Inside the speed segment each member last read, a step ends at
        # ``t + rem * slowdown`` exactly as SpeedTrace.work_finish_time
        # computes it; at a segment end (``cross``), the trace answers.
        if tau < self._cross:
            live.t += live.inc
        else:
            after = live.t + live.inc
            crossing = (live.cross <= tau).nonzero()[0].tolist()
            for j in crossing:
                after[j] = self.members[j].client.trace.iteration_finish_time(
                    float(live.t[j]), float(live.work[j])
                )
            live.t[...] = after
            self._pace(crossing, after[crossing])
        stop = self.decide(tau, rows)
        if tau >= self._horizon:  # a budget is spent
            spent = tau >= live.budget
            stop = spent if stop is None else stop | spent
        return None if stop is None or not np.count_nonzero(stop) else ~stop

    def decide(self, tau: int, rows: np.ndarray) -> np.ndarray | None:
        """The scheme's verdict after iteration ``tau`` (the clocks already
        count it): which live rows stop, or ``None`` for none."""
        return None

    def leave(self, keep: np.ndarray, tau: int) -> None:
        """Hand the clocks of the rows ``keep`` drops back to their members,
        after ``tau`` iterations, and close ranks as the engine does."""
        gone, stay = (~keep).nonzero()[0], keep.nonzero()[0]
        for j in gone.tolist():
            member = self.members[j]
            member.t, member.total_loss = float(self.t[j]), float(self.loss[j])
            member.iterations_run = tau
        n = stay.size
        holes, movers = gone[gone < n], stay[stay >= n]
        if holes.size:  # swap rows as the engine does
            for name in ("order", *self.COLUMNS):
                column = getattr(self, name)
                column[holes], column[movers] = column[movers], column[holes]
            for a, b in zip(holes.tolist(), movers.tolist()):
                self.members[a], self.members[b] = self.members[b], self.members[a]
        self.width = n
        if n:
            self._slice()

    def replan(self, lo: int, hi: int) -> None:
        """Re-cost a step of rows ``lo:hi`` after their ``work`` changed."""
        self.rem[lo:hi] = self.work[lo:hi] * self.base[lo:hi]
        self._pace(range(lo, hi), self.t[lo:hi])

    def _pace(self, rows, at: np.ndarray) -> None:
        """The step cost of ``rows`` in the speed segments they read at
        ``at``, and each one's ``cross``: the first iteration that no longer
        fits in its segment, found by running the remaining steps' start
        times ahead — the very adds the steps make — in one
        ``np.add.accumulate`` (work of at most 1e-12 s never fits: the trace
        decides it)."""
        rows = list(rows)
        if rows:
            end, slow = np.array(
                [self.members[j].client.trace.pace_at(float(t)) for j, t in zip(rows, at)]
            ).T
            rem = self.rem[rows]
            self.inc[rows] = inc = rem * slow
            ahead = max(1, int(self.budget[rows].max()) - self.done)  # steps left
            starts = np.repeat(inc[:, None], ahead, 1)
            starts[:, :1] = np.reshape(at, (-1, 1))
            fits = (end[:, None] - np.add.accumulate(starts, axis=1)) / slow[:, None]
            fits = (fits >= rem[:, None]) & (rem > 1e-12)[:, None]
            first = self.done + 1 + fits.argmin(axis=1)
            self.cross[rows] = np.where(fits.all(axis=1), math.inf, first)
        self._cross = self.cross[: self.width].min()


class Strategy(ABC):
    """One federated-optimisation scheme."""

    #: Human-readable scheme name used in reports and benches.
    name: str = "base"

    #: Local optimiser settings; every scheme's ``__init__`` sets it and
    #: both drivers build their optimiser from it.
    optimizer: OptimizerSpec

    #: Optional compressed wire transport (see :mod:`repro.runtime.wire`).
    #: ``None`` (raw) keeps every upload byte-identical to the pre-wire
    #: runtime. Class attribute so subclasses need no ``__init__`` hook.
    _wire: "WireLayer | None" = None

    #: What steps a program's members together; a scheme with per-step
    #: decisions sets its own.
    Stack: type[MemberStack] = MemberStack

    @property
    def wire(self) -> "WireLayer | None":
        return self._wire

    def set_wire(self, wire: "WireLayer | None") -> None:
        """Attach a wire format before the first round runs.

        Attaching mid-run would desynchronise codec state across
        checkpoints; the runners call this right after building the
        strategy."""
        self._wire = wire

    def prepare_round(
        self,
        sim: "FederatedSimulator",
        selected: list[int],
        deadline: float,
        round_index: int,
    ) -> dict[int, int] | None:
        """Optional server-side per-client iteration budgets."""
        return None

    @abstractmethod
    def begin(
        self,
        client: SimClient,
        global_state: np.ndarray,
        ctx: RoundContext,
        params: np.ndarray,
    ) -> RoundMember:
        """Start one client's round: the scheme's :class:`RoundMember`.

        ``global_state`` is the round-start global ``(P,)`` parameter
        vector (read only); ``params`` is the member's ``(P,)`` vector at
        round start — the replica's arena under the serial driver, row
        ``i`` of the stacked arena under the cohort driver — already
        holding the broadcast. Both are in the model's
        :class:`~repro.nn.layout.Layout` order. A stacked row moves when
        members leave, so the per-step work that reads it lives in the
        scheme's :attr:`Stack`, which is handed the live rows each step.
        """

    def client_round(
        self,
        client: SimClient,
        params: np.ndarray,
        buffers: np.ndarray,
        ctx: RoundContext,
    ) -> ClientRoundResult:
        """Serial driver: one member, a stack of one, fed from the client's
        own replica. ``params``/``buffers`` are the round-start global
        model's ``(P,)`` and ``(B,)`` vectors."""
        client.load_global(params, buffers)
        opt = self.optimizer.build(client.model, params)
        values = client.model.arena().values
        member = self.begin(client, params, ctx, values)
        stack = self.Stack(self, [member], params)
        for tau in itertools.count(1):
            sizes = stack.next_batch()
            loss = client.train_step(opt, None if sizes is None else sizes[0])
            keep = stack.step(tau, np.array([loss]), values[None])
            if keep is not None:
                stack.leave(keep, tau)
                return member.finish(client.local_update(params))

    def cohort_round(
        self,
        engine: "CohortEngine",
        jobs: list[tuple[int, RoundContext]],
        params: np.ndarray,
    ) -> list[ClientRoundResult]:
        """Cohort driver: M members fed from one stacked tensor program,
        against the round-start ``(P,)`` global parameter vector ``params``.

        ``engine`` member slot ``i`` is bound to ``jobs[i]``'s client;
        results come back in job order. Every *scalar* outcome (simulated
        times, uplink schedules, decisions, trace events) is the member's
        own and therefore exactly what :meth:`client_round` produces, and
        the stacked tensor program keeps each member's bytes. The program's
        rows follow the stack's arrangement; a member whose stack says it
        stops, or whose budget is spent, leaves the program at once
        (:meth:`~repro.runtime.cohort.CohortEngine.leave`): its row is
        written back and the program runs on without it.
        """
        engine.load_global(params)
        opt = engine.build_optimizer(self.optimizer, params)
        rows = engine.model.module.arena().values
        members = [
            self.begin(client, params, ctx, row)
            for client, (_, ctx), row in zip(engine.clients, jobs, rows)
        ]
        stack = self.Stack(self, members, params)
        engine.arrange(stack.order)
        for tau in itertools.count(1):
            losses = engine.train_step(opt, stack.next_batch())
            keep = stack.step(tau, losses, engine.model.module.arena().values)
            if keep is not None:
                stack.leave(keep, tau)
                if not engine.leave(keep, params, opt):
                    return [
                        member.finish(engine.member_update(i))
                        for i, member in enumerate(members)
                    ]
