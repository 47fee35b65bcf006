"""Strategy interface shared by FedAvg / FedProx / FedAda / FedCA.

A strategy owns two responsibilities:

* ``prepare_round`` — server-side, before broadcast: may assign per-client
  iteration budgets (FedAda's workload adjustment). Autonomous schemes
  return ``None``.
* ``begin`` — the client side of one round, written once per scheme as a
  :class:`RoundMember` step machine. The two drivers on :class:`Strategy`
  feed it: :meth:`Strategy.client_round` one member from a
  :class:`~repro.runtime.client.SimClient`, :meth:`Strategy.cohort_round`
  M members from a :class:`~repro.runtime.cohort.CohortEngine`. No scheme
  overrides either driver (DESIGN.md §12).

A strategy holds nothing per client: what a scheme remembers about one
client between its rounds (FedCA's curves, the wire layer's codec) it keeps
on the client (:meth:`~repro.runtime.client.SimClient.keep`), so it is
checkpointed, evicted and captured from a worker with the client.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

from ..nn import SGD, ProxSGD
from ..runtime.client import SimClient
from ..runtime.round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cohort import CohortEngine
    from ..runtime.simulator import FederatedSimulator
    from ..runtime.wire import WireLayer

__all__ = ["Strategy", "OptimizerSpec", "RoundMember"]


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
    """One client's round as a step machine — the only place a scheme's
    per-client logic lives.

    A member owns the client's simulated clock (``t``), its uplink, its
    decision-event buffer and its decisions; it never touches a model or an
    optimiser. A driver runs up to :attr:`budget` training steps, asking
    :meth:`next_batch` before each and calling :meth:`after_step` after
    each (``False`` ends the member's round), then hands the accumulated
    update to :meth:`finish`.
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

    def next_batch(self) -> int | None:
        """Minibatch size of the next step (``None``: the stream's own)."""
        return None

    def after_step(self, tau: int, loss: float) -> bool:
        """Account for local iteration ``tau``; returns whether the member
        keeps training."""
        self.tick(tau, loss)
        return True

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        """Upload ``update`` (``w_local − w_global``) and report the round."""
        raise NotImplementedError

    # -- helpers for subclasses ----------------------------------------
    def tick(self, tau: int, loss: float, work: float = 1) -> None:
        """Advance the clock past iteration ``tau``, which cost ``work``
        base iterations of compute."""
        self.total_loss += loss
        self.t = self.client.trace.iteration_finish_time(self.t, work)
        self.iterations_run = tau

    def emit(self, kind: str, fields: dict) -> None:
        """Buffer one decision event at the member's current clock."""
        if self.trace is not None:
            self.trace.append({"kind": kind, "sim_time": self.t, "fields": fields})

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
        vector (read only); ``params`` is the member's live ``(P,)`` vector
        — the replica's arena under the serial driver, row ``i`` of the
        stacked arena under the cohort driver — already holding the
        broadcast and updated in place by every step. Both are in the
        model's :class:`~repro.nn.layout.Layout` order.
        """

    def client_round(
        self,
        client: SimClient,
        params: np.ndarray,
        buffers: np.ndarray,
        ctx: RoundContext,
    ) -> ClientRoundResult:
        """Serial driver: one member fed from the client's own replica.
        ``params``/``buffers`` are the round-start global model's ``(P,)``
        and ``(B,)`` vectors."""
        client.load_global(params, buffers)
        opt = self.optimizer.build(client.model, params)
        member = self.begin(client, params, ctx, client.model.arena().values)
        if member.budget < 1:
            raise ValueError("iterations must be >= 1")
        for tau in range(1, member.budget + 1):
            loss = client.train_step(opt, member.next_batch())
            if not member.after_step(tau, loss):
                break
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
        the stacked tensor program keeps each member's bytes. A member
        whose :meth:`RoundMember.after_step` returns ``False``, or whose
        budget is spent, leaves through the activity mask: its parameters
        freeze and its data stream stops drawing while the batched program
        keeps advancing the others.
        """
        engine.load_global(params)
        opt = engine.build_optimizer(self.optimizer, params)
        rows = engine.model.module.arena().values
        members = [
            self.begin(client, params, ctx, row)
            for client, (_, ctx), row in zip(engine.clients, jobs, rows)
        ]
        budgets = np.asarray([m.budget for m in members])
        if budgets.min() < 1:
            raise ValueError("iterations must be >= 1")
        active = np.ones(engine.size, dtype=bool)
        for tau in range(1, int(budgets.max()) + 1):
            mask = active & (tau <= budgets)
            if not mask.any():
                break
            sizes = [m.next_batch() if on else None for m, on in zip(members, mask)]
            losses = engine.train_step(opt, mask, sizes)
            for i in np.flatnonzero(mask):
                if not members[i].after_step(tau, float(losses[i])):
                    active[i] = False
        stacked = engine.stacked_update(params)
        engine.write_back()
        return [
            member.finish(engine.member_update(stacked, i))
            for i, member in enumerate(members)
        ]
