"""FedCA — Federated Learning with Client Autonomy (the paper's §4).

Round types:

* **Anchor rounds** (round 0 and every ``profile_every``-th round): the
  client runs the full K iterations with *no* optimisations, recording the
  sampled accumulated update after every iteration; at round end the
  snapshots become the statistical-progress curves used until the next
  anchor. They are client-held state (:class:`ClientProfile`, kept on the
  :class:`~repro.runtime.client.SimClient`), not the strategy's.
* **Optimised rounds**: after every local iteration the client calls the
  equivalents of the paper's ``TryEagerTransmit()`` (Eq. 5 — layers whose
  profiled progress crossed ``T_e`` are pushed onto the uplink immediately,
  overlapping with remaining compute) and ``TryEarlyStop()`` (Eq. 4 — stop
  once the profiled marginal benefit falls below the deadline-kinked time
  cost). At round end ``TryRetransmit()`` (Eq. 6) re-sends any eagerly
  transmitted layer whose final update deviated from the transmitted value.

The server receives, per layer, the eagerly transmitted value unless the
layer was retransmitted — so disabling retransmission (FedCA-v2) really does
aggregate stale layer updates, reproducing the ablation's accuracy loss.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core import (
    AnchorRecorder,
    EagerSchedule,
    EarlyStopPolicy,
    FedCAConfig,
    LayerSampler,
    ProfiledCurves,
    deviated_layers,
    is_anchor_round,
)
from ..runtime.client import SimClient
from ..runtime.round import ClientRoundResult, RoundContext
from .base import MemberStack, OptimizerSpec, RoundMember, Strategy

__all__ = ["FedCA", "ClientProfile"]


class ClientProfile:
    """What FedCA remembers about one client between its rounds, kept on
    the client (:meth:`SimClient.keep`): the curves of its latest anchor
    round — ``None`` until it has run one — and its layer sampler. The
    sampler draws its indices once at construction from ``sampler_seed +
    cid``, so a rebuilt one is identical and it is never snapshot; neither
    are the layer ``names`` a restored matrix is read with."""

    def __init__(self, config: FedCAConfig, seed: int, names: tuple[str, ...]) -> None:
        self.curves: ProfiledCurves | None = None
        self._config = config
        self._seed = seed
        self._names = names
        self._sampler: LayerSampler | None = None

    def sampler(self, model) -> LayerSampler:
        if self._sampler is None:
            self._sampler = LayerSampler.for_model(
                model,
                fraction=self._config.sample_fraction,
                cap=self._config.sample_cap,
                seed=self._seed,
            )
        return self._sampler

    def snapshot_state(self) -> dict:
        """The anchor-profiled curves (the only FedCA state that survives a
        round); empty before the first anchor. The matrix is never written
        in place, so the snapshot shares it."""
        curves = self.curves
        if curves is None:
            return {}
        return {"round_index": curves.round_index, "curves": curves.curves}

    def restore_state(self, payload: dict) -> None:
        self.curves = ProfiledCurves(
            int(payload["round_index"]),
            np.asarray(payload["curves"], dtype=np.float64),
            self._names,
        )


class _AnchorMember(RoundMember):
    """Anchor round: the full K iterations with no optimisations; its stack
    records the sampled accumulated update after every one and leaves the
    round's ``curves`` and profiling ``stats`` here."""

    def __init__(self, strategy, client, profile, ctx) -> None:
        super().__init__(strategy, client, ctx, ctx.iterations)
        self.profile = profile
        self.curves: ProfiledCurves | None = None
        self.stats: dict[str, int] = {}

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        self.emit("fedca.anchor", self.stats)
        self.profile.curves = self.curves
        return self.upload_full(
            update,
            self.client.model_bytes,
            {
                "anchor": True,
                "iterations_run": self.iterations_run,
                "early_stop_iteration": None,
                "eager": {},
                "retransmitted": [],
                "profiling_bytes": self.stats["profiling_bytes"],
            },
        )


class _OptimizedMember(RoundMember):
    """Optimised round: its stack runs TryEagerTransmit and TryEarlyStop
    after every iteration; TryRetransmit and the tail upload run here at
    round end."""

    def __init__(self, strategy, client, profile, ctx) -> None:
        super().__init__(strategy, client, ctx, ctx.iterations)
        self.curves = profile.curves
        client.uplink.reset(self.compute_start)
        self.transmitted: dict[str, np.ndarray] = {}
        self.eager_iter: dict[str, int] = {}
        self.raw_eager_bytes = 0
        self.stop_reason: str | None = None

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        cfg = self.strategy.config
        client, wire = self.client, self.strategy.wire
        transmitted = self.transmitted
        stopped_early = self.stop_reason is not None
        self.emit(
            "fedca.earlystop.stop",
            {
                "tau": self.iterations_run,
                "reason": self.stop_reason or "completed",
                "early": stopped_early,
            },
        )
        retrans: list[str] = []
        if cfg.enable_retransmit and transmitted:
            retrans = deviated_layers(
                update,
                transmitted,
                cfg.retransmit_threshold,
                sink=None if self.trace is None else self._retransmit_event,
            )
        tail_layers = [
            name for name in client.layer_bytes if name not in transmitted
        ] + retrans
        raw_tail_bytes = sum(client.layer_bytes[name] for name in tail_layers)
        # What the server receives: stale eager values unless retransmitted.
        received = dict(update)
        tail_bytes = raw_tail_bytes
        if wire is not None and tail_layers:
            # Retransmitted layers ride the tail, so their decoded values
            # overwrite the stale eager ones.
            tail_updates, tail_bytes = wire.encode(
                client, {name: update[name] for name in tail_layers}
            )
            received.update(tail_updates)
        if tail_bytes > 0:
            upload_finish = client.uplink.submit(
                self.t, tail_bytes, label="tail"
            ).finish_time
        else:
            upload_finish = max(self.t, client.uplink.busy_until)
        for name, value in transmitted.items():
            if name not in retrans:
                received[name] = value

        events: dict = {
            "anchor": False,
            "iterations_run": self.iterations_run,
            "early_stop_iteration": self.iterations_run if stopped_early else None,
            "eager": self.eager_iter,
            "retransmitted": retrans,
        }
        if wire is not None:
            events["wire"] = {
                "raw_bytes": self.raw_eager_bytes + raw_tail_bytes,
                "wire_bytes": client.uplink.total_bytes,
            }
        return self.result(received, upload_finish, client.uplink.total_bytes, events)

    def _retransmit_event(self, layer: str, cos: float, deviated: bool) -> None:
        self.emit(
            "fedca.retransmit",
            {
                "layer": layer,
                "cosine": float(cos),
                "deviated": bool(deviated),
                "bytes": self.client.layer_bytes[layer],
            },
        )


class _FedCAStack(MemberStack):
    """A program's FedCA members stepped together: one sampled gather for
    the anchor members' profiles, and for the optimised ones Eq. 5 off one
    ``(n, L)`` trigger matrix and Eq. 2–4 as one pass of float64 arrays.
    Anchor members take the first rows: a round's members share K
    (``ctx.iterations``) and its deadline, and anchors run all of K, so
    they keep those rows until the last step."""

    COLUMNS = MemberStack.COLUMNS + ("row",)

    def __init__(self, strategy, members, global_state) -> None:
        anchor = np.array([isinstance(m, _AnchorMember) for m in members])
        order = np.argsort(~anchor, kind="stable")
        members = [members[j] for j in order]
        self.anchors = a = int(anchor.sum())
        self.row = np.arange(len(members)) - a  # a row's policy row
        super().__init__(strategy, members, global_state)
        self.order, self.global_state, self.plan = order, global_state, strategy.step_plan
        self.sizes: list[int | None] = [None] * len(members)
        ctx, self.tracing = members[0].ctx, members[0].trace is not None
        self.last, self.deadline = ctx.iterations, ctx.deadline  # the round's
        if a:
            samplers = [m.profile.sampler(m.client.model) for m in members[:a]]
            self.recorder, self.anchor_rows = AnchorRecorder(samplers, self.last), np.arange(a)
        if a < len(members):
            cfg, curves = strategy.config, [m.curves for m in members[a:]]
            self.stopper = EarlyStopPolicy(curves, cfg)
            self.schedule = (
                EagerSchedule(curves, cfg.eager_threshold) if cfg.enable_eager_transmit else None
            )
            self.eager_at = set() if self.schedule is None else set(self.schedule.triggers.flat)
            self.spans = members[0].client.model.arena().layout.spans

    def next_batch(self) -> list[int | None] | None:
        if self.plan is None:
            return None
        a, k = self.anchors, self.width
        for j in range(a, k):
            self.sizes[j], self.work[j] = self.plan(self.members[j].client, float(self.t[j]))
        self.replan(a, k)
        return self.sizes[:k]

    def decide(self, tau: int, rows: np.ndarray) -> np.ndarray | None:
        a, live = self.anchors, self.live
        if a:
            self.recorder.record(rows, self.global_state, self.anchor_rows)
        if a == self.width:
            return None
        if tau in self.eager_at:
            self._eager(tau, rows)
        if tau >= self.last:
            return None
        t = live.t[a:]
        elapsed = t - live.start[a:]
        decision = self.stopper.decide(tau, elapsed, self.deadline, live.row[a:])
        stop = decision.stop
        for j in range(len(stop)) if self.tracing else ():
            fields = decision.fields(j, float(elapsed[j]))
            self.members[a + j].emit("fedca.earlystop.eval", fields, float(t[j]))
        if not np.count_nonzero(stop):
            return None
        for j in stop.nonzero()[0].tolist():
            self.members[a + j].stop_reason = decision.reason(j)
        return np.concatenate([np.zeros(a, dtype=bool), stop]) if a else stop

    def _eager(self, tau: int, rows: np.ndarray) -> None:
        """TryEagerTransmit of every live optimised member's due layers: the
        update as of now, a slice of its row, queued on its uplink to
        overlap with compute."""
        a, wire = self.anchors, self.strategy.wire
        due = self.schedule.due(tau)[self.live.row[a:]]
        for j, layer in zip(*(index.tolist() for index in due.nonzero())):
            member, (name, lo, hi, shape) = self.members[a + j], self.spans[layer]
            client, t = member.client, float(self.t[a + j])
            value = (rows[a + j, lo:hi] - self.global_state[lo:hi]).reshape(shape)
            send_bytes = client.layer_bytes[name]
            member.raw_eager_bytes += send_bytes
            if wire is not None:
                value, send_bytes = wire.encode_layer(client, name, value)
            if member.trace is not None:
                trigger = int(self.schedule.triggers[self.row[a + j], layer])
                member.emit(
                    "fedca.eager",
                    {"layer": name, "tau": tau, "trigger": trigger, "bytes": send_bytes},
                    t,
                )
            member.transmitted[name] = value
            client.uplink.submit(t, send_bytes, label=f"eager:{name}")
            member.eager_iter[name] = tau

    def leave(self, keep: np.ndarray, tau: int) -> None:
        a = self.anchors
        if a and not keep[:a].any():  # the anchors leave together, at K
            stats = self.recorder.stats()
            curves = self.recorder.finalize(self.members[0].ctx.round_index)
            for member, member_curves in zip(self.members[:a], curves):
                member.stats, member.curves = stats, member_curves
            self.anchors = 0
        super().leave(keep, tau)


class FedCA(Strategy):
    """The paper's client-autonomy mechanism (see module docstring)."""

    name = "FedCA"

    Stack = _FedCAStack

    #: Hook for the intra-round hyperparameter-adaptation extensions (§6
    #: future work): ``step_plan(client, t) -> (batch_size, work)`` plans the
    #: optimised-round iteration about to start at simulated time ``t`` —
    #: the minibatch to draw (``None``: the stream's own) and its compute
    #: cost in base iterations. ``None``: every step draws the stream's
    #: batch at one base iteration.
    step_plan: "Callable[[SimClient, float], tuple[int | None, float]] | None" = None

    def __init__(
        self,
        optimizer: OptimizerSpec,
        *,
        config: FedCAConfig | None = None,
        sampler_seed: int = 0,
    ) -> None:
        self.optimizer = optimizer
        self.config = config or FedCAConfig()
        self.sampler_seed = sampler_seed

    def profile(self, client: SimClient) -> ClientProfile:
        """``client``'s FedCA profile, created on its first round."""
        return client.keep(
            "fedca",
            lambda: ClientProfile(
                self.config,
                self.sampler_seed + client.client_id,
                tuple(client.layer_bytes),
            ),
        )

    # ------------------------------------------------------------------
    def begin(
        self,
        client: SimClient,
        global_state: np.ndarray,
        ctx: RoundContext,
        params: np.ndarray,
    ) -> RoundMember:
        """An anchor (profiling) or an optimised member; both kinds may
        share one cohort."""
        profile = self.profile(client)
        anchor = (
            is_anchor_round(ctx.round_index, self.config.profile_every)
            or profile.curves is None
        )
        member = _AnchorMember if anchor else _OptimizedMember
        return member(self, client, profile, ctx)
