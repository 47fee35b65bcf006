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
from .base import OptimizerSpec, RoundMember, Strategy

__all__ = ["FedCA", "ClientProfile"]


class ClientProfile:
    """What FedCA remembers about one client between its rounds, kept on
    the client (:meth:`SimClient.keep`): the curves of its latest anchor
    round — ``None`` until it has run one — and its layer sampler. The
    sampler draws its indices once at construction from ``sampler_seed +
    cid``, so a rebuilt one is identical and it is never snapshot."""

    def __init__(self, config: FedCAConfig, seed: int) -> None:
        self.curves: ProfiledCurves | None = None
        self._config = config
        self._seed = seed
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
        round); empty before the first anchor."""
        curves = self.curves
        if curves is None:
            return {}
        return {
            "round_index": curves.round_index,
            "num_iterations": curves.num_iterations,
            "model_curve": curves.model_curve.copy(),
            "layer_curves": {
                name: arr.copy() for name, arr in curves.layer_curves.items()
            },
        }

    def restore_state(self, payload: dict) -> None:
        self.curves = ProfiledCurves(
            round_index=int(payload["round_index"]),
            num_iterations=int(payload["num_iterations"]),
            layer_curves={
                name: np.asarray(arr, dtype=np.float64)
                for name, arr in payload["layer_curves"].items()
            },
            model_curve=np.asarray(payload["model_curve"], dtype=np.float64),
        )


class _AnchorMember(RoundMember):
    """Anchor round: the full K iterations with no optimisations, recording
    the sampled accumulated update after every one."""

    def __init__(self, strategy, client, profile, global_state, ctx, params) -> None:
        super().__init__(strategy, client, ctx, ctx.iterations)
        self.profile = profile
        self.recorder = AnchorRecorder(profile.sampler(client.model))
        self.params = params
        self.global_state = global_state

    def after_step(self, tau: int, loss: float) -> bool:
        self.tick(tau, loss)
        self.recorder.record(self.params, self.global_state)
        return True

    def finish(self, update: dict[str, np.ndarray]) -> ClientRoundResult:
        recorder = self.recorder
        profiling_bytes = recorder.memory_bytes()
        # stats() must read the recorder before finalize clears it.
        self.emit("fedca.anchor", recorder.stats())
        self.profile.curves = recorder.finalize(self.ctx.round_index)
        return self.upload_full(
            update,
            self.client.model_bytes,
            {
                "anchor": True,
                "iterations_run": self.iterations_run,
                "early_stop_iteration": None,
                "eager": {},
                "retransmitted": [],
                "profiling_bytes": profiling_bytes,
            },
        )


class _OptimizedMember(RoundMember):
    """Optimised round: TryEagerTransmit and TryEarlyStop after every
    iteration, TryRetransmit and the tail upload at round end."""

    def __init__(self, strategy, client, profile, global_state, ctx, params) -> None:
        super().__init__(strategy, client, ctx, ctx.iterations)
        cfg = strategy.config
        curves = profile.curves
        self.stopper = EarlyStopPolicy(curves, cfg)
        self.schedule = (
            EagerSchedule(curves, cfg.eager_threshold)
            if cfg.enable_eager_transmit
            else None
        )
        client.uplink.reset(self.compute_start)
        self.params = params
        self.global_state = global_state
        self.work: float = 1
        self.transmitted: dict[str, np.ndarray] = {}
        self.eager_iter: dict[str, int] = {}
        self.raw_eager_bytes = 0
        self.stop_reason: str | None = None

    def next_batch(self) -> int | None:
        batch, self.work = self.strategy.step_plan(self.client, self.t)
        return batch

    def after_step(self, tau: int, loss: float) -> bool:
        self.tick(tau, loss, self.work)
        client, wire = self.client, self.strategy.wire
        if self.schedule is not None:
            for layer in self.schedule.due(tau):
                # TryEagerTransmit: snapshot the layer's update as of now
                # and queue it on the uplink, overlapping with compute.
                value = (self.params[layer] - self.global_state[layer]).copy()
                send_bytes = client.layer_bytes[layer]
                self.raw_eager_bytes += send_bytes
                if wire is not None:
                    value, send_bytes = wire.encode_layer(client, layer, value)
                self.emit(
                    "fedca.eager",
                    {
                        "layer": layer,
                        "tau": tau,
                        "trigger": self.schedule.triggers[layer],
                        "bytes": send_bytes,
                    },
                )
                self.transmitted[layer] = value
                client.uplink.submit(self.t, send_bytes, label=f"eager:{layer}")
                self.eager_iter[layer] = tau
        if tau == self.ctx.iterations:
            return True
        elapsed = self.t - self.compute_start
        decision = self.stopper.decide(tau, elapsed, self.ctx.deadline)
        self.emit(
            "fedca.earlystop.eval",
            {
                "tau": decision.tau,
                "b": decision.benefit,
                "c": decision.cost,
                "n": decision.net,
                "elapsed": elapsed,
                "stop": decision.stop,
                "reason": decision.reason,
            },
        )
        if decision.stop:
            self.stop_reason = decision.reason
        return not decision.stop

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


class FedCA(Strategy):
    """The paper's client-autonomy mechanism (see module docstring)."""

    name = "FedCA"

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
            lambda: ClientProfile(self.config, self.sampler_seed + client.client_id),
        )

    # ------------------------------------------------------------------
    def begin(
        self,
        client: SimClient,
        global_state: dict[str, np.ndarray],
        ctx: RoundContext,
        params: dict[str, np.ndarray],
    ) -> RoundMember:
        """An anchor (profiling) or an optimised member; both kinds may
        share one cohort."""
        profile = self.profile(client)
        anchor = (
            is_anchor_round(ctx.round_index, self.config.profile_every)
            or profile.curves is None
        )
        member = _AnchorMember if anchor else _OptimizedMember
        return member(self, client, profile, global_state, ctx, params)

    def step_plan(self, client: SimClient, t: float) -> tuple[int | None, float]:
        """``(batch_size, work_fraction)`` of the optimised-round iteration
        about to start at simulated time ``t``: the minibatch to draw
        (``None``: the stream's own) and its compute cost in base
        iterations. Hook for the intra-round hyperparameter-adaptation
        extensions (§6 future work)."""
        return None, 1
