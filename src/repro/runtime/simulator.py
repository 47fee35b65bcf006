"""Event-ordered federated-learning simulator.

Replaces the paper's EC2 testbed: every round, the server broadcasts the
global model and the deadline ``T_R``, selected clients execute their local
rounds (real SGD on their shards, with compute/communication durations drawn
from the system substrate), the server collects the earliest ``fraction`` of
uploads and aggregates them, and the simulated clock advances to the arrival
of the last collected update.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..data import Dataset
from ..nn import Module
from ..obs import NULL_RECORDER, Recorder
from ..obs.profile import NULL_PROFILER, PhaseProfiler
from ..sysmodel import DropoutModel, LinkModel, select_deadline
from .aggregation import (
    aggregate_buffers,
    aggregate_updates,
    apply_update,
    collect_earliest,
)
from .executor import Binding, Executor, resolve_executor
from .history import ClientEventTable, RoundRecord, RunHistory
from .round import RoundContext
from .selection import select_clients

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Strategy
    from ..scale import ShardProvider

__all__ = ["FederatedSimulator", "EVAL_BATCH"]

#: Test rows :meth:`FederatedSimulator.evaluate` feeds the model at once.
EVAL_BATCH = 512


def _apply(stages: Sequence[Module], x: np.ndarray) -> np.ndarray:
    for module in stages:
        x = module(x)
    return x


class FederatedSimulator:
    """Drives a complete FL training run under one strategy.

    Parameters
    ----------
    model_fn:
        Zero-argument factory for the workload model. Must be deterministic
        (seeded) — the server and every client replica call it.
    strategy:
        The federated scheme under test.
    shards:
        One training :class:`~repro.data.Dataset` per client.
    test_set:
        Held-out global evaluation data.
    base_iteration_times:
        Per-client fast-mode seconds per local iteration (static
        heterogeneity): a sequence, or a cid-array callable (``PopulationSpec``).
    local_iterations:
        Default K, the per-round local iteration count (paper: 125).
    aggregation_fraction:
        The server waits for this fraction of updates, earliest first
        (paper: 0.9).
    deadline_min_fraction:
        Floor on the fraction of clients the FedBalancer-style deadline
        ``T_R`` must cover; guards against the degenerate pick of the single
        fastest client's completion time.
    link_fn:
        Optional per-client link factory; defaults to the paper's 13.7 Mbps.
    dynamic:
        Enable fast/slow toggling on every client.
    executor:
        Client-execution engine: ``None``/``"serial"`` (default),
        ``"parallel"``/``"parallel:N"``, ``"cohort"``/``"cohort:M"``, or
        an :class:`~repro.runtime.executor.Executor` instance. Engines
        only change wall-clock time: ``serial`` trains each round as
        stacked programs of equal batch width and ``parallel`` runs that
        engine in worker processes, both bitwise identical to the
        per-client reference loop
        (:class:`~repro.runtime.executor.SerialExecutor`); ``cohort``
        batches M clients into one stacked tensor program and is too,
        except that a client whose shard is smaller than a batch is
        zero-padded, which can move its tensor values at rounding level
        (see :mod:`repro.runtime.cohort` and DESIGN.md §12).
    recorder:
        Telemetry sink (see :mod:`repro.obs`). ``None`` (default) means
        the shared :data:`~repro.obs.NULL_RECORDER`: every hook is a
        no-op and the run is bitwise identical to an uninstrumented one.
        A :class:`~repro.obs.TraceRecorder` captures round/client spans,
        FedCA decision events and run metrics keyed on simulated time;
        the trace is executor-independent.
    profiler:
        Optional :class:`~repro.obs.PhaseProfiler` measuring where the
        *wall clock* goes each round (``select``, ``broadcast``,
        ``client.train``, ``collect``, ``aggregate``, ``evaluate``,
        ``telemetry``, ``checkpoint`` + transport sub-spans). Default is
        the no-op :data:`~repro.obs.NULL_PROFILER`. Phase totals are
        mirrored as ``repro_phase_seconds`` *gauges* each round; they
        never enter the event trace or the counters registry, so
        profiling cannot perturb determinism.
    population:
        How many clients stay live in the run's one pager,
        :class:`~repro.scale.LazyClientPopulation` (``clients`` and
        ``population`` both), which builds client ``cid`` from ``(seed, cid)``
        the first time a round selects it: ``None``/``"eager"`` (default)
        keeps every one, ``"lazy"``/``"lazy:cache=N"`` at most N and parks
        the rest as snapshot blobs. Only peak memory changes, never the
        history or trace bytes (see :mod:`repro.scale`, DESIGN.md §15).
    spill_client_events:
        Accepted and ignored: a history keeps each round's client events as
        one compact table, so there is nothing to spill.
    """

    def __init__(
        self,
        *,
        model_fn: Callable[[], Module],
        strategy: "Strategy",
        shards: "Sequence[Dataset] | ShardProvider",
        test_set: Dataset,
        base_iteration_times: "Sequence[float] | Callable[[np.ndarray], np.ndarray | float]",
        batch_size: int = 16,
        local_iterations: int = 25,
        aggregation_fraction: float = 0.9,
        deadline_min_fraction: float = 0.5,
        clients_per_round: int | None = None,
        link_fn: Callable[[int], LinkModel] | None = None,
        dynamic: bool = True,
        gamma_fast: tuple[float, float] | None = None,
        gamma_slow: tuple[float, float] | None = None,
        slowdown_range: tuple[float, float] | None = None,
        dropout_rate: float = 0.0,
        seed: int = 0,
        executor: "Executor | str | None" = None,
        recorder: Recorder | None = None,
        profiler: PhaseProfiler | None = None,
        population: str | None = None,
        spill_client_events: bool = False,
    ) -> None:
        if not callable(base_iteration_times) and len(shards) != len(
            base_iteration_times
        ):
            raise ValueError("need one base iteration time per client shard")
        if local_iterations < 1:
            raise ValueError("local_iterations must be >= 1")
        if not 0 < aggregation_fraction <= 1:
            raise ValueError("aggregation_fraction must be in (0, 1]")
        if not 0 <= deadline_min_fraction <= 1:
            raise ValueError("deadline_min_fraction must be in [0, 1]")
        self.strategy = strategy
        self.local_iterations = local_iterations
        self.aggregation_fraction = aggregation_fraction
        self.deadline_min_fraction = deadline_min_fraction
        self.clients_per_round = clients_per_round
        self.seed = seed
        self.test_set = test_set

        # The server model is the global state: its (P,) parameter and (B,)
        # buffer vectors are what every engine receives and what each
        # round's aggregate is written into, in place.
        self.global_model = model_fn()

        link_fn = link_fn or (lambda _cid, link=LinkModel(): link)  # frozen: shared
        from ..scale import (
            ClientFactory,
            LazyClientPopulation,
            PopulationSpec,
            as_shard_provider,
            parse_population_spec,
        )
        from ..sysmodel.speed import GAMMA_FAST, GAMMA_SLOW, SLOWDOWN_RANGE

        gamma_fast = gamma_fast or GAMMA_FAST
        gamma_slow = gamma_slow or GAMMA_SLOW
        slowdown_range = slowdown_range or SLOWDOWN_RANGE
        # Every client is built by one factory from (seed, cid), so a client
        # paged back in is bit-identical to one that never left.
        self._factory = ClientFactory(
            PopulationSpec(
                shards=as_shard_provider(shards),
                model_fn=model_fn,
                batch_size=batch_size,
                pace=base_iteration_times,
                link_fn=link_fn,
                seed=seed,
                dynamic=dynamic,
                gamma_fast=gamma_fast,
                gamma_slow=gamma_slow,
                slowdown_range=slowdown_range,
            )
        )
        # One pager for every run; "eager" is one with room for everyone.
        capacity = parse_population_spec(population)
        self.population = LazyClientPopulation(
            self._factory, math.inf if capacity is None else capacity
        )
        self.clients = self.population
        # Server-side pace estimates (seconds/iteration); bootstrapped from
        # device-class metadata via _pace_estimate, refined with each round's
        # observations. Only observed entries are stored — an O(total
        # clients) bootstrap dict would defeat the pager.
        self.est_pace: dict[int, float] = {}
        self.dropout = DropoutModel(dropout_rate, seed=seed)
        self.time = 0.0
        self.history = RunHistory()
        # The executor binds before any client is built: parallel workers
        # fork the pager and build the clients each round deals them.
        self.executor = resolve_executor(executor)
        arena = self.global_model.arena()
        # Eager layers are recorded against the model's layout order.
        self._event_layers = tuple(arena.layout.layer_bytes)
        num_clients = len(self.clients)
        # Construction emits nothing: a client describes itself on its own
        # client.round span, so a traced lazy run never enumerates the
        # population.
        self._binding = Binding(
            self.clients,
            self.strategy,
            (arena.layout, arena.buffer_layout),
            min(clients_per_round or num_clients, num_clients),
            recorder if recorder is not None else NULL_RECORDER,
            profiler if profiler is not None else NULL_PROFILER,
        )
        self.executor.bind(self._binding)
        self.profiler.set_executor_label(self.executor.name)

    # ------------------------------------------------------------------
    @property
    def global_state(self) -> dict[str, np.ndarray]:
        """A copy of the global model's parameters by layer name; writing
        into it leaves the run unchanged."""
        return self.global_model.state_dict()

    @property
    def global_buffers(self) -> dict[str, np.ndarray]:
        """A copy of the global model's buffers by name (may be empty)."""
        return self.global_model.buffer_dict()

    # ------------------------------------------------------------------
    # Checkpoint/resume (see repro.persist — imported lazily so the
    # runtime layer has no hard dependency on the persistence subsystem).
    # ------------------------------------------------------------------
    def resume(self, source) -> "RunCheckpoint":
        """Restore a checkpoint into this *freshly constructed* simulator.

        ``source`` is a checkpoint payload path or an already-loaded
        :class:`~repro.persist.RunCheckpoint`. Returns the checkpoint so
        callers can pick up ``rounds_completed`` and the recorder
        snapshot. The simulator must have been built with the same
        configuration and seed and have run zero rounds; the restored blobs
        are staged in its population — where parallel jobs pick them up
        too — and the continued run is bitwise identical to one that never
        stopped."""
        from ..persist import RunCheckpoint

        ckpt = (
            source
            if isinstance(source, RunCheckpoint)
            else RunCheckpoint.load(source)
        )
        ckpt.restore_into(self)
        return ckpt

    @property
    def recorder(self) -> Recorder:
        """The run's telemetry sink (see :mod:`repro.obs`)."""
        return self._binding.recorder

    @property
    def profiler(self) -> PhaseProfiler:
        """The run's wall-clock phase profiler."""
        return self._binding.profiler

    def set_recorder(self, recorder: Recorder | None) -> None:
        """Swap the telemetry sink — for the simulator and its engine at
        once, as they share one :class:`~repro.runtime.executor.Binding`.
        The resume path constructs the simulator with ``recorder=None``,
        restores the recorder's own state (sequence number, trace offset),
        then attaches it here."""
        self._binding.recorder = recorder if recorder is not None else NULL_RECORDER

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (worker processes). Idempotent."""
        self.executor.close()

    def __enter__(self) -> "FederatedSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def evaluate(self) -> float:
        """Global-model top-1 accuracy on the held-out test set, in blocks
        of :data:`EVAL_BATCH` rows. The model's row-independent prefix
        (:attr:`~repro.nn.Module.row_independent`) runs in chunks of the
        rows one training step holds (:meth:`Executor.step_rows`), so no
        buffer outgrows a step and the logits keep one forward's bytes."""
        model = self.global_model
        model.eval()
        stages = model.stages()
        k = next((i for i, m in enumerate(stages) if not m.row_independent), len(stages))
        step = self.executor.step_rows()
        correct = 0
        n = len(self.test_set)
        for start in range(0, n, EVAL_BATCH):
            x = self.test_set.x[start : start + EVAL_BATCH]
            y = self.test_set.y[start : start + EVAL_BATCH]
            rest = stages
            if k and len(x) > step:
                x = np.concatenate(
                    [_apply(stages[:k], x[i : i + step]) for i in range(0, len(x), step)]
                )
                rest = stages[k:]
            logits = _apply(rest, x)
            correct += int((logits.argmax(axis=1) == y).sum())
        model.train(True)
        return correct / n

    # ------------------------------------------------------------------
    def run_round(self) -> RoundRecord:
        """Execute one communication round and append it to the history."""
        prof = self.profiler
        prof.begin_round()
        round_index = self.history.num_rounds
        with prof.phase("select"):
            selected = select_clients(
                len(self.clients),
                self.clients_per_round,
                round_index=round_index,
                seed=self.seed,
            )
            # FedBalancer-style compute deadline from current pace estimates,
            # drawn inside the search that consumes them so a profile of it
            # sees their cost (a never-observed client's pace is a fresh
            # seeded draw, the whole selection's in one batch).
            deadline = select_deadline(
                self._compute_estimates(selected),
                min_fraction=self.deadline_min_fraction,
            )
            budgets = self.strategy.prepare_round(
                self, selected, deadline, round_index
            )
        rec = self.recorder
        tracing = rec.enabled
        if tracing:
            rec.emit(
                "round.start",
                sim_time=self.time,
                round_index=round_index,
                selected=list(selected),
                num_selected=len(selected),
                deadline=deadline,
                model_bytes=self.global_model.nbytes(),
            )

        # Failure injection: dropped clients never report back this round
        # (paper §3.1 — device leaves mid-round). If everyone drops, the
        # round stalls until the deadline and contributes nothing.
        dropped = self.dropout.dropped(round_index, selected)
        if tracing:
            for cid in sorted(dropped):
                rec.emit(
                    "client.dropped",
                    sim_time=self.time,
                    round_index=round_index,
                    client_id=cid,
                )
                rec.counter("repro_dropped_clients_total")
        survivors = [cid for cid in selected if cid not in dropped]
        if not survivors:
            with prof.phase("evaluate"):
                acc = self.evaluate()
            record = RoundRecord(
                round_index=round_index,
                start_time=self.time,
                end_time=self.time + deadline,
                accuracy=acc,
                mean_loss=float("nan"),
                collected_clients=(),
                straggler_clients=tuple(selected),
                mean_iterations=0.0,
                total_bytes=0,
                events=ClientEventTable.from_events(self._event_layers, {}),
            )
            self.history.append(record)
            self.time = record.end_time
            if tracing:
                with prof.phase("telemetry"):
                    rec.emit(
                        "round.all_dropped",
                        sim_time=record.start_time,
                        round_index=round_index,
                    )
                    self._emit_round_end(record)
                prof.mirror(rec)
            return record

        jobs = [
            (
                cid,
                RoundContext(
                    round_index=round_index,
                    round_start=self.time,
                    iterations=self.local_iterations,
                    deadline=deadline,
                    assigned_iterations=None if budgets is None else budgets.get(cid),
                    trace_enabled=tracing,
                ),
            )
            for cid in survivors
        ]
        arena = self.global_model.arena()
        results = self.executor.run_round(arena.values, arena.buffers, jobs)

        with prof.phase("collect"):
            collected, round_end = collect_earliest(
                results, self.aggregation_fraction
            )
        with prof.phase("aggregate"):
            apply_update(arena.values, aggregate_updates(collected))
            arena.buffers[...] = aggregate_buffers(collected)

        # Pace estimates refresh from every client that ran, collected or not.
        for r in results:
            pace = r.observed_pace
            if pace is not None:
                self.est_pace[r.client_id] = pace

        with prof.phase("evaluate"):
            acc = self.evaluate()
        collected_ids = tuple(r.client_id for r in collected)
        if tracing:
            with prof.phase("telemetry"):
                # Results arrive in job order (sorted client ids) regardless
                # of the executor, so merging here keeps the trace
                # deterministic — the telemetry mirror of PR 1's
                # bitwise-identical-history guarantee.
                collected_set = set(collected_ids)
                for r in results:
                    rec.merge_client_trace(round_index, r.client_id, r.trace)
                    rec.span(
                        "client.round",
                        sim_start=r.compute_start_time,
                        sim_end=r.upload_finish_time,
                        round_index=round_index,
                        client_id=r.client_id,
                        compute_start=r.compute_start_time,
                        compute_finish=r.compute_finish_time,
                        upload_finish=r.upload_finish_time,
                        iterations_run=r.iterations_run,
                        bytes_uploaded=r.bytes_uploaded,
                        mean_loss=r.mean_loss,
                        collected=r.client_id in collected_set,
                        num_samples=r.num_samples,
                        base_pace=self._factory.base_pace(r.client_id),
                    )
                    rec.counter("repro_client_rounds_total")
                    rec.counter("repro_iterations_total", r.iterations_run)
                    rec.counter("repro_bytes_uploaded_total", r.bytes_uploaded)
                    ev = r.events
                    if ev.get("anchor"):
                        rec.counter("repro_anchor_rounds_total")
                    if ev.get("early_stop_iteration") is not None:
                        rec.counter("repro_early_stops_total")
                    eager = ev.get("eager")
                    if eager:
                        rec.counter("repro_eager_transmits_total", len(eager))
                    retrans = ev.get("retransmitted")
                    if retrans:
                        rec.counter("repro_retransmissions_total", len(retrans))
                    wire = ev.get("wire")
                    if wire:
                        # Compressed transport active: surface both sides
                        # of the cost — what the raw payload would have
                        # weighed and what actually crossed the wire.
                        rec.counter(
                            'repro_wire_bytes_total{variant="raw"}',
                            wire["raw_bytes"],
                        )
                        rec.counter(
                            'repro_wire_bytes_total{variant="wire"}',
                            wire["wire_bytes"],
                        )
        record = RoundRecord(
            round_index=round_index,
            start_time=self.time,
            end_time=round_end,
            accuracy=acc,
            mean_loss=float(np.mean([r.mean_loss for r in collected])),
            collected_clients=collected_ids,
            straggler_clients=tuple(
                [r.client_id for r in results if r.client_id not in collected_ids]
                + sorted(dropped)
            ),
            mean_iterations=float(np.mean([r.iterations_run for r in results])),
            total_bytes=sum(r.bytes_uploaded for r in results),
            events=ClientEventTable.from_events(
                self._event_layers, {r.client_id: r.events for r in results}
            ),
        )
        self.history.append(record)
        self.time = round_end
        if tracing:
            with prof.phase("telemetry"):
                self._emit_round_end(record)
            # Publish cumulative phase gauges once the round's spans closed.
            prof.mirror(rec)
        return record

    def _compute_estimates(self, cids: Sequence[int]):
        """``K`` × each of ``cids``' pace estimate, lazily: every base pace
        is drawn in one batch when the first is asked for."""
        for cid, pace in zip(cids, self._factory.paces(cids).tolist()):
            yield self.local_iterations * self.est_pace.get(cid, pace)

    # ------------------------------------------------------------------
    def pace_estimate(self, cid: int) -> float:
        """Current seconds/iteration estimate for ``cid``.

        Falls back to the factory's static base pace for clients never yet
        observed — the same value the old eager bootstrap dict held, so
        deadlines (and therefore histories) are unchanged."""
        pace = self.est_pace.get(cid)
        if pace is not None:
            return pace
        return self._factory.base_pace(cid)

    # ------------------------------------------------------------------
    def _emit_round_end(self, record: RoundRecord) -> None:
        """Round-summary event plus run-level counters and gauges."""
        rec = self.recorder
        rec.emit(
            "round.end",
            sim_time=record.end_time,
            round_index=record.round_index,
            accuracy=record.accuracy,
            mean_loss=record.mean_loss,
            num_collected=len(record.collected_clients),
            num_stragglers=len(record.straggler_clients),
            total_bytes=record.total_bytes,
            duration=record.duration,
        )
        rec.counter("repro_rounds_total")
        rec.gauge("repro_sim_time_seconds", record.end_time)
        rec.gauge("repro_round_accuracy", record.accuracy)
        rec.gauge("repro_round_mean_loss", record.mean_loss)
        self.population.mirror_metrics(rec)

    # ------------------------------------------------------------------
    def run(
        self,
        num_rounds: int,
        *,
        target_accuracy: float | None = None,
        progress: Callable[[RoundRecord], None] | None = None,
    ) -> RunHistory:
        """Run up to ``num_rounds`` rounds, stopping early if
        ``target_accuracy`` is reached.

        Crash safety: the loop always flushes the recorder's trace and
        closes the profiler's open round lap in a ``finally`` — so the
        trace streamed so far survives a mid-round exception (the recorder
        additionally closes its trace file via ``atexit``; see
        :class:`~repro.obs.TraceRecorder`)."""
        if num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        try:
            for _ in range(num_rounds):
                record = self.run_round()
                if progress is not None:
                    progress(record)
                if (
                    target_accuracy is not None
                    and record.accuracy >= target_accuracy
                ):
                    break
        finally:
            self.profiler.finish()
            self.recorder.flush()
        return self.history
