"""Scheme-vs-scheme run orchestration for the evaluation experiments."""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..algorithms import build_strategy
from ..core import FedCAConfig
from ..runtime import RunHistory, resolve_executor
from ..runtime.history import history_from_dict, history_to_dict
from ..runtime.wire import parse_wire_spec
from .configs import WorkloadConfig, make_environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..persist import ResultCache

__all__ = ["SchemeResult", "run_scheme", "compare_schemes"]


@dataclass(frozen=True)
class SchemeResult:
    """Outcome of one (workload, scheme) training run."""

    workload: str
    scheme: str
    history: RunHistory
    target_accuracy: float

    @property
    def reached_target(self) -> bool:
        return self.history.time_to_accuracy(self.target_accuracy) is not None

    @property
    def rounds_to_target(self) -> int | None:
        tta = self.history.time_to_accuracy(self.target_accuracy)
        return None if tta is None else tta[1]

    @property
    def time_to_target(self) -> float | None:
        tta = self.history.time_to_accuracy(self.target_accuracy)
        return None if tta is None else tta[0]

    @property
    def mean_round_time(self) -> float:
        return self.history.mean_round_time()


def run_scheme(
    cfg: WorkloadConfig,
    scheme: str,
    *,
    rounds: int | None = None,
    stop_at_target: bool = True,
    seed: int = 0,
    dynamic: bool = True,
    fedca_config: FedCAConfig | None = None,
    wire: str | None = None,
    executor=None,
    population: str | None = None,
    recorder=None,
    profiler=None,
    cache: "ResultCache | None" = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    crash_after_round: int | None = None,
) -> SchemeResult:
    """Train one workload under one scheme and return its history.

    When no explicit ``fedca_config`` is given, FedCA variants take the
    workload's scale-adapted profiling period (see
    :class:`~repro.experiments.configs.WorkloadConfig.fedca_profile_every`).
    ``executor`` selects the client-execution engine (serial by default);
    the resulting history is engine-independent. ``wire`` selects the
    compressed wire transport (see :mod:`repro.runtime.wire`); ``None``
    or ``"raw"`` keeps uploads byte-identical to the pre-wire runtime. ``recorder`` is an
    optional :class:`~repro.obs.Recorder` telemetry sink; a single
    recorder may be shared across runs (a ``run.start`` event marks each
    scheme's stream). ``profiler`` is an optional
    :class:`~repro.obs.PhaseProfiler`; checkpoint saves are attributed to
    its ``checkpoint`` phase.

    Persistence (see :mod:`repro.persist`):

    * ``cache`` — a :class:`~repro.persist.ResultCache`; an
      already-computed cell for this exact configuration is returned
      without simulating (hit/miss counters mirror into the recorder).
    * ``checkpoint_dir`` + ``checkpoint_every`` — snapshot the full run
      state into ``checkpoint_dir`` every N completed rounds.
    * ``resume`` — restore the latest complete checkpoint in
      ``checkpoint_dir`` and continue; the finished history and trace are
      byte-identical to an uninterrupted run's. Raises
      :class:`~repro.persist.CheckpointNotFoundError` (listing whatever
      was found) when there is nothing to resume.
    * ``crash_after_round`` — fault injection for the crash-resume tests
      and CI: the process SIGKILLs itself once that many rounds have
      completed (after any due checkpoint), exactly like a real crash.
    """
    if resume and not checkpoint_dir:
        raise ValueError("resume=True requires checkpoint_dir")
    if checkpoint_every is not None and checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    # Resolve effective values BEFORE cache keying, so explicit defaults
    # and implied defaults land in the same cell.
    if fedca_config is None and scheme.lower().startswith("fedca"):
        fedca_config = FedCAConfig(profile_every=cfg.fedca_profile_every)
    effective_rounds = rounds or cfg.default_rounds

    # Resolved once, up front: padded ``cohort[:M]`` pads short batches,
    # which can move bytes (DESIGN.md §12), so it is the one engine the
    # cache keys on. Everything labelled ``serial`` — the default batched
    # engine and the reference loop it reproduces — and ``parallel`` share
    # one cell.
    engine = resolve_executor(executor)
    cache_key = None
    if cache is not None:
        cache_key = cache.key(
            cfg,
            scheme,
            rounds=effective_rounds,
            stop_at_target=stop_at_target,
            seed=seed,
            dynamic=dynamic,
            fedca_config=fedca_config,
            wire=wire,
            engine=(
                f"cohort:{engine.cohort_size}" if engine.name == "cohort" else None
            ),
        )
        payload = cache.get(cache_key)
        if recorder is not None and recorder.enabled:
            recorder.counter(
                "repro_result_cache_hits_total" if payload is not None
                else "repro_result_cache_misses_total"
            )
        if payload is not None:
            return SchemeResult(
                workload=payload["workload"],
                scheme=payload["scheme"],
                history=history_from_dict(payload["history"]),
                target_accuracy=payload["target_accuracy"],
            )

    strategy = build_strategy(
        scheme, cfg.optimizer_spec(), fedca_config=fedca_config
    )
    wire_layer = parse_wire_spec(wire)
    if wire_layer is not None:
        strategy.set_wire(wire_layer)

    rounds_done = 0
    if resume:
        from ..persist import find_latest_checkpoint

        ckpt_path = find_latest_checkpoint(checkpoint_dir)
        # Build with recorder=None and attach the recorder once its state
        # is restored: the trace already holds run.start and every round
        # before the checkpoint, so the stream continues at the checkpoint's
        # sequence number and byte offset (construction emits nothing).
        sim = make_environment(
            cfg, strategy, seed=seed, dynamic=dynamic, executor=engine,
            population=population, recorder=None, profiler=profiler,
        )
        ckpt = sim.resume(ckpt_path)
        rounds_done = ckpt.rounds_completed
        if recorder is not None:
            if ckpt.recorder is not None and hasattr(recorder, "restore_state"):
                recorder.restore_state(ckpt.recorder)
            if hasattr(recorder, "attach_sink"):
                offset = (ckpt.recorder or {}).get("sink_offset")
                recorder.attach_sink(offset=offset)
            sim.set_recorder(recorder)
    else:
        if recorder is not None and recorder.enabled:
            recorder.emit(
                "run.start",
                sim_time=0.0,
                scheme=strategy.name,
                workload=cfg.name,
                scale=cfg.scale,
                seed=seed,
                # An instance is spelled by its label, not its address.
                executor=executor if isinstance(executor, str) else engine.name,
            )
        sim = make_environment(
            cfg, strategy, seed=seed, dynamic=dynamic, executor=engine,
            population=population, recorder=recorder, profiler=profiler,
        )

    def on_round(_record) -> None:
        done = sim.history.num_rounds
        if (
            checkpoint_dir
            and checkpoint_every
            and done % checkpoint_every == 0
        ):
            from ..persist import save_run_checkpoint

            with sim.profiler.phase("checkpoint"):
                save_run_checkpoint(sim, checkpoint_dir)
        if crash_after_round is not None and done >= crash_after_round:
            # Hard kill, no cleanup/flush — indistinguishable from a real
            # crash, which is exactly what the resume oracle must survive.
            os.kill(os.getpid(), signal.SIGKILL)

    try:
        target = cfg.target_accuracy if stop_at_target else None
        already_met = stop_at_target and any(
            r.accuracy >= cfg.target_accuracy for r in sim.history.records
        )
        remaining = effective_rounds - rounds_done
        if remaining > 0 and not already_met:
            sim.run(
                remaining,
                target_accuracy=target,
                progress=on_round
                if (checkpoint_dir and checkpoint_every) or crash_after_round
                else None,
            )
        history = sim.history
    finally:
        sim.close()

    result = SchemeResult(
        workload=cfg.name,
        scheme=strategy.name,
        history=history,
        target_accuracy=cfg.target_accuracy,
    )
    if cache is not None and cache_key is not None:
        cache.put(
            cache_key,
            {
                "workload": result.workload,
                "scheme": result.scheme,
                "target_accuracy": result.target_accuracy,
                "history": history_to_dict(history),
            },
        )
    return result


def compare_schemes(
    cfg: WorkloadConfig,
    schemes: list[str],
    *,
    rounds: int | None = None,
    stop_at_target: bool = True,
    seed: int = 0,
    dynamic: bool = True,
    fedca_config: FedCAConfig | None = None,
    wire: str | None = None,
    executor=None,
    population: str | None = None,
    recorder=None,
    profiler=None,
    cache: "ResultCache | None" = None,
) -> list[SchemeResult]:
    """Run several schemes under identical data/system conditions.

    With ``cache``, schemes whose results are already cached are skipped
    entirely (their cells were keyed on the same config/seed)."""
    return [
        run_scheme(
            cfg,
            scheme,
            rounds=rounds,
            stop_at_target=stop_at_target,
            seed=seed,
            dynamic=dynamic,
            fedca_config=fedca_config,
            wire=wire,
            executor=executor,
            population=population,
            recorder=recorder,
            profiler=profiler,
            cache=cache,
        )
        for scheme in schemes
    ]
