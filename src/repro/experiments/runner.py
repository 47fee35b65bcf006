"""Run orchestration for the evaluation experiments: a :class:`RunSpec`
describes one run and :func:`run_scheme` runs it."""

from __future__ import annotations

import dataclasses
import os
import signal
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..algorithms import build_strategy
from ..core import FedCAConfig
from ..runtime import Executor, RunHistory, resolve_executor
from ..runtime.history import history_from_dict, history_to_dict
from ..runtime.wire import parse_wire_spec
from .configs import WorkloadConfig, make_environment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..persist import ResultCache

__all__ = ["RunSpec", "SchemeResult", "run_scheme"]


@dataclass(frozen=True)
class RunSpec:
    """Everything that decides one run's outcome.

    ``workload`` is the preset; ``engine`` an executor spec or instance
    (:func:`~repro.runtime.resolve_executor`); ``wire`` a wire spec
    (:mod:`repro.runtime.wire`); ``population`` a population spec
    (:mod:`repro.scale`). Construction resolves the effective defaults
    once, so a run that spells them out and one that leaves them out are
    one spec: ``rounds`` ``None`` (or 0) becomes the preset's
    ``default_rounds``; a FedCA variant's ``fedca_config`` ``None`` becomes
    the preset's scale-adapted ``profile_every``, and any other scheme,
    which ignores the config, drops it. ``replace(spec, scheme=s)`` is the
    same run under another scheme; ``replace`` keeps the resolved
    ``rounds``, so a run on another workload needs a new spec.
    """

    workload: WorkloadConfig
    scheme: str
    rounds: int | None = None
    stop_at_target: bool = True
    seed: int = 0
    fedca_config: FedCAConfig | None = None
    wire: str | None = None
    engine: "Executor | str" = "serial"
    population: str | None = None

    def __post_init__(self) -> None:
        config = self.fedca_config
        if not self.scheme.lower().startswith("fedca"):
            config = None
        elif config is None:
            config = FedCAConfig(profile_every=self.workload.fedca_profile_every)
        object.__setattr__(self, "fedca_config", config)
        object.__setattr__(self, "rounds", self.rounds or self.workload.default_rounds)

    @property
    def identity(self) -> dict:
        """The result cache's key document (without its schema version).

        A lossy wire (anything but raw) joins it, and so does the engine
        where it can move bytes: padded ``cohort:M`` zero-pads a client
        whose shard is smaller than a batch (DESIGN.md §12). Every engine
        labelled ``serial`` — the default batched one and the reference
        loop it reproduces — and ``parallel`` leave it out, so they share a
        cell. ``dynamic`` is always on; the document keeps it so that cells
        written while it was a parameter still hit."""
        document = {
            "workload": dataclasses.asdict(self.workload),
            "scheme": self.scheme.strip().lower(),
            "rounds": int(self.rounds),
            "stop_at_target": bool(self.stop_at_target),
            "seed": int(self.seed),
            "dynamic": True,
            "fedca": (
                None
                if self.fedca_config is None
                else dataclasses.asdict(self.fedca_config)
            ),
        }
        wire = (self.wire or "").strip().lower()
        if wire not in ("", "raw"):
            document["wire"] = wire
        engine = resolve_executor(self.engine)
        if engine.name == "cohort":
            document["engine"] = f"cohort:{engine.cohort_size}"
        return document


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
    spec: RunSpec,
    *,
    recorder=None,
    profiler=None,
    cache: "ResultCache | None" = None,
    checkpoint_dir: str | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    crash_after_round: int | None = None,
) -> SchemeResult:
    """Run ``spec`` and return its history.

    The history is engine-independent. ``recorder`` is an optional
    :class:`~repro.obs.Recorder` telemetry sink; a single recorder may be
    shared across runs (a ``run.start`` event marks each scheme's stream).
    ``profiler`` is an optional :class:`~repro.obs.PhaseProfiler`;
    checkpoint saves are attributed to its ``checkpoint`` phase.

    Persistence (see :mod:`repro.persist`):

    * ``cache`` — a :class:`~repro.persist.ResultCache`; an
      already-computed cell for this spec is returned without simulating
      (hit/miss counters mirror into the recorder).
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
    cfg = spec.workload
    cache_key = None
    if cache is not None:
        cache_key = cache.key(spec)
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

    ckpt_path = None
    if resume:
        from ..persist import find_latest_checkpoint

        ckpt_path = find_latest_checkpoint(checkpoint_dir)
    strategy = build_strategy(
        spec.scheme, cfg.optimizer_spec(), fedca_config=spec.fedca_config
    )
    wire_layer = parse_wire_spec(spec.wire)
    if wire_layer is not None:
        strategy.set_wire(wire_layer)
    engine = resolve_executor(spec.engine)
    # A resumed trace already holds run.start and every round before the
    # checkpoint, so the recorder joins only once its state is restored and
    # the stream continues at the checkpoint's sequence number and byte
    # offset (construction emits nothing).
    sim = make_environment(
        cfg, strategy, seed=spec.seed, executor=engine,
        population=spec.population, recorder=None if resume else recorder,
        profiler=profiler,
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
        rounds_done = 0
        if resume:
            ckpt = sim.resume(ckpt_path)
            rounds_done = ckpt.rounds_completed
            if recorder is not None:
                if ckpt.recorder is not None and hasattr(recorder, "restore_state"):
                    recorder.restore_state(ckpt.recorder)
                if hasattr(recorder, "attach_sink"):
                    offset = (ckpt.recorder or {}).get("sink_offset")
                    recorder.attach_sink(offset=offset)
                sim.set_recorder(recorder)
        elif recorder is not None and recorder.enabled:
            recorder.emit(
                "run.start",
                sim_time=0.0,
                scheme=strategy.name,
                workload=cfg.name,
                scale=cfg.scale,
                seed=spec.seed,
                # An instance is spelled by its label, not its address.
                executor=spec.engine if isinstance(spec.engine, str) else engine.name,
            )
        target = cfg.target_accuracy if spec.stop_at_target else None
        already_met = spec.stop_at_target and any(
            r.accuracy >= cfg.target_accuracy for r in sim.history.records
        )
        remaining = spec.rounds - rounds_done
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
    if cache_key is not None:
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
