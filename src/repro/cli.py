"""Command-line interface for the reproduction harness.

Usage (installed or via ``python -m repro.cli``):

    repro run --workload cnn --scheme fedca --rounds 20 --json out.json
    repro run --workload cnn --scheme fedca --trace-file trace.jsonl \
        --metrics-file metrics.prom
    repro compare --workload lstm --schemes fedavg fedada fedca
    repro reproduce --artifact table1 --models cnn lstm
    repro overhead --paper-arch

``run`` trains one scheme and prints (or dumps) the round history;
``compare`` runs several schemes under identical conditions and prints the
Table-1-style rows; ``reproduce`` regenerates one named paper artefact;
``overhead`` prints the §5.5 profiling-memory accounting.

Telemetry: ``--trace-file`` streams the deterministic JSONL event trace
(a background flusher thread encodes and writes it, off the run's hot
path), ``--metrics-file`` dumps Prometheus-style counters/gauges,
and either flag also prints the per-run summary table (see
:mod:`repro.obs`); ``--profile`` prints the wall-clock
phase breakdown after the run. Telemetry outputs are finalised in a
``finally`` block, so traces, metrics dumps and profile reports survive
mid-run exceptions. All output goes through the ``repro.*`` logging
namespace, configured once here via ``--log-level``.

Exit codes: 0 success; 2 a bad argument or a checkpoint that cannot be
resumed; 3 a ``--sanitize`` run that recorded a live thread at a fork or
left a shared-memory segment it created unlinked (:mod:`repro.sanitize`).
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from dataclasses import replace

from . import sanitize
from .experiments import (
    format_fig1,
    format_fig2,
    format_fig3,
    format_fig4,
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    format_fig9,
    format_fig10,
    format_overhead,
    format_table,
    format_table1,
    get_workload,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig8,
    run_fig9,
    run_fig10,
    run_overhead,
    run_table1,
)
from .experiments.runner import RunSpec, run_scheme
from .obs import (
    LOG_LEVELS,
    SinkError,
    TraceRecorder,
    configure_logging,
    metrics_to_text,
    summary_table,
)

logger = logging.getLogger("repro.cli")

ARTIFACTS = {
    "fig1": (run_fig1, format_fig1),
    "fig2": (run_fig2, format_fig2),
    "fig3": (run_fig3, format_fig3),
    "fig4": (run_fig4, format_fig4),
    "fig5": (run_fig5, format_fig5),
    "fig6": (run_fig6, format_fig6),
    "table1": (run_table1, format_table1),
    "fig7": (run_table1, format_fig7),
    "fig8": (run_fig8, format_fig8),
    "fig9": (run_fig9, format_fig9),
    "fig10": (run_fig10, format_fig10),
    "overhead": (run_overhead, format_overhead),
}

_DEFAULT_SCALE, _DEFAULT_SEED = "micro", 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default=_DEFAULT_SCALE, choices=["micro", "small", "paper"])
    parser.add_argument("--seed", type=int, default=_DEFAULT_SEED)
    _add_sanitize(parser)
    _add_log_level(parser)


def _add_sanitize(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime determinism sanitizer (repro.sanitize): "
             "trap legacy np.random global-state calls, record unexpected "
             "live threads at fork, track shm create/unlink pairing, and "
             "validate metric registry discipline; passive — a sanitized "
             "run's history and trace are byte-identical — but a run that "
             "recorded a fork or shm violation exits 3 "
             "(also enabled by REPRO_SANITIZE=1)")


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default="info", choices=list(LOG_LEVELS),
        help="verbosity of the repro.* logging namespace (default: info)")


def _add_telemetry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-file", metavar="PATH", default=None,
        help="stream the structured telemetry trace to PATH as JSONL "
             "(deterministic, simulated-time-keyed events)")
    parser.add_argument(
        "--metrics-file", metavar="PATH", default=None,
        help="write Prometheus-style text metrics to PATH after the run")
    parser.add_argument(
        "--profile", action="store_true",
        help="measure wall-clock phase spans (select/broadcast/client.train/"
             "collect/aggregate/evaluate/telemetry/checkpoint + transport "
             "sub-spans) and print the per-run profile report")
    parser.add_argument(
        "--profile-file", metavar="PATH", default=None,
        help="also write the profile report to PATH (implies --profile)")


def _make_recorder(
    args: argparse.Namespace, *, resuming: bool = False
) -> TraceRecorder | None:
    """A TraceRecorder when any telemetry flag is set, else None.

    When resuming, the trace file stays closed here: opening it fresh
    would wipe the pre-crash half of the stream. The resume path restores
    the recorder state from the checkpoint and opens the file at the
    checkpointed byte offset (see :mod:`repro.persist`)."""
    if args.trace_file is None and args.metrics_file is None:
        return None
    return TraceRecorder(trace_path=args.trace_file, defer_sink=resuming)


def _make_profiler(args: argparse.Namespace):
    """A PhaseProfiler when --profile/--profile-file is set, else None."""
    if getattr(args, "profile", False) or getattr(args, "profile_file", None):
        from .obs import PhaseProfiler

        return PhaseProfiler()
    return None


def _finish_telemetry(
    recorder: TraceRecorder | None,
    args: argparse.Namespace,
    *,
    profiler=None,
) -> None:
    """Close the trace file, write the metrics dump, print the summary
    table and the profile report. Runs in a ``finally`` so every telemetry
    output survives a mid-run exception."""
    if profiler is not None:
        report = profiler.report()
        logger.info("%s", report)
        if getattr(args, "profile_file", None):
            with open(args.profile_file, "w") as fh:
                fh.write(report + "\n")
            logger.info("profile report written to %s", args.profile_file)
    if recorder is None:
        return
    recorder.close()
    if args.trace_file:
        logger.info("trace written to %s (%d events)",
                    args.trace_file, recorder.num_events)
    if args.metrics_file:
        with open(args.metrics_file, "w") as fh:
            fh.write(metrics_to_text(recorder))
        logger.info("metrics written to %s", args.metrics_file)
    logger.info("%s", summary_table(recorder))


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {n}")
    return n


def _engine_spec(value: str) -> str:
    from .runtime import resolve_executor

    try:
        resolve_executor(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _add_executor(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--executor", type=_engine_spec, default="serial", metavar="SPEC",
        help="client-execution engine: 'serial' (default) — one process, "
             "each round trained as stacked programs of clients with equal "
             "batch width (the per-client loop's bytes; never wider than "
             "--population lazy:cache=N); "
             "'parallel[:N]' — N persistent worker processes "
             "(default: usable cores) exchanging models through shared "
             "memory, same results at lower wall-clock (a trailing "
             "'@shm' or '+shards=S' is accepted and changes nothing); "
             "'cohort[:M]' — M clients (default "
             "32) batched into one stacked tensor program, short batches "
             "zero-padded (byte-identical histories unless a shard is "
             "smaller than a batch)")


def _wire_spec(value: str) -> str:
    from .runtime.wire import parse_wire_spec

    try:
        parse_wire_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _add_wire(parser: argparse.ArgumentParser) -> None:
    from .runtime.wire import WIRE_CHOICES_HELP

    parser.add_argument(
        "--wire", type=_wire_spec, default=None, metavar="SPEC",
        help="compressed wire transport for client uploads: "
             f"{WIRE_CHOICES_HELP}. Uplink timelines and byte counters "
             "then follow the encoded (wire) sizes; 'raw' is "
             "byte-identical to omitting the flag")


def _add_population(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--population", default="eager", metavar="SPEC",
        help="how many clients stay live: every run pages its clients, "
             "building each from (seed, cid) the first time a round selects "
             "it; 'eager' (default) keeps every client it built; 'lazy' or "
             "'lazy:cache=N' keeps at most N (default 64) and parks the rest "
             "as snapshot blobs — byte-identical histories/traces, peak "
             "memory flat in total-client count (see repro.scale)")


def _add_persistence(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="snapshot the full run state into DIR (see --checkpoint-every); "
             "required for --resume")
    parser.add_argument(
        "--checkpoint-every", type=_positive_int, default=None, metavar="N",
        help="checkpoint every N completed rounds (needs --checkpoint-dir)")
    parser.add_argument(
        "--resume", action="store_true",
        help="continue from the latest complete checkpoint in "
             "--checkpoint-dir; the finished history/trace are byte-identical "
             "to an uninterrupted run")
    parser.add_argument(
        "--crash-after-round", type=_positive_int, default=None, metavar="N",
        help="fault injection: SIGKILL this process once N rounds have "
             "completed (CI crash-resume testing)")


def _add_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="content-addressed result cache: identical (workload, scheme, "
             "seed, rounds) runs are served from DIR instead of re-simulated")


def _make_cache(args: argparse.Namespace):
    if args.cache_dir is None:
        return None
    from .persist import ResultCache

    return ResultCache(args.cache_dir)


def build_parser() -> argparse.ArgumentParser:
    """Construct the `repro` argument parser (see module docstring)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one workload under one scheme")
    p_run.add_argument("--workload", required=True, choices=["cnn", "lstm", "wrn"])
    p_run.add_argument("--scheme", required=True)
    p_run.add_argument("--rounds", type=int, default=None)
    p_run.add_argument("--no-target-stop", action="store_true")
    p_run.add_argument("--json", metavar="PATH", default=None,
                       help="write the full round history as JSON")
    _add_common(p_run)
    _add_executor(p_run)
    _add_wire(p_run)
    _add_population(p_run)
    _add_telemetry(p_run)
    _add_persistence(p_run)
    _add_cache(p_run)

    p_cmp = sub.add_parser("compare", help="run several schemes head-to-head")
    p_cmp.add_argument("--workload", required=True, choices=["cnn", "lstm", "wrn"])
    p_cmp.add_argument("--schemes", nargs="+",
                       default=["fedavg", "fedprox", "fedada", "fedca"])
    p_cmp.add_argument("--rounds", type=int, default=None)
    _add_common(p_cmp)
    _add_executor(p_cmp)
    _add_wire(p_cmp)
    _add_population(p_cmp)
    _add_telemetry(p_cmp)
    _add_cache(p_cmp)

    p_rep = sub.add_parser("reproduce", help="regenerate one paper artefact")
    p_rep.add_argument("--artifact", required=True, choices=sorted(ARTIFACTS))
    p_rep.add_argument("--models", nargs="+", default=None,
                       choices=["cnn", "lstm", "wrn"],
                       help="models to run (default: cnn; the overhead "
                            "artefact: all three)")
    p_rep.add_argument("--rounds", type=int, default=None)
    _add_common(p_rep)

    p_ovh = sub.add_parser("overhead", help="§5.5 profiling-memory accounting")
    p_ovh.add_argument("--paper-arch", action="store_true")
    p_ovh.add_argument("--iterations", type=int, default=125)
    _add_sanitize(p_ovh)
    _add_log_level(p_ovh)

    return parser


def _run_spec(
    args: argparse.Namespace, scheme: str, *, stop_at_target: bool = True
) -> RunSpec:
    """The run that ``run``/``compare``'s flags describe."""
    return RunSpec(
        get_workload(args.workload, args.scale),
        scheme,
        rounds=args.rounds,
        stop_at_target=stop_at_target,
        seed=args.seed,
        wire=args.wire,
        engine=args.executor,
        population=args.population,
    )


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run` — train one workload under one scheme."""
    if args.resume and not args.checkpoint_dir:
        logger.error("--resume requires --checkpoint-dir")
        return 2
    if args.checkpoint_every and not args.checkpoint_dir:
        logger.error("--checkpoint-every requires --checkpoint-dir")
        return 2
    spec = _run_spec(args, args.scheme, stop_at_target=not args.no_target_stop)
    cfg = spec.workload
    recorder = _make_recorder(args, resuming=args.resume)
    profiler = _make_profiler(args)
    from .persist import CheckpointFormatError, CheckpointNotFoundError

    try:
        try:
            result = run_scheme(
                spec,
                recorder=recorder,
                profiler=profiler,
                cache=_make_cache(args),
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                resume=args.resume,
                crash_after_round=args.crash_after_round,
            )
        except (CheckpointNotFoundError, CheckpointFormatError) as exc:
            logger.error("cannot resume: %s", exc)
            return 2
        except SinkError as exc:
            logger.error("%s", exc)
            return 2
        hist = result.history
        tta = hist.time_to_accuracy(cfg.target_accuracy)
        logger.info(
            "%s on %s (%s): %d rounds, mean round %.2fs, final acc %.3f%s",
            result.scheme, args.workload, args.scale,
            hist.num_rounds, hist.mean_round_time(), hist.final_accuracy,
            f", target {cfg.target_accuracy} in {tta[0]:.1f}s" if tta else "",
        )
        if args.json:
            from .runtime import history_to_json

            with open(args.json, "w") as fh:
                fh.write(history_to_json(hist, indent=2))
            logger.info("history written to %s", args.json)
        return 0
    finally:
        _finish_telemetry(recorder, args, profiler=profiler)


def cmd_compare(args: argparse.Namespace) -> int:
    """`repro compare` — several schemes under identical conditions."""
    spec = _run_spec(args, args.schemes[0])
    cfg = spec.workload
    recorder = _make_recorder(args)
    profiler = _make_profiler(args)
    cache = _make_cache(args)
    try:
        results = [
            run_scheme(
                replace(spec, scheme=scheme),
                recorder=recorder, profiler=profiler, cache=cache,
            )
            for scheme in args.schemes
        ]
        rows = []
        for res in results:
            tta = res.history.time_to_accuracy(cfg.target_accuracy)
            rows.append(
                [
                    res.scheme,
                    f"{res.mean_round_time:.2f}",
                    tta[1] if tta else "—",
                    f"{tta[0]:.1f}" if tta else "—",
                    f"{res.history.final_accuracy:.3f}",
                ]
            )
        logger.info(
            "%s",
            format_table(
                ["Scheme", "Per-round (s)", "# Rounds", "Total time (s)",
                 "Final acc"],
                rows,
                title=f"{args.workload} ({args.scale}), "
                      f"target {cfg.target_accuracy}",
            ),
        )
        return 0
    finally:
        _finish_telemetry(recorder, args, profiler=profiler)


def cmd_reproduce(args: argparse.Namespace) -> int:
    """`repro reproduce` — regenerate one named paper artefact.

    Every flag the artefact's runner takes is forwarded; a flag set for a
    runner that does not take it exits 2, naming the flag. The figure
    runners (the ones with a ``scale``) get ``--models``/``--scale``/
    ``--seed`` at their defaults too; ``overhead`` keeps its own."""
    run_fn, fmt_fn = ARTIFACTS[args.artifact]
    takes = inspect.signature(run_fn).parameters
    figure = "scale" in takes
    models = args.models or ["cnn"]
    if "model" in takes:
        if len(models) > 1:
            logger.error("--models: %s draws one model, got %s", args.artifact, models)
            return 2
        model_param, models = "model", models[0]
    else:
        model_param, models = "models", tuple(models)
    flags = (
        ("--models", model_param, models, args.models is not None),
        ("--scale", "scale", args.scale, args.scale != _DEFAULT_SCALE),
        ("--seed", "seed", args.seed, args.seed != _DEFAULT_SEED),
        ("--rounds", "rounds", args.rounds, args.rounds is not None),
    )
    kwargs: dict = {}
    for flag, param, value, given in flags:
        if given and param not in takes:
            logger.error("%s: the %s artefact does not take it", flag, args.artifact)
            return 2
        if given or (figure and flag != "--rounds"):
            kwargs[param] = value
    logger.info("%s", fmt_fn(run_fn(**kwargs)))
    return 0


def cmd_overhead(args: argparse.Namespace) -> int:
    """`repro overhead` — §5.5 profiling-memory accounting."""
    logger.info("%s", format_overhead(run_overhead(paper_arch=args.paper_arch,
                                                   iterations=args.iterations)))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(getattr(args, "log_level", "info"))
    sanitizing = getattr(args, "sanitize", False) or os.environ.get(
        "REPRO_SANITIZE", ""
    ).lower() in ("1", "true", "yes", "on")
    if sanitizing:
        sanitize.enable()
        logger.info("runtime determinism sanitizer enabled")
    handlers = {
        "run": cmd_run,
        "compare": cmd_compare,
        "reproduce": cmd_reproduce,
        "overhead": cmd_overhead,
    }
    status = handlers[args.command](args)
    return status or (sanitize.report() if sanitizing else 0)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
