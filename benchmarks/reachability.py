"""Reachability sweep: which ``src/repro`` functions does no run enter?

Runs the repository's entry points under a call-event profiler and lists
every function under ``src/repro`` that none of them entered::

    PYTHONPATH=src python benchmarks/reachability.py            # writes REACHABILITY.md
    PYTHONPATH=src python benchmarks/reachability.py --check    # ... and exits 1 on a gap

The entry points:

* the byte-identity matrix (``identity_matrix.py --check``: 42 engine ×
  population × wire cells and four crash → resume cells);
* every ``repro reproduce`` artefact at micro scale, ``compare``, and
  ``overhead`` with and without ``--paper-arch``;
* sanitized, profiled, cached, evicting and ``parallel:2`` topk runs;
* ``benchmarks/e2e/run.py --smoke``.

Every run is a subprocess whose ``PYTHONPATH`` starts with a generated
``sitecustomize.py``: it installs ``sys.setprofile`` and
``threading.setprofile`` and writes the code objects it saw when the
process exits, including through ``os._exit`` (how a parallel worker
leaves). A process killed by a signal loses its record, so crash-only
paths are listed in ``KEEP`` with the test that covers them.

A function no run entered must be deleted or listed in ``KEEP`` with a
one-line reason and the test or caller that justifies it; abstract and
interface stubs are kept without a listing. ``--check`` exits 1 when a
function is unreached and unlisted, or when a ``KEEP`` entry names a
function that no longer exists. The report (``--out``) is deterministic.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: Unreached functions that stay, as ``"path::qualname": (reason, justified by)``.
_REF = "the per-client reference loop every engine's bytes are held to"
_NULL = "no-op default `NullRecorder` inherits; call sites skip it behind `enabled`"
_ANALYSIS = "trace-side Fig. 8 reconstruction"
_GN = "the BN-vs-GN ablation model, `WideResNet(norm=\"group\")`"
_GN_BY = "`benchmarks/cohort_bench.py --workloads wrn-gn` (CI); `tests/test_nn_norm_rnn.py::TestGroupNorm2d`"
_MULTI = "the multi-seed headline bench's driver"
_MULTI_BY = "`benchmarks/test_headline_multiseed.py`; `tests/test_experiments.py::TestMultiSeed`"
_PROX = "FedProx's proximal step in the reference loop"
_PROX_BY = "`tests/test_algorithms.py::TestFedProx::test_prox_shrinks_drift`"
_CLIENT_BY = "`tests/test_algorithms.py::TestFedAvgClientRound`; `benchmarks/e2e/layers.py` wraps `SimClient.train_step`"
KEEP: dict[str, tuple[str, str]] = {
    "repro/algorithms/base.py::Strategy.client_round": (
        _REF, "`tests/test_executor.py::TestDefaultEngineIsTheReference`; `benchmarks/e2e/layers.py` wraps it"),
    "repro/algorithms/extensions.py::FedCAAdaptiveBatch.__init__": (
        "extension scheme the CLI does not register", "`benchmarks/test_extension_baselines.py`; `tests/test_extensions.py`"),
    "repro/algorithms/extensions.py::FedCAAdaptiveBatch.step_plan": (
        "extension scheme the CLI does not register", "`benchmarks/test_extension_baselines.py`; `tests/test_extensions.py`"),
    "repro/experiments/configs.py::_small": (
        "the `--scale small` preset (the sweep runs micro)",
        "`tests/test_experiments.py::TestConfigs::test_all_presets_resolve`"),
    "repro/experiments/configs.py::_paper": (
        "the `--scale paper` preset (the sweep runs micro)",
        "`tests/test_experiments.py::TestConfigs::test_all_presets_resolve`"),
    "repro/experiments/multiseed.py::MultiSeedSummary.mean_time_to_target": (_MULTI, _MULTI_BY),
    "repro/experiments/multiseed.py::MultiSeedSummary.hit_rate": (_MULTI, _MULTI_BY),
    "repro/experiments/multiseed.py::MultiSeedSummary.mean_round_time": (_MULTI, _MULTI_BY),
    "repro/experiments/multiseed.py::run_multiseed": (_MULTI, _MULTI_BY),
    "repro/experiments/multiseed.py::format_multiseed": (_MULTI, _MULTI_BY),
    "repro/sanitize.py::is_active": (
        "sanitizer toggle for tests (a CLI run keeps it on for the process)",
        "`tests/test_lint.py::TestSanitizer::test_enable_disable_idempotent`"),
    "repro/sanitize.py::disable": (
        "sanitizer toggle for tests (a CLI run keeps it on for the process)",
        "`tests/test_lint.py::TestSanitizer`"),
    "repro/sanitize.py::fork_violations": (
        "reads what the fork trap recorded; a clean run records nothing",
        "`tests/test_lint.py::TestSanitizer::test_fork_with_rogue_thread_recorded`"),
    "repro/sanitize.py::_install_np_trap.<locals>._trap": (
        "fires only on a legacy `np.random` call, which a clean tree never makes",
        "`tests/test_lint.py::TestSanitizer::test_legacy_np_random_trapped_and_restored`"),
    "repro/nn/layers.py::Dropout._draw": (
        "Dropout's `p > 0` path; deleting it shifts WRN's `Sequential` indices and blob bytes (deferred)",
        "`tests/test_cohort.py::TestCohortLayers::test_dropout_draws_each_members_own_stream`"),
    "repro/nn/module.py::Module.load_rng_state": (
        "restores a dropout layer's RNG: only models with `p > 0` Dropout have one",
        "`tests/test_nn_layers.py` (`load_rng_state`); `tests/test_cohort.py::TestCohortExecutor::test_unbatchable_model_falls_back_serially`"),
    "repro/nn/layers.py::Sequential.__len__": (
        "container protocol", "`tests/test_nn_layers.py::TestSequential::test_iteration_order`"),
    "repro/nn/module.py::Module.named_buffers": (
        "the dotted buffer walk stacked-vs-serial buffer checks read; a narrowed"
        " `CohortModel` keeps no dict of it, since its buffer views move",
        "`tests/test_cohort.py::TestCohortLayers::test_stacked_batchnorm_is_its_serial_members_in_bytes`;"
        " `tests/test_layout.py`"),
    "repro/nn/module.py::Module.parameters": (
        "the cached parameter list that 30+ test gradient comparisons read",
        "`tests/test_nn_layers.py::TestModule::test_parameters_list_is_cached_and_matches_named_parameters`"),
    "repro/nn/norm.py::GroupNorm2d.__init__": (_GN, _GN_BY),
    "repro/nn/norm.py::GroupNorm2d.forward": (_GN, _GN_BY),
    "repro/nn/norm.py::GroupNorm2d.backward": (_GN, _GN_BY),
    "repro/nn/optim.py::SGD.zero_grad": (
        _REF + "; `benchmarks/e2e/layers.py` wraps `SGD`",
        "`tests/test_nn_models_optim.py::TestSGD::test_zero_grad_delegates`"),
    "repro/nn/optim.py::ProxSGD.__init__": (_PROX, _PROX_BY),
    "repro/nn/optim.py::ProxSGD.set_anchor": (_PROX, _PROX_BY),
    "repro/nn/optim.py::ProxSGD._effective_grad": (_PROX, _PROX_BY),
    "repro/obs/analysis.py::_as_dicts": (_ANALYSIS, "`tests/test_obs.py::TestTraceReconstruction`"),
    "repro/obs/analysis.py::validate_trace_complete": (_ANALYSIS, "`tests/test_obs.py::TestTraceReconstruction`"),
    "repro/obs/analysis.py::early_stop_iterations": (_ANALYSIS, "`tests/test_obs.py::TestTraceReconstruction`"),
    "repro/obs/analysis.py::eager_iterations": (_ANALYSIS, "`tests/test_obs.py::TestTraceReconstruction`"),
    "repro/obs/analysis.py::client_iteration_counts": (_ANALYSIS, "`tests/test_obs.py::TestTraceReconstruction`"),
    "repro/obs/export.py::events_to_jsonl": (
        "the in-memory trace's JSONL form, compared against trace files",
        "`tests/test_obs.py`; `tests/test_shard.py`; `tests/test_cohort.py`"),
    "repro/obs/profile.py::PhaseProfiler.round_breakdowns": (
        "per-round laps for benches", "`benchmarks/parallel_bench.py`; `tests/test_profile.py::TestPhaseSpans`"),
    "repro/obs/profile.py::NullPhaseProfiler.report": (
        "what the report says when profiling is off",
        "`tests/test_profile.py::TestNullProfiler::test_null_report_explains_how_to_enable`"),
    "repro/obs/recorder.py::Recorder.emit": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.span": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.merge_client_trace": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.counter": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.gauge": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.close": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.__enter__": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::Recorder.__exit__": (_NULL, "`tests/test_obs.py::TestNullRecorder`"),
    "repro/obs/recorder.py::TraceRecorder.events": (
        "reads the in-memory ring (a recorder with a trace file raises)", "`tests/test_obs.py`"),
    "repro/persist/cache.py::ResultCache.__len__": (
        "entry count", "`tests/test_persist.py::TestResultCache`"),
    "repro/persist/snapshot.py::_wide_len": (
        "the snapshot codec's form for ints outside int64",
        "`tests/test_snapshot.py::test_round_trip_over_generated_trees`"),
    "repro/runtime/client.py::SimClient.load_global": (_REF, _CLIENT_BY),
    "repro/runtime/client.py::SimClient.train_step": (_REF, _CLIENT_BY),
    "repro/runtime/client.py::SimClient.local_update": (_REF, _CLIENT_BY),
    "repro/runtime/executor.py::Executor.aggregate_round": (
        "caller-less stub the frozen benchmark harness wraps by name", "`benchmarks/e2e/layers.py`"),
    "repro/runtime/executor.py::SerialExecutor.run_round": (
        _REF, "`tests/test_executor.py::TestDefaultEngineIsTheReference`; `benchmarks/cohort_bench.py`"),
    "repro/runtime/parallel.py::default_workers": (
        "worker count when none is given",
        "`benchmarks/parallel_bench.py`; `benchmarks/scale_bench.py`; `tests/test_executor.py::TestSpecGrammar`"),
    "repro/runtime/parallel.py::ParallelExecutor._degrade": (
        "fallback-only path: a worker killed by a signal loses its record",
        "`tests/test_executor.py::TestParallelLifecycle::test_worker_death_falls_back_to_serial`"),
    "repro/runtime/simulator.py::FederatedSimulator.__enter__": (
        "context-manager form", "`tests/test_executor.py` and `tests/test_cohort.py` (`with make_sim(...)`)"),
    "repro/runtime/simulator.py::FederatedSimulator.__exit__": (
        "context-manager form", "`tests/test_executor.py` and `tests/test_cohort.py` (`with make_sim(...)`)"),
    "repro/runtime/transport.py::shm_available": (
        "platform probe for benches and skip marks",
        "`benchmarks/parallel_bench.py`; `benchmarks/test_parallel_speedup.py`"),
    "repro/runtime/transport.py::ShmTransport.detach": (
        "crash-only: `ParallelExecutor.run_round` copies decoded results out before a dead pool's arenas go",
        "`tests/test_executor.py::TestParallelLifecycle::test_worker_death_mid_chunk_falls_back_to_serial`"),
    "repro/runtime/transport.py::ShmTransport.__del__": (
        "finalizer for a transport nobody closed",
        "`tests/test_executor.py::TestFallbackWithoutFork::test_bind_degrades_when_fork_missing`"),
    "repro/scale/cache.py::LazyClientPopulation.__iter__": (
        "refusal guard: without it Python would iterate through `__getitem__` and build every client",
        "`tests/test_scale.py::TestLazyClientPopulation::test_iteration_refused`"),
    "repro/scale/population.py::SubsampledShards.shard_size": (
        "the resume blob check's bound for a subsampled population (no sweep run resumes one)",
        "`tests/test_scale.py`; `benchmarks/scale_bench.py`"),
    "repro/sysmodel/speed.py::SpeedTrace.slowdown_at": (
        "`FedCAAdaptiveBatch.step_plan`'s speed read (see above)", "`tests/test_sysmodel.py`; `tests/test_extensions.py`"),
}

HOOK = r'''
import atexit
import os
import sys
import tempfile
import threading

_dir = os.environ.get("REPRO_REACH_DIR")
if _dir:
    _seen = set()
    _prefix = os.environ["REPRO_REACH_SRC"]

    def _hook(frame, event, arg, _seen=_seen):
        if event == "call":
            _seen.add(frame.f_code)

    def _flush():
        rows = sorted({
            f"{c.co_filename}\t{c.co_firstlineno}\t{c.co_name}"
            for c in list(_seen) if c.co_filename.startswith(_prefix)
        })
        fd, _ = tempfile.mkstemp(dir=_dir, suffix=".txt")
        with os.fdopen(fd, "w") as fh:
            fh.write("\n".join(rows))

    _real_exit = os._exit

    def _exit(code):
        _flush()
        _real_exit(code)

    os._exit = _exit
    atexit.register(_flush)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

class Run(NamedTuple):
    name: str
    argv: list[str]
    #: Exit statuses that count as success.
    ok: tuple[int, ...] = (0,)


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *args, "--log-level", "warning"]


def runs(tmp: Path, jobs: int) -> tuple[Run, list[list[Run]]]:
    """Every entry point the sweep drives (``tmp`` holds their outputs):
    the e2e smoke, which runs alone (it counts ``/dev/shm`` segments, so a
    concurrent parallel run would read as its leak), then chains that run
    in order, concurrently with each other. The identity matrix, the
    longest, is first so it starts first."""
    from repro.algorithms.registry import STRATEGY_NAMES
    from repro.cli import ARTIFACTS

    small = ["--workload", "cnn", "--scheme", "fedca", "--rounds", "3",
             "--no-target-stop", "--seed", "3"]
    cache = str(tmp / "cache")
    out = [
        Run("identity-matrix", [sys.executable, str(ROOT / "benchmarks/identity_matrix.py"),
                                "--check", "--jobs", str(jobs)]),
        Run("compare", _cli("compare", "--workload", "cnn", "--rounds", "2",
                            "--schemes", *STRATEGY_NAMES)),
        Run("overhead", _cli("overhead")),
        Run("overhead-paper-arch", _cli("overhead", "--paper-arch")),
        Run("sanitized", _cli("run", *small, "--sanitize", "--executor", "parallel:2",
                              "--trace-file", str(tmp / "sanitized.jsonl"))),
        Run("profiled", _cli("run", *small, "--profile", "--profile-file",
                             str(tmp / "profile.txt"), "--metrics-file",
                             str(tmp / "metrics.prom"), "--trace-file",
                             str(tmp / "trace.jsonl"), "--checkpoint-dir",
                             str(tmp / "ckpt"), "--checkpoint-every", "1")),
        Run("lazy", _cli("run", *small, "--population", "lazy:cache=4",
                         "--json", str(tmp / "lazy.json"))),
        Run("parallel-topk", _cli("run", *small, "--executor", "parallel:2",
                                  "--wire", "topk:0.1")),
    ]
    chains = [[run] for run in out]
    # The second cached run must find the first's entry, so it runs after it.
    chains.append([
        Run("cached-miss", _cli("run", *small, "--cache-dir", cache)),
        Run("cached-hit", _cli("run", *small, "--cache-dir", cache)),
    ])
    chains += [[Run(f"reproduce-{name}", _cli("reproduce", "--artifact", name))]
               for name in sorted(ARTIFACTS)]
    solo = Run("e2e-smoke", [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
                             "--smoke", "--out", str(tmp / "e2e.json")])
    return solo, chains


class Function(NamedTuple):
    path: str  # relative to src/
    line: int  # first decorator or ``def`` line, as in ``co_firstlineno``
    name: str
    qualname: str
    stub: bool

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef, cls: ast.ClassDef | None) -> bool:
    """An abstract or interface method: ``@abstractmethod``, a method of a
    ``Protocol``, or a body that only raises ``NotImplementedError``."""
    if cls is None:
        return False
    if any(ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list):
        return True
    if any(ast.unparse(b).endswith("Protocol") for b in cls.bases):
        return True
    body = node.body[1:] if ast.get_docstring(node) is not None else node.body
    return (
        len(body) == 1
        and isinstance(body[0], ast.Raise)
        and "NotImplementedError" in ast.unparse(body[0])
    )


def functions() -> list[Function]:
    """Every ``def`` under ``src/repro``, with a unique qualified name."""
    found: list[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        seen: dict[str, int] = {}

        def visit(node: ast.AST, prefix: str, cls: ast.ClassDef | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.", child)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    for d in child.decorator_list:
                        text = ast.unparse(d)
                        if text.endswith((".setter", ".deleter")):
                            qual += "." + text.rsplit(".", 1)[1]
                    seen[qual] = seen.get(qual, 0) + 1
                    if seen[qual] > 1:
                        qual += f"#{seen[qual]}"
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found.append(Function(rel, first, child.name, qual, _is_stub(child, cls)))
                    visit(child, f"{qual}.<locals>.", None)
                else:
                    visit(child, prefix, cls)

        visit(tree, "", None)
    return found


def sweep(jobs: int) -> tuple[set[tuple[str, int, str]], list[str]]:
    """Run every entry point; returns the entered ``(path, line, name)``
    triples and the names of runs that failed."""
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp_name:
        tmp = Path(tmp_name)
        records = tmp / "records"
        records.mkdir()
        hook = tmp / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(hook), str(SRC)]),
            "REPRO_REACH_DIR": str(records),
            "REPRO_REACH_SRC": str(PACKAGE) + os.sep,
        }
        solo, chains = runs(tmp, jobs)
        failed: list[str] = []

        def go(run: Run) -> None:
            proc = subprocess.run(run.argv, cwd=ROOT, env=env, capture_output=True, text=True)
            status = "ok" if proc.returncode in run.ok else f"FAILED ({proc.returncode})"
            print(f"  {run.name:<28} {status}", file=sys.stderr, flush=True)
            if proc.returncode not in run.ok:
                failed.append(run.name)
                tail = (proc.stdout + proc.stderr)[-3000:]
                print(textwrap.indent(tail, "    | "), file=sys.stderr)

        go(solo)
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(lambda chain: [go(run) for run in chain], chains))
        entered: set[tuple[str, int, str]] = set()
        for rec in records.iterdir():
            for row in rec.read_text(encoding="utf-8").splitlines():
                filename, line, name = row.split("\t")
                rel = Path(filename).resolve().relative_to(SRC).as_posix()
                entered.add((rel, int(line), name))
        return entered, failed


def report(
    funcs: list[Function], entered: set[tuple[str, int, str]]
) -> tuple[str, list[Function], list[str]]:
    """The Markdown report, the unreached unlisted functions, and the stale
    ``KEEP`` entries."""
    unreached = [f for f in funcs if (f.path, f.line, f.name) not in entered]
    keys = {f.key for f in funcs}
    stale = sorted(k for k in KEEP if k not in keys)
    reached_keep = sorted(keys.intersection(KEEP) - {f.key for f in unreached})
    missing = [f for f in unreached if f.key not in KEEP and not f.stub]
    kept = [f for f in unreached if f.key in KEEP]
    stubs = [f for f in unreached if f.stub and f.key not in KEEP]
    lines = [
        "# Reachability report",
        "",
        "Written by `benchmarks/reachability.py` (see its docstring for the runs).",
        f"`src/repro` defines {len(funcs)} functions; the sweep entered "
        f"{len(funcs) - len(unreached)}. Every function it did not enter is listed "
        "below with the reason it stays.",
        "",
        f"## Kept, with a reason ({len(kept)})",
        "",
        "| function | reason | justified by |",
        "|---|---|---|",
    ]
    lines += [f"| `{f.key}` | {KEEP[f.key][0]} | {KEEP[f.key][1]} |" for f in kept]
    lines += [
        "",
        f"## Abstract and interface stubs ({len(stubs)})",
        "",
        "`@abstractmethod`, a `Protocol` method, or a body that only raises "
        "`NotImplementedError`: subclasses override them.",
        "",
    ]
    lines += [f"- `{f.key}`" for f in stubs]
    if missing:
        lines += ["", f"## Unreached and unlisted ({len(missing)})", ""]
        lines += [f"- `{f.key}` (line {f.line})" for f in missing]
    if reached_keep:
        lines += ["", "## Listed but entered by this sweep", ""]
        lines += [f"- `{k}`" for k in reached_keep]
    return "\n".join(lines) + "\n", missing, stale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached, unlisted function or a stale KEEP entry")
    parser.add_argument("--jobs", type=int, default=2, help="concurrent runs (default 2)")
    parser.add_argument("--out", default=str(ROOT / "REACHABILITY.md"),
                        help="report path (default REACHABILITY.md at the repository root)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    entered, failed = sweep(args.jobs)
    text, missing, stale = report(functions(), entered)
    Path(args.out).write_text(text, encoding="utf-8")
    print(f"report written to {args.out}", file=sys.stderr)
    for f in missing:
        print(f"unreached and unlisted: {f.key} ({f.path}:{f.line})", file=sys.stderr)
    for key in stale:
        print(f"KEEP names a function that no longer exists: {key}", file=sys.stderr)
    if failed:
        print(f"runs failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed or (args.check and (missing or stale)) else 0


if __name__ == "__main__":
    sys.exit(main())
