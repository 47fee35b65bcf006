"""Tests for the static linter (``tools/reprolint``: the AST checkers, the
pragma/engine machinery, the CLI front end and the repo self-scan) and
for the runtime sanitizer (:mod:`repro.sanitize`).

Checker fixtures are tiny source trees written under ``tmp_path``; a file
is "repro source" iff its path contains ``src/repro``, so fixtures can
exercise both scopes — and ship their own ``obs/events.py`` /
``obs/metrics.py`` to prove the registry resolution reads the scanned
tree rather than the installed package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import sanitize
from tools.reprolint.cli import CHECKERS, KNOWN_CODES, lint_paths
from tools.reprolint.findings import Severity
from tools.reprolint.pragmas import extract_pragmas

REPO = Path(__file__).resolve().parents[1]


def _write_tree(root: Path, files: dict[str, str]) -> None:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")


def _lint(tmp_path: Path, files: dict[str, str]):
    _write_tree(tmp_path, files)
    return lint_paths([tmp_path], base=tmp_path)


def _codes(result) -> list[str]:
    return [f.code for f in result.findings]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_parse_and_suppress(self):
        pragmas, errors = extract_pragmas(
            "x = 1  # reprolint: allow[DET002] wall time by design\n",
            frozenset({"DET002"}),
        )
        assert not errors
        assert pragmas[1].suppresses("DET002")
        assert not pragmas[1].suppresses("DET001")
        assert pragmas[1].used == {"DET002"}

    def test_multiple_codes_one_reason(self):
        pragmas, errors = extract_pragmas(
            "y()  # reprolint: allow[DET001,MET001] two rules, one site\n",
            frozenset({"DET001", "MET001"}),
        )
        assert not errors
        assert pragmas[1].codes == frozenset({"DET001", "MET001"})

    def test_missing_reason_is_an_error(self):
        pragmas, errors = extract_pragmas(
            "x = 1  # reprolint: allow[DET002]\n", frozenset({"DET002"})
        )
        assert not pragmas
        assert "justification" in errors[0].message

    def test_unknown_code_is_an_error(self):
        _, errors = extract_pragmas(
            "x = 1  # reprolint: allow[ZZZ999] whatever\n",
            frozenset({"DET002"}),
        )
        assert errors and "unknown" in errors[0].message

    def test_malformed_pragma_is_an_error(self):
        _, errors = extract_pragmas(
            "x = 1  # reprolint: allowDET002 oops\n", frozenset({"DET002"})
        )
        assert errors and "malformed" in errors[0].message

    def test_pragma_text_inside_string_ignored(self):
        pragmas, errors = extract_pragmas(
            's = "# reprolint: allow[DET002] not a comment"\n',
            frozenset({"DET002"}),
        )
        assert not pragmas and not errors


# ----------------------------------------------------------------------
# DET001 — global-state RNG
# ----------------------------------------------------------------------
class TestDET001:
    def test_np_legacy_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            x = np.random.rand(3)
        """})
        assert _codes(result) == ["DET001"]

    def test_from_import_alias_resolved(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            from numpy import random as npr
            npr.shuffle([1, 2])
        """})
        assert _codes(result) == ["DET001"]

    def test_stdlib_random_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import random
            def pick(xs):
                return random.choice(xs)
        """})
        assert _codes(result) == ["DET001"]

    def test_local_variable_shadowing_random_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def pick(random, xs):
                return random.choice(xs)
        """})
        assert _codes(result) == []

    def test_seeded_generator_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.integers(0, 10)
            rng.shuffle([1, 2])
        """})
        assert _codes(result) == []

    def test_unseeded_default_rng_is_info(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            rng = np.random.default_rng()
        """})
        assert _codes(result) == ["DET001"]
        assert result.findings[0].severity == Severity.INFO

    def test_outside_repro_src_not_checked(self, tmp_path):
        result = _lint(tmp_path, {"plain.py": """
            import numpy as np
            x = np.random.rand(3)
        """})
        assert _codes(result) == []

    def test_pragma_suppresses(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            x = np.random.rand(3)  # reprolint: allow[DET001] fixture needs it
        """})
        assert _codes(result) == []
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# DET002 — wall clock
# ----------------------------------------------------------------------
class TestDET002:
    def test_time_time_fires_in_repro_src(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import time
            def now():
                return time.time()
        """})
        assert _codes(result) == ["DET002"]

    def test_fires_outside_repro_src_too(self, tmp_path):
        result = _lint(tmp_path, {"scripts/x.py": """
            import time
            t = time.perf_counter()
        """})
        assert _codes(result) == ["DET002"]

    def test_from_import_use_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            from time import perf_counter
            def now():
                return perf_counter()
        """})
        assert _codes(result) == ["DET002"]

    def test_datetime_now_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import datetime
            stamp = datetime.datetime.now
        """})
        assert _codes(result) == ["DET002"]

    def test_allowlisted_modules_are_clean(self, tmp_path):
        files = {
            "src/repro/obs/profile.py": """
                import time
                t0 = time.perf_counter()
            """,
            "src/repro/runtime/transport.py": """
                import time
                t0 = time.monotonic()
            """,
        }
        result = _lint(tmp_path, files)
        assert _codes(result) == []

    def test_pragma_suppresses(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import time
            t = time.time()  # reprolint: allow[DET002] display only
        """})
        assert _codes(result) == []
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# DET003 — unordered set iteration
# ----------------------------------------------------------------------
class TestDET003:
    def test_for_over_set_literal_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            for x in {1, 2, 3}:
                print(x)
        """})
        assert _codes(result) == ["DET003"]

    def test_for_over_set_variable_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(items):
                ids = {i.key for i in items}
                out = []
                for i in ids:
                    out.append(i)
                return out
        """})
        assert _codes(result) == ["DET003"]

    def test_sorted_wrapping_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(items):
                ids = set(items)
                return [i for i in sorted(ids)]
        """})
        assert _codes(result) == []

    def test_list_of_set_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(items):
                ids = set(items)
                return list(ids)
        """})
        assert _codes(result) == ["DET003"]

    def test_reassigned_variable_not_tracked(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(items):
                ids = set(items)
                ids = sorted(ids)
                return [i for i in ids]
        """})
        assert _codes(result) == []

    def test_order_insensitive_consumer_exempt(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(codes):
                bad = set(codes)
                return sorted(c for c in bad)
        """})
        assert _codes(result) == []


# ----------------------------------------------------------------------
# MET001 / MET002 — metrics registry discipline
# ----------------------------------------------------------------------
class TestMetricsCheckers:
    def test_registered_counter_clean_unregistered_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec):
                rec.counter("repro_rounds_total")
                rec.counter("repro_nope_total")
        """})
        assert _codes(result) == ["MET001"]
        assert "repro_nope_total" in result.findings[0].message

    def test_counter_without_total_suffix_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec):
                rec.counter("repro_rounds")
        """})
        assert _codes(result) == ["MET001"]

    def test_fixture_tree_registry_is_honoured(self, tmp_path):
        files = {
            "src/repro/obs/metrics.py": """
                KNOWN_COUNTERS = frozenset({"my_thing_total"})
            """,
            "src/repro/mod.py": """
                def f(rec):
                    rec.counter("my_thing_total")
            """,
        }
        result = _lint(tmp_path, files)
        assert _codes(result) == []

    def test_labelled_counter_uses_base_name(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec, cid):
                rec.counter("repro_client_rounds_total{client=" + str(cid) + "}")
        """})
        # Dynamic concatenation is unresolvable statically — the runtime
        # sanitizer owns that case; a resolvable labelled literal is fine.
        assert _codes(result) == []

    def test_seconds_counter_fires_met002(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec):
                rec.counter("repro_phase_seconds")
        """})
        assert sorted(_codes(result)) == ["MET001", "MET002"]

    def test_total_gauge_fires_met002(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec):
                rec.gauge("repro_rounds_total", 3)
        """})
        assert _codes(result) == ["MET002"]

    def test_registered_gauge_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec):
                rec.gauge("repro_sim_time_seconds", 1.5)
        """})
        assert _codes(result) == []


# ----------------------------------------------------------------------
# EVT001 — event-kind schema
# ----------------------------------------------------------------------
class TestEVT001:
    def test_undeclared_kind_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(rec, t):
                rec.emit("totally.bogus", sim_time=t)
        """})
        assert _codes(result) == ["EVT001"]

    def test_declared_kind_clean(self, tmp_path):
        files = {
            "src/repro/obs/events.py": """
                EVENT_KINDS = ("custom.kind",)
            """,
            "src/repro/mod.py": """
                def f(rec, t):
                    rec.emit("custom.kind", sim_time=t)
                    rec.span("custom.kind", sim_start=t, sim_end=t + 1)
            """,
        }
        result = _lint(tmp_path, files)
        assert _codes(result) == []

    def test_worker_side_event_dict_checked(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            def f(t):
                return {"kind": "totally.bogus", "sim_time": t, "fields": {}}
        """})
        assert _codes(result) == ["EVT001"]

    def test_plain_dict_with_kind_key_only_ignored(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            d = {"kind": "whatever"}
        """})
        assert _codes(result) == []


# ----------------------------------------------------------------------
# FORK001 — pre-fork thread discipline
# ----------------------------------------------------------------------
class TestFORK001:
    def test_module_level_lock_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import threading
            _lock = threading.Lock()
        """})
        assert _codes(result) == ["FORK001"]

    def test_function_scoped_lock_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            from threading import Lock
            def make():
                return Lock()
        """})
        assert _codes(result) == []

    def test_thread_outside_allowlist_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/runtime/mod.py": """
            import threading
            def spawn(fn):
                t = threading.Thread(target=fn, daemon=True)
                t.start()
                return t
        """})
        assert _codes(result) == ["FORK001"]

    def test_thread_in_allowlisted_module_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/obs/sinks.py": """
            import threading
            def spawn(fn):
                return threading.Thread(target=fn, daemon=True)
        """})
        assert _codes(result) == []

    def test_pragma_suppresses(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import threading
            _lock = threading.Lock()  # reprolint: allow[FORK001] never held across fork
        """})
        assert _codes(result) == []
        assert result.suppressed == 1


# ----------------------------------------------------------------------
# SHM001 — shared-memory pairing
# ----------------------------------------------------------------------
class TestSHM001:
    def test_unpaired_create_fires(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            from multiprocessing.shared_memory import SharedMemory
            def make(n):
                return SharedMemory(create=True, size=n)
        """})
        assert _codes(result) == ["SHM001"]
        assert "unlink" in result.findings[0].message

    def test_fully_paired_module_is_clean(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import atexit
            from multiprocessing.shared_memory import SharedMemory

            def make(n):
                shm = SharedMemory(create=True, size=n)
                atexit.register(lambda: destroy(shm))
                return shm

            def destroy(shm):
                shm.close()
                shm.unlink()
        """})
        assert _codes(result) == []

    def test_unlink_pairs_with_the_created_segment(self, tmp_path):
        # An arena whose destroy() closes but no longer unlinks its own
        # segment, in a module that unlinks a probe segment elsewhere.
        arena = """
            import atexit
            from multiprocessing import shared_memory

            def available():
                probe = shared_memory.SharedMemory(create=True, size=64)
                probe.close()
                probe.unlink()

            class Arena:
                def __init__(self, size):
                    self.shm = shared_memory.SharedMemory(create=True, size=size)
                    atexit.register(self.destroy)

                def destroy(self):
                    self.shm.close()
        """
        result = _lint(tmp_path / "leaky", {"src/repro/mod.py": arena})
        assert _codes(result) == ["SHM001"]
        assert "an unlink() on self.shm" in result.findings[0].message
        paired = arena + "        self.shm.unlink()\n"
        assert _codes(_lint(tmp_path / "paired", {"src/repro/mod.py": paired})) == []

    def test_attach_without_create_not_checked(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            from multiprocessing.shared_memory import SharedMemory
            def attach(name):
                return SharedMemory(name=name)
        """})
        assert _codes(result) == []


# ----------------------------------------------------------------------
# Engine: meta-findings, filtering, severity floors
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_is_lnt002(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": "def broken(:\n"})
        assert _codes(result) == ["LNT002"]
        assert result.findings[0].severity == Severity.ERROR

    def test_unused_pragma_is_lnt003(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            x = 1  # reprolint: allow[DET001] nothing to suppress here
        """})
        assert _codes(result) == ["LNT003"]

    def test_severity_floor(self, tmp_path):
        result = _lint(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            rng = np.random.default_rng()
        """})
        assert result.worst_at_or_above(Severity.WARNING) == []
        assert len(result.worst_at_or_above(Severity.INFO)) == 1

    def test_all_required_checkers_registered(self):
        assert [cls.code for cls in CHECKERS] == [
            "DET001", "DET002", "DET003", "MET001", "MET002",
            "FORK001", "SHM001", "EVT001",
        ]
        assert KNOWN_CODES == {cls.code for cls in CHECKERS} | {
            "LNT001", "LNT002", "LNT003"
        }


# ----------------------------------------------------------------------
# Self-scan: the repo holds its own invariants
# ----------------------------------------------------------------------
class TestSelfScan:
    def test_repo_is_finding_free_at_default_severity(self):
        paths = [REPO / "src", REPO / "tests", REPO / "benchmarks", REPO / "tools"]
        result = lint_paths([p for p in paths if p.is_dir()], base=REPO)
        reported = result.worst_at_or_above(Severity.WARNING)
        assert reported == [], "\n".join(f.render() for f in reported)
        assert result.files_scanned > 100
        # Every suppression in the tree carries a justified pragma.
        assert result.suppressed > 0


# ----------------------------------------------------------------------
# CLI front end
# ----------------------------------------------------------------------
class TestLintCLI:
    def _run(self, *argv, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *argv],
            cwd=cwd or REPO,
            env=_env(),
            capture_output=True,
            text=True,
        )

    def test_exit_one_on_findings(self, tmp_path):
        _write_tree(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            x = np.random.rand(3)
        """})
        proc = self._run(str(tmp_path))
        assert proc.returncode == 1
        assert "DET001" in proc.stdout
        assert "reprolint:" in proc.stdout

    def test_exit_zero_on_clean_tree(self, tmp_path):
        _write_tree(tmp_path, {"src/repro/mod.py": "x = 1\n"})
        proc = self._run(str(tmp_path))
        assert proc.returncode == 0

    def test_exit_two_on_bad_severity(self, tmp_path):
        proc = self._run("--severity", "loud", str(tmp_path))
        assert proc.returncode == 2

    def test_exit_two_on_missing_path(self, tmp_path):
        proc = self._run(str(tmp_path / "nope"))
        assert proc.returncode == 2

    def test_json_format(self, tmp_path):
        _write_tree(tmp_path, {"src/repro/mod.py": """
            import numpy as np
            x = np.random.rand(3)
        """})
        proc = self._run("--format", "json", str(tmp_path))
        doc = json.loads(proc.stdout)
        assert proc.returncode == 1
        assert doc["files_scanned"] == 1
        assert doc["findings"][0]["code"] == "DET001"


# ----------------------------------------------------------------------
# Runtime sanitizer
# ----------------------------------------------------------------------
class TestSanitizer:
    def test_legacy_np_random_trapped_and_restored(self):
        sanitize.enable()
        try:
            with pytest.raises(sanitize.SanitizeError, match="DET001"):
                np.random.rand(3)
            with pytest.raises(sanitize.SanitizeError):
                np.random.seed(0)
            # Seeded Generators stay fully functional.
            rng = np.random.default_rng(7)
            assert 0 <= rng.integers(0, 10) < 10
        finally:
            sanitize.disable()
        assert np.random.rand(1).shape == (1,)

    def test_enable_disable_idempotent(self):
        sanitize.enable()
        sanitize.enable()
        assert sanitize.is_active()
        sanitize.disable()
        sanitize.disable()
        assert not sanitize.is_active()
        assert np.random.rand(1).shape == (1,)

    def test_shm_leak_tracking(self):
        # Resolve the class through the module at call time, like
        # runtime/transport.py does — a from-import taken before enable()
        # would bypass the patch.
        from multiprocessing import shared_memory

        sanitize.enable()
        try:
            shm = shared_memory.SharedMemory(create=True, size=64)
            assert sanitize.leaked_segments() == [shm.name]
            # Attaching to an existing segment is not a create.
            peer = shared_memory.SharedMemory(name=shm.name)
            peer.close()
            assert sanitize.leaked_segments() == [shm.name]
            assert sanitize.report() == sanitize.VIOLATION_EXIT
            shm.close()
            shm.unlink()
            assert sanitize.leaked_segments() == []
            assert sanitize.report() == 0
        finally:
            sanitize.disable()

    def test_counter_discipline_enforced(self):
        from repro.obs import TraceRecorder

        sanitize.enable()
        try:
            rec = TraceRecorder()
            rec.counter("repro_rounds_total")
            rec.counter("repro_client_rounds_total{client=3}", 2)
            with pytest.raises(sanitize.SanitizeError, match="pre-registered"):
                rec.counter("repro_bogus_total")
            with pytest.raises(sanitize.SanitizeError, match="_total"):
                rec.counter("repro_phase_seconds")
            with pytest.raises(sanitize.SanitizeError, match="monotone"):
                rec.counter("repro_rounds_total", -1)
            rec.close()
        finally:
            sanitize.disable()

    def test_gauge_discipline_enforced(self):
        from repro.obs import TraceRecorder

        sanitize.enable()
        try:
            rec = TraceRecorder()
            rec.gauge("repro_sim_time_seconds", 4.2)
            with pytest.raises(sanitize.SanitizeError, match="counters"):
                rec.gauge("repro_rounds_total", 1)
            with pytest.raises(sanitize.SanitizeError, match="pre-registered"):
                rec.gauge("repro_mystery_seconds", 1)
            rec.close()
        finally:
            sanitize.disable()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only check")
    def test_fork_with_rogue_thread_recorded(self):
        import threading

        sanitize.enable()
        try:
            done = threading.Event()
            rogue = threading.Thread(
                target=done.wait, name="rogue-fixture-thread", daemon=True
            )
            rogue.start()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child exits immediately
                os._exit(0)
            os.waitpid(pid, 0)
            done.set()
            rogue.join(timeout=5)
            assert ("rogue-fixture-thread",) in sanitize.fork_violations()
            assert sanitize.report() == sanitize.VIOLATION_EXIT
        finally:
            sanitize.disable()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only check")
    def test_allowlisted_thread_names_pass_the_fork_hook(self):
        import threading

        sanitize.enable()
        try:
            done = threading.Event()
            okay = threading.Thread(
                target=done.wait, name="repro-trace-flusher-7", daemon=True
            )
            okay.start()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child exits immediately
                os._exit(0)
            os.waitpid(pid, 0)
            done.set()
            okay.join(timeout=5)
            assert sanitize.fork_violations() == []
            assert sanitize.report() == 0
        finally:
            sanitize.disable()


# ----------------------------------------------------------------------
# Sanitized runs are byte-identical (the "passive" guarantee)
# ----------------------------------------------------------------------
EXECUTOR_FLAGS = {
    "serial": [],
    "parallel": ["--executor", "parallel:2"],
    "cohort": ["--executor", "cohort:4"],
}


class TestSanitizedByteIdentity:
    def _run(self, tmp_path: Path, tag: str, flags: list[str]):
        hist = tmp_path / f"{tag}.json"
        trace = tmp_path / f"{tag}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run",
             "--workload", "cnn", "--scheme", "fedca",
             "--rounds", "2", "--no-target-stop",
             "--json", str(hist), "--trace-file", str(trace),
             "--log-level", "warning", *flags],
            cwd=REPO,
            env=_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return hist.read_bytes(), trace.read_bytes()

    @pytest.mark.parametrize("engine", sorted(EXECUTOR_FLAGS))
    def test_history_and_trace_unchanged(self, tmp_path, engine):
        flags = EXECUTOR_FLAGS[engine]
        plain = self._run(tmp_path, f"{engine}-plain", flags)
        sanitized = self._run(
            tmp_path, f"{engine}-san", flags + ["--sanitize"]
        )
        assert plain[0] == sanitized[0], "history diverged under --sanitize"
        assert plain[1] == sanitized[1], "trace diverged under --sanitize"

    def test_env_variable_enables_sanitizer(self, tmp_path):
        env = _env()
        env["REPRO_SANITIZE"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "overhead",
             "--iterations", "1"],
            cwd=REPO,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "sanitizer enabled" in proc.stdout + proc.stderr


class TestSanitizedExitStatus:
    """What the fork and shm traps record fails a sanitized CLI run."""

    def _run(self, code: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)],
            cwd=REPO,
            env=_env(),
            capture_output=True,
            text=True,
        )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="fork-only check")
    def test_rogue_thread_at_fork_fails_the_run(self):
        proc = self._run("""
            import sys
            import threading

            from repro import cli

            stop = threading.Event()
            threading.Thread(
                target=stop.wait, name="rogue-fixture-thread", daemon=True
            ).start()
            sys.exit(cli.main([
                "run", "--workload", "cnn", "--scheme", "fedavg",
                "--rounds", "1", "--no-target-stop", "--executor", "parallel:2",
                "--sanitize", "--log-level", "warning",
            ]))
        """)
        assert proc.returncode == sanitize.VIOLATION_EXIT, proc.stderr
        assert "rogue-fixture-thread" in proc.stderr

    def test_leaked_segment_fails_the_run(self):
        proc = self._run("""
            import sys
            from multiprocessing import shared_memory

            from repro import cli, sanitize

            sanitize.enable()
            shm = shared_memory.SharedMemory(create=True, size=64)
            status = cli.main(["overhead", "--iterations", "1", "--sanitize"])
            shm.close()
            shm.unlink()
            sys.exit(status)
        """)
        assert proc.returncode == sanitize.VIOLATION_EXIT, proc.stderr
        assert "leaked shared-memory segment" in proc.stderr
