"""Runner and command line: ``python -m tools.reprolint``.

Usage, from the repository root with ``src`` importable::

    PYTHONPATH=src python -m tools.reprolint src tests benchmarks tools
    PYTHONPATH=src python -m tools.reprolint --severity error src
    PYTHONPATH=src python -m tools.reprolint --format json src > findings.json

Exit codes: 0 — clean at the reporting floor; 1 — findings at or above
the floor; 2 — usage error (bad path or severity).

Findings print one per line in the fixed format
``path:line:col: SEVERITY CODE message`` followed by a one-line
summary; ``--format json`` emits a single JSON document instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import Checker, FileContext
from .determinism import GlobalRandomChecker, SetIterationChecker, WallClockChecker
from .findings import Finding, Severity
from .lifecycle import ForkDisciplineChecker, ShmPairingChecker
from .metrics import CounterRegistryChecker, EventKindChecker, WallClockMirrorChecker

#: The eight rules, each run over every file its scope covers.
CHECKERS: tuple[type[Checker], ...] = (
    GlobalRandomChecker,
    WallClockChecker,
    SetIterationChecker,
    CounterRegistryChecker,
    WallClockMirrorChecker,
    ForkDisciplineChecker,
    ShmPairingChecker,
    EventKindChecker,
)

#: Every code a pragma may name: the checkers plus the meta-codes
#: (LNT001 bad pragma, LNT002 unparseable file, LNT003 unused pragma).
KNOWN_CODES = frozenset(cls.code for cls in CHECKERS) | {"LNT001", "LNT002", "LNT003"}

#: scanned by default when invoked with no paths from a repo root.
_DEFAULT_PATHS = ("src", "tests", "benchmarks", "tools")

#: Directories never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".mypy_cache", ".ruff_cache", ".venv"}


@dataclass
class LintResult:
    """Aggregate outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    suppressed: int = 0

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    def worst_at_or_above(self, floor: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity >= floor]


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (deterministic order)."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        elif path.is_dir():
            candidates = sorted(
                p
                for p in path.rglob("*.py")
                if not (_SKIP_DIRS & set(p.parts))
            )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for cand in candidates:
            resolved = cand.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield cand


def _rel_display(path: Path, base: Path | None) -> str:
    try:
        return path.resolve().relative_to((base or Path.cwd()).resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _lint_file(path: Path, base: Path | None) -> tuple[list[Finding], int]:
    """Lint one file; returns ``(findings, suppressed_count)``."""
    rel = _rel_display(path, base)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return (
            [Finding(rel, 1, 0, "LNT002", Severity.ERROR, f"unreadable: {exc}")],
            0,
        )
    ctx, findings = FileContext.build(path, rel, source, KNOWN_CODES)
    suppressed = 0
    if ctx is not None:
        for cls in CHECKERS:
            if cls.repro_src_only and not ctx.in_repro_src:
                continue
            for finding in cls().check(ctx):
                pragma = ctx.pragmas.get(finding.line)
                if pragma is not None and pragma.suppresses(finding.code):
                    suppressed += 1
                else:
                    findings.append(finding)
        for pragma in ctx.pragmas.values():
            unused = sorted(pragma.codes - pragma.used)
            if unused:
                findings.append(
                    Finding(
                        rel,
                        pragma.line,
                        0,
                        "LNT003",
                        Severity.WARNING,
                        f"pragma suppresses nothing here: {unused}",
                    )
                )
    return findings, suppressed


def lint_paths(paths: Iterable[Path], *, base: Path | None = None) -> LintResult:
    """Lint every Python file under ``paths``; finding paths are shown
    relative to ``base`` (default: the working directory)."""
    result = LintResult()
    for path in iter_python_files(paths):
        findings, suppressed = _lint_file(path, base)
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files_scanned += 1
    result.findings.sort(key=Finding.sort_key)
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description=(
            "AST-based invariant checker for the repro runtime: seeded-RNG "
            "and sim-clock discipline, metrics/event registries, pre-fork "
            "thread rules, shared-memory pairing. See DESIGN.md §14."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src tests benchmarks "
        "tools, whichever exist under the current directory)",
    )
    parser.add_argument(
        "--severity",
        default="warning",
        metavar="LEVEL",
        help="reporting floor: info, warning (default) or error; findings "
        "below the floor are counted but not reported and never fail the run",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=("text", "json"),
        help="output format (default: text)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        floor = Severity.parse(args.severity)
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    paths = [Path(p) for p in args.paths] or [
        Path(p) for p in _DEFAULT_PATHS if Path(p).is_dir()
    ]
    try:
        result = lint_paths(paths)
    except FileNotFoundError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    reported = result.worst_at_or_above(floor)
    below = len(result.findings) - len(reported)
    if args.fmt == "json":
        print(
            json.dumps(
                {
                    "findings": [f.as_dict() for f in reported],
                    "files_scanned": result.files_scanned,
                    "suppressed": result.suppressed,
                    "below_floor": below,
                },
                indent=2,
            )
        )
        return 1 if reported else 0

    for finding in reported:
        print(finding.render())
    counts = ", ".join(
        f"{result.count(sev)} {sev.name.lower()}"
        for sev in (Severity.ERROR, Severity.WARNING, Severity.INFO)
    )
    print(
        f"reprolint: {len(reported)} finding(s) at >= {floor.name.lower()} "
        f"({counts}) across {result.files_scanned} file(s); "
        f"{result.suppressed} suppressed by pragma"
        + (f"; {below} below the reporting floor" if below else "")
    )
    return 1 if reported else 0
