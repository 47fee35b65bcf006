"""Core engine for ``repro.lint``: file contexts, checker registry, runner.

The linter parses each file once into a :class:`FileContext` (AST +
import-alias map + module constants + pragma table) and hands it to
every registered :class:`Checker` whose scope matches.  Checkers are
pure functions over the context — they never import or execute the code
under analysis.

Repo-layout awareness
---------------------
Several checkers validate names against registries that live in the
scanned tree itself (``obs/events.py`` → ``EVENT_KINDS``,
``obs/metrics.py`` → ``KNOWN_COUNTERS``/``KNOWN_GAUGES``).  The engine
locates those files relative to the ``src/repro`` root of the file being
linted and parses them *statically*; when the scanned tree has no such
files (checker fixture snippets in tests), it falls back to the
installed :mod:`repro.obs` registries.  Fixtures can therefore ship
their own ``obs/events.py``/``obs/metrics.py`` to prove the allowlists
are honoured.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .findings import Finding, Severity
from .pragmas import Pragma, extract_pragmas

__all__ = [
    "Checker",
    "FileContext",
    "LintResult",
    "register",
    "all_checkers",
    "checker_codes",
    "lint_file",
    "lint_paths",
    "iter_python_files",
    "dotted_name",
]

#: Directories never descended into during discovery.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".mypy_cache", ".ruff_cache", ".venv"}


# ----------------------------------------------------------------------
# File context
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FileContext:
    """Everything the checkers need to know about one parsed file."""

    path: Path
    rel: str
    source: str
    tree: ast.Module
    pragmas: dict[int, Pragma]
    #: local alias → canonical dotted module/object path
    imports: dict[str, str] = field(default_factory=dict)
    #: module-level ``NAME = "literal"`` string constants
    str_constants: dict[str, str] = field(default_factory=dict)
    #: id() of every node nested inside a function/lambda body
    _function_nodes: set[int] = field(default_factory=set)

    @property
    def in_repro_src(self) -> bool:
        """Whether this file belongs to the runtime package under lint
        (a path containing ``src/repro``)."""
        return "src/repro" in self.path.as_posix()

    # -- resolution helpers -------------------------------------------
    def canonical(self, node: ast.AST) -> str | None:
        """Dotted path of a Name/Attribute chain with the head alias
        resolved through the import map (``np.random.rand`` →
        ``numpy.random.rand``)."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.imports.get(head)
        if base is None:
            return dotted
        return f"{base}.{rest}" if rest else base

    def resolve_str(self, node: ast.AST) -> str | None:
        """A string literal, same-file string constant, or — for an
        ``a if c else b`` of resolvable halves — None (callers use
        :meth:`resolve_str_options` for that)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.str_constants.get(node.id)
        return None

    def resolve_str_options(self, node: ast.AST) -> list[str]:
        """Every statically resolvable string value of ``node`` (handles
        conditional expressions); empty when unresolvable."""
        if isinstance(node, ast.IfExp):
            return self.resolve_str_options(node.body) + self.resolve_str_options(
                node.orelse
            )
        value = self.resolve_str(node)
        return [value] if value is not None else []

    def at_module_level(self, node: ast.AST) -> bool:
        """True when ``node`` executes at import time (module or class
        body — anything outside a function/lambda)."""
        return id(node) not in self._function_nodes

    # -- construction --------------------------------------------------
    @classmethod
    def build(
        cls, path: Path, rel: str, source: str, known_codes: frozenset[str]
    ) -> "tuple[FileContext | None, list[Finding]]":
        """Parse ``source``; returns (context, meta-findings).  A syntax
        error yields ``(None, [LNT002 finding])``."""
        pragmas, pragma_errors = extract_pragmas(source, known_codes)
        meta = [
            Finding(rel, err.line, err.col, "LNT001", Severity.WARNING, err.message)
            for err in pragma_errors
        ]
        try:
            tree = ast.parse(source, filename=rel)
        except SyntaxError as exc:
            meta.append(
                Finding(
                    rel,
                    exc.lineno or 1,
                    (exc.offset or 1) - 1,
                    "LNT002",
                    Severity.ERROR,
                    f"file does not parse: {exc.msg}",
                )
            )
            return None, meta
        ctx = cls(path=path, rel=rel, source=source, tree=tree, pragmas=pragmas)
        ctx._index(tree)
        return ctx, meta

    def _index(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.partition(".")[0]] = (
                        alias.name if alias.asname else alias.name.partition(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative imports are not resolvable statically
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                for child in ast.walk(node):
                    if child is not node:
                        self._function_nodes.add(id(child))
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                self.str_constants[stmt.targets[0].id] = stmt.value.value


# ----------------------------------------------------------------------
# Repo-registry resolution (EVENT_KINDS / KNOWN_COUNTERS / KNOWN_GAUGES)
# ----------------------------------------------------------------------
_registry_cache: dict[tuple[str, str], frozenset[str] | None] = {}


def _repro_root(path: Path) -> Path | None:
    """The ``.../src/repro`` directory this file lives under, if any."""
    parts = path.resolve().parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i] == "repro" and parts[i - 1] == "src":
            return Path(*parts[: i + 1])
    return None


def _literal_names(node: ast.AST) -> frozenset[str] | None:
    """Evaluate a tuple/list/set literal — or ``frozenset({...})`` /
    ``set([...])`` call — of string constants."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set", "tuple")
        and len(node.args) == 1
    ):
        node = node.args[0]
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return None
    if isinstance(value, (tuple, list, set, frozenset)) and all(
        isinstance(v, str) for v in value
    ):
        return frozenset(value)
    return None


def _parse_registry(module_path: Path, symbol: str) -> frozenset[str] | None:
    if not module_path.is_file():
        return None
    try:
        tree = ast.parse(module_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for stmt in tree.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == symbol:
                value = stmt.value if isinstance(stmt, ast.Assign) else stmt.value
                assert value is not None
                return _literal_names(value)
    return None


def _registry_for(ctx: FileContext, relfile: str, symbol: str) -> frozenset[str]:
    """Find ``symbol`` in ``<src/repro>/<relfile>`` next to the linted
    file, falling back to the installed ``repro`` package."""
    root = _repro_root(ctx.path)
    key = (str(root) if root else "", symbol)
    if key in _registry_cache:
        cached = _registry_cache[key]
        if cached is not None:
            return cached
    names: frozenset[str] | None = None
    if root is not None:
        names = _parse_registry(root / relfile, symbol)
    if names is None:  # fixture trees without obs/: use the real registry
        from repro import obs

        names = frozenset(getattr(obs, symbol))
    _registry_cache[key] = names
    return names


def event_kinds_for(ctx: FileContext) -> frozenset[str]:
    return _registry_for(ctx, "obs/events.py", "EVENT_KINDS")


def known_counters_for(ctx: FileContext) -> frozenset[str]:
    return _registry_for(ctx, "obs/metrics.py", "KNOWN_COUNTERS")


# ----------------------------------------------------------------------
# Checker base + registry
# ----------------------------------------------------------------------
class Checker:
    """One invariant, one code.  Subclasses implement :meth:`check`."""

    #: unique id, e.g. ``DET001`` (three letters + three digits)
    code: str = "XXX000"
    #: one-line rule statement for ``--list-checkers``
    name: str = ""
    #: default severity of this checker's findings
    severity: Severity = Severity.ERROR
    #: restrict to files under ``src/repro`` (False = every scanned file)
    repro_src_only: bool = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST | None,
        message: str,
        *,
        line: int | None = None,
        col: int | None = None,
        severity: Severity | None = None,
    ) -> Finding:
        return Finding(
            path=ctx.rel,
            line=line if line is not None else getattr(node, "lineno", 1),
            col=col if col is not None else getattr(node, "col_offset", 0),
            code=self.code,
            severity=severity if severity is not None else self.severity,
            message=message,
        )


_REGISTRY: dict[str, type[Checker]] = {}
_BUILTINS_LOADED = False


def register(cls: type[Checker]) -> type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if cls.code in _REGISTRY and _REGISTRY[cls.code] is not cls:
        raise ValueError(f"duplicate checker code {cls.code!r}")
    _REGISTRY[cls.code] = cls
    return cls


def _load_builtins() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        from . import determinism, lifecycle, metrics  # noqa: F401

        _BUILTINS_LOADED = True


def all_checkers() -> dict[str, type[Checker]]:
    """Registered checkers by code (loads the built-in modules once)."""
    _load_builtins()
    return dict(sorted(_REGISTRY.items()))


def checker_codes() -> frozenset[str]:
    """Every suppressible code: checkers plus the LNT meta-codes."""
    return frozenset(all_checkers()) | {"LNT001", "LNT002", "LNT003"}


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
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


def lint_file(
    path: Path,
    *,
    checkers: Iterable[Checker] | None = None,
    base: Path | None = None,
    report_unused_pragmas: bool = True,
) -> tuple[list[Finding], int]:
    """Lint one file; returns ``(findings, suppressed_count)``."""
    active = list(checkers) if checkers is not None else [
        cls() for cls in all_checkers().values()
    ]
    rel = _rel_display(path, base)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return (
            [Finding(rel, 1, 0, "LNT002", Severity.ERROR, f"unreadable: {exc}")],
            0,
        )
    ctx, findings = FileContext.build(path, rel, source, checker_codes())
    suppressed = 0
    if ctx is not None:
        for checker in active:
            if checker.repro_src_only and not ctx.in_repro_src:
                continue
            for finding in checker.check(ctx):
                pragma = ctx.pragmas.get(finding.line)
                if pragma is not None and pragma.suppresses(finding.code):
                    suppressed += 1
                else:
                    findings.append(finding)
        if report_unused_pragmas:
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
    findings.sort(key=Finding.sort_key)
    return findings, suppressed


def lint_paths(
    paths: Iterable[Path],
    *,
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
    base: Path | None = None,
    progress: Callable[[Path], None] | None = None,
) -> LintResult:
    """Lint every Python file under ``paths``.

    ``select``/``ignore`` filter by checker code.  Unused-pragma
    reporting (LNT003) only runs on unfiltered scans — a pragma for a
    deselected checker is not "unused".
    """
    available = all_checkers()
    unknown = (set(select or ()) | set(ignore or ())) - checker_codes()
    if unknown:
        raise ValueError(f"unknown checker code(s): {sorted(unknown)}")
    chosen = [
        cls()
        for code, cls in available.items()
        if (select is None or code in select)
        and (ignore is None or code not in ignore)
    ]
    filtered = select is not None or ignore is not None
    result = LintResult()
    for path in iter_python_files(paths):
        if progress is not None:
            progress(path)
        findings, suppressed = lint_file(
            path,
            checkers=chosen,
            base=base,
            report_unused_pragmas=not filtered,
        )
        if filtered:
            findings = [
                f
                for f in findings
                if (select is None or f.code in select or f.code.startswith("LNT"))
                and (ignore is None or f.code not in ignore)
            ]
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files_scanned += 1
    result.findings.sort(key=Finding.sort_key)
    return result
