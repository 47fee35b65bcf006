"""Determinism checkers: DET001 (global RNG), DET002 (wall clock),
DET003 (unordered set iteration).

These encode the repo's oldest invariant — a run is a pure function of
its configuration.  Serial, parallel and cohort executors are pinned
byte-identical on histories and JSONL traces (PR 1/4/6), which only
holds while every random draw flows through a seeded
``np.random.Generator``, simulated time never mixes with wall time, and
no aggregation/serialization path iterates an unordered ``set``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Checker, FileContext
from .findings import Finding, Severity

#: Legacy global-state functions of ``numpy.random`` (the module-level
#: mtrand singleton).  Seeded ``Generator`` methods are untouched.
_NP_LEGACY = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random_integers",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "uniform",
        "normal",
        "standard_normal",
        "beta",
        "binomial",
        "chisquare",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "gumbel",
        "hypergeometric",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "negative_binomial",
        "pareto",
        "poisson",
        "power",
        "rayleigh",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_t",
        "triangular",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

#: Stdlib ``random`` module functions that draw from the global state.
_STDLIB_RANDOM = frozenset(
    {
        "seed",
        "random",
        "randint",
        "randrange",
        "getrandbits",
        "randbytes",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "triangular",
        "betavariate",
        "expovariate",
        "gammavariate",
        "gauss",
        "lognormvariate",
        "normalvariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "getstate",
        "setstate",
    }
)

#: Wall-clock reading functions (monotonic included: any wall-derived
#: quantity leaking into simulated state breaks cross-engine identity).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Files that own wall-clock measurement by design.  Everything they
#: measure stays outside the deterministic byte stream (phase gauges,
#: transport broadcast staging cost).
_DET002_ALLOWLIST = ("repro/obs/profile.py", "repro/runtime/transport.py")


class GlobalRandomChecker(Checker):
    """DET001 — all randomness must flow through a seeded Generator."""

    code = "DET001"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                canonical = ctx.canonical(node)
                if (
                    canonical is not None
                    and canonical.startswith("numpy.random.")
                    and canonical.rsplit(".", 1)[1] in _NP_LEGACY
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"global-state RNG call {canonical!r}; draw from a "
                        "seeded np.random.Generator instead",
                    )
            if isinstance(node, ast.Call):
                canonical = ctx.canonical(node.func)
                if canonical is None:
                    continue
                if (
                    canonical.startswith("random.")
                    and canonical.rsplit(".", 1)[1] in _STDLIB_RANDOM
                    and self._head_is_random_import(ctx, node.func)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"stdlib global-state RNG call {canonical!r}; use a "
                        "seeded np.random.Generator instead",
                    )
                elif (
                    canonical == "numpy.random.default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "default_rng() without a seed draws fresh OS entropy; "
                        "thread an explicit seed through instead",
                        severity=Severity.INFO,
                    )

    @staticmethod
    def _head_is_random_import(ctx: FileContext, func: ast.expr) -> bool:
        """Avoid flagging ``random.x()`` on a local variable that merely
        shadows the module name: the head must come from an import."""
        if isinstance(func, ast.Name):  # ``from random import shuffle``
            return func.id in ctx.imports
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and ctx.imports.get(node.id) == "random"


class WallClockChecker(Checker):
    """DET002 — wall-clock reads only in the measurement allowlist."""

    code = "DET002"
    repro_src_only = False  # benchmarks and tests are scanned too

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        posix = ctx.path.as_posix()
        if any(posix.endswith(suffix) for suffix in _DET002_ALLOWLIST):
            return
        for node in ast.walk(ctx.tree):
            canonical: str | None = None
            if isinstance(node, ast.Attribute):
                canonical = ctx.canonical(node)
            elif isinstance(node, ast.Name) and node.id in ctx.imports:
                # ``from time import perf_counter`` — flag uses, which
                # ast.walk sees as Name nodes (the import itself is not).
                canonical = ctx.imports[node.id]
            if canonical in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock read {canonical!r} outside the allowlist "
                    f"({', '.join(_DET002_ALLOWLIST)}); simulated time must "
                    "never mix with wall time",
                )


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


#: ``f(<set>)`` forms whose output order follows the set's hash order.
_ORDER_SENSITIVE_BUILTINS = frozenset(
    {"list", "tuple", "enumerate", "iter", "reversed"}
)

#: consumers whose result does not depend on iteration order — a
#: comprehension fed straight into one of these is deterministic even
#: when it iterates a set (``sorted(c for c in codes)``).
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sorted", "min", "max", "any", "all", "len", "set", "frozenset"}
)


class SetIterationChecker(Checker):
    """DET003 — no raw iteration over unordered sets."""

    code = "DET003"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for scope in self._scopes(ctx.tree):
            set_vars = self._single_assignment_sets(scope)
            exempt: set[int] = set()
            for node in self._walk_scope(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in _ORDER_INSENSITIVE_CONSUMERS
                    and node.args
                    and isinstance(
                        node.args[0],
                        (ast.ListComp, ast.SetComp, ast.GeneratorExp),
                    )
                ):
                    exempt.add(id(node.args[0]))
            for node in self._walk_scope(scope):
                if isinstance(node, ast.For):
                    yield from self._flag(ctx, node.iter, set_vars)
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                       ast.GeneratorExp)):
                    if id(node) in exempt:
                        continue
                    for gen in node.generators:
                        yield from self._flag(ctx, gen.iter, set_vars)
                elif isinstance(node, ast.Call):
                    target = None
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id in _ORDER_SENSITIVE_BUILTINS
                        and node.args
                    ):
                        target = node.args[0]
                    elif (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                        and node.args
                    ):
                        target = node.args[0]
                    if target is not None:
                        yield from self._flag(ctx, target, set_vars)

    # -- helpers -------------------------------------------------------
    @staticmethod
    def _scopes(tree: ast.Module) -> list[ast.AST]:
        """The module plus every function — set-variable tracking is
        per-scope so a name means one thing throughout."""
        return [tree] + [
            n
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    @staticmethod
    def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested functions (they
        are their own scopes)."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _single_assignment_sets(self, scope: ast.AST) -> set[str]:
        assigned_set: set[str] = set()
        poisoned: set[str] = set()
        for node in self._walk_scope(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_set_expr(node.value):
                        if target.id in assigned_set:
                            poisoned.add(target.id)
                        assigned_set.add(target.id)
                    else:
                        poisoned.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    if _is_set_expr(node.value):
                        assigned_set.add(node.target.id)
                    else:
                        poisoned.add(node.target.id)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                poisoned.add(node.target.id)
        return assigned_set - poisoned

    def _flag(
        self, ctx: FileContext, expr: ast.expr, set_vars: set[str]
    ) -> Iterator[Finding]:
        if _is_set_expr(expr):
            yield self.finding(
                ctx,
                expr,
                "iterating an unordered set; wrap it in sorted(...) so the "
                "order is deterministic",
            )
        elif isinstance(expr, ast.Name) and expr.id in set_vars:
            yield self.finding(
                ctx,
                expr,
                f"iterating set variable {expr.id!r}; wrap it in sorted(...) "
                "so the order is deterministic",
            )
