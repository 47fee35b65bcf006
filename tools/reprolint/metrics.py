"""Telemetry-discipline checkers: MET001/MET002 (metrics registry) and
EVT001 (event-kind schema).

The PR-3 resume oracle compares recorder *counters* between an
uninterrupted run and a crash-resumed one, so counters must be monotone
deterministic series — and every wall-clock mirror must be a gauge
(PR-7's ``repro_phase_seconds`` rule).  The trace schema is closed: an
event kind nobody declared in ``obs/events.py`` is invisible to
``obs.analysis`` and breaks cross-engine trace identity silently.

Names are validated against the registries in the scanned tree itself
(``obs/metrics.py`` / ``obs/events.py``), falling back to the installed
``repro.obs`` for fixture snippets.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Checker, FileContext, event_kinds_for, known_counters_for
from .findings import Finding


def _base(name: str) -> str:
    return name.split("{", 1)[0]


def _literal_metric_args(
    ctx: FileContext, call: ast.Call, method: str
) -> Iterator[tuple[str, ast.AST]]:
    """Resolvable metric-name strings at a ``.counter()``/``.gauge()``
    call site (dynamic names are the sanitizer's job, not the linter's)."""
    if (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == method
        and call.args
    ):
        for name in ctx.resolve_str_options(call.args[0]):
            yield name, call.args[0]


class CounterRegistryChecker(Checker):
    """MET001 — counters end ``_total`` and are pre-registered."""

    code = "MET001"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        known = known_counters_for(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for name, arg in _literal_metric_args(ctx, node, "counter"):
                base = _base(name)
                if not base.endswith("_total"):
                    yield self.finding(
                        ctx,
                        arg,
                        f"counter {base!r} must end '_total' "
                        "(Prometheus monotone-series convention)",
                    )
                elif base not in known:
                    yield self.finding(
                        ctx,
                        arg,
                        f"counter {base!r} is not pre-registered in "
                        "obs/metrics.py KNOWN_COUNTERS",
                    )


class WallClockMirrorChecker(Checker):
    """MET002 — wall-clock mirrors are gauges, never counters."""

    code = "MET002"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for name, arg in _literal_metric_args(ctx, node, "counter"):
                if _base(name).endswith("_seconds"):
                    yield self.finding(
                        ctx,
                        arg,
                        f"wall-clock series {_base(name)!r} recorded as a "
                        "counter; wall time is nondeterministic, so it must "
                        "be a gauge (resume oracle)",
                    )
            for name, arg in _literal_metric_args(ctx, node, "gauge"):
                if _base(name).endswith("_total"):
                    yield self.finding(
                        ctx,
                        arg,
                        f"monotone series {_base(name)!r} recorded as a "
                        "gauge; _total series must be counters",
                    )


class EventKindChecker(Checker):
    """EVT001 — every emitted event kind is declared in obs/events.py."""

    code = "EVT001"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        kinds = event_kinds_for(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("emit", "span")
                    and node.args
                ):
                    for kind in ctx.resolve_str_options(node.args[0]):
                        if kind not in kinds:
                            yield self.finding(
                                ctx,
                                node.args[0],
                                f"event kind {kind!r} is not declared in "
                                "obs/events.py EVENT_KINDS",
                            )
            elif isinstance(node, ast.Dict):
                yield from self._check_event_dict(ctx, node, kinds)

    def _check_event_dict(
        self, ctx: FileContext, node: ast.Dict, kinds: frozenset[str]
    ) -> Iterator[Finding]:
        """Worker-side events are plain dicts with 'kind' and 'sim_time'
        keys (see ClientRoundResult.trace); validate those too."""
        keys = {
            key.value
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
        if "kind" not in keys or "sim_time" not in keys:
            return
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "kind"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
                and value.value not in kinds
            ):
                yield self.finding(
                    ctx,
                    value,
                    f"event kind {value.value!r} is not declared in "
                    "obs/events.py EVENT_KINDS",
                )
