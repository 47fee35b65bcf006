"""Process-lifecycle checkers: FORK001 (pre-fork thread discipline) and
SHM001 (shared-memory create/unlink pairing).

The parallel executor forks persistent workers (PR 1); a thread — or a
lock held by one — that exists when the pool forks is silently copied
into every child in whatever state it happened to be in (the
trace-writer-flusher × fork-pool hazard).  Shared-memory arenas
(PR 4) are kernel objects that outlive the process unless explicitly
unlinked, so every ``SharedMemory(create=True)`` site must live in a
module that also closes, unlinks, and registers exit-time cleanup.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Checker, FileContext, dotted_name, register
from .findings import Finding, Severity

#: threading primitives whose creation is governed by FORK001.
_THREADING_PRIMITIVES = frozenset(
    {
        "Thread",
        "Timer",
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
    }
)

#: modules audited for fork interaction — the only places allowed to
#: start threads (the trace writer's daemon flusher, whose fork behaviour
#: is documented in DESIGN.md §14).
_THREAD_ALLOWLIST = ("repro/obs/sinks.py",)


@register
class ForkDisciplineChecker(Checker):
    """FORK001 — no threads/locks reachable before the pool forks."""

    code = "FORK001"
    name = (
        "no threading.Thread/Lock creation at import time, and thread "
        "starts only in fork-audited modules (obs/sinks.py)"
    )
    severity = Severity.ERROR
    repro_src_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        posix = ctx.path.as_posix()
        allowlisted = any(posix.endswith(s) for s in _THREAD_ALLOWLIST)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            primitive = self._threading_primitive(ctx, node.func)
            if primitive is None:
                continue
            if ctx.at_module_level(node):
                yield self.finding(
                    ctx,
                    node,
                    f"threading.{primitive} created at import time — it "
                    "exists before any worker pool forks and is inherited "
                    "by every child in an arbitrary state",
                )
            elif primitive in ("Thread", "Timer") and not allowlisted:
                yield self.finding(
                    ctx,
                    node,
                    f"threading.{primitive} started outside the fork-audited "
                    f"allowlist ({', '.join(_THREAD_ALLOWLIST)}); a live "
                    "thread at fork time deadlocks or corrupts the workers",
                )

    @staticmethod
    def _threading_primitive(ctx: FileContext, func: ast.expr) -> str | None:
        canonical = ctx.canonical(func)
        if canonical is None:
            return None
        module, _, attr = canonical.rpartition(".")
        if module == "threading" and attr in _THREADING_PRIMITIVES:
            return attr
        return None


@register
class ShmPairingChecker(Checker):
    """SHM001 — shm segments are closed, unlinked and cleaned at exit."""

    code = "SHM001"
    name = (
        "every SharedMemory(create=True) needs paired close()/unlink() "
        "and an atexit/finalizer registration in the same module"
    )
    severity = Severity.ERROR
    repro_src_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        create_sites: list[ast.Call] = []
        has_close = has_unlink = has_exit_hook = False
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "close":
                    has_close = True
                elif node.func.attr == "unlink":
                    has_unlink = True
            canonical = ctx.canonical(node.func)
            if canonical in ("atexit.register", "weakref.finalize"):
                has_exit_hook = True
            if self._is_shm_create(node):
                create_sites.append(node)
        if not create_sites:
            return
        missing = [
            requirement
            for present, requirement in (
                (has_close, "a close() call"),
                (has_unlink, "an unlink() call"),
                (has_exit_hook, "an atexit.register/weakref.finalize hook"),
            )
            if not present
        ]
        if not missing:
            return
        for site in create_sites:
            yield self.finding(
                ctx,
                site,
                "SharedMemory(create=True) without "
                + " or ".join(missing)
                + " in this module — segments leak past process death",
            )

    @staticmethod
    def _is_shm_create(node: ast.Call) -> bool:
        dotted = dotted_name(node.func)
        if dotted is None or dotted.rpartition(".")[2] != "SharedMemory":
            return False
        return any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in node.keywords
        )
