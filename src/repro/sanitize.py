"""Runtime determinism sanitizer (``--sanitize`` / ``REPRO_SANITIZE=1``).

The dynamic half of the repository's invariant checks: where the static
pass (``tools/reprolint``) proves what the *source* can do, the
sanitizer watches what the *process* actually does.  Four traps, all
passive — a sanitized run's history and JSONL trace are byte-identical
to an unsanitized one (asserted in ``tests/test_lint.py``):

1. **Legacy RNG trap** — every global-state ``np.random.<fn>`` call
   (``seed``/``rand``/``shuffle``/...) raises :class:`SanitizeError`.
   Seeded :class:`numpy.random.Generator` instances are untouched.
2. **Fork hygiene** — an ``os.register_at_fork`` *before* hook records a
   violation whenever a non-allowlisted thread is alive at fork time
   (the trace-writer-flusher × fork-pool hazard, FORK001's dynamic
   twin).  Violations are collected and printed to stderr;
   :func:`fork_violations` exposes them.  The hook never raises —
   CPython swallows at-fork exceptions as unraisable, so recording is
   the reliable channel.
3. **Shm pairing** — ``SharedMemory(create=True)`` segments are tracked
   until their ``unlink()``; :func:`leaked_segments` lists what this
   process created and has not unlinked.
4. **Metrics discipline** — every :class:`TraceRecorder` registry write
   is validated against :mod:`repro.obs.metrics`: counters must be
   registered, end ``_total`` and never decrease; gauges must be
   registered and never use the ``_total`` suffix (MET001/MET002 at
   runtime, covering dynamically built names the AST pass cannot see).

The RNG and metrics traps raise where the violation happens. The fork
and shm traps only record, so a sanitized CLI run ends with
:func:`report`: it prints what they recorded, and the run exits
:data:`VIOLATION_EXIT` (3) if there was anything.

``enable()``/``disable()`` are idempotent and restore every patch, so
tests can toggle the sanitizer around a single run.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "SanitizeError",
    "VIOLATION_EXIT",
    "enable",
    "disable",
    "is_active",
    "fork_violations",
    "leaked_segments",
    "report",
]

#: Exit status of a sanitized CLI run that recorded a fork-time thread
#: violation or left a segment it created unlinked.
VIOLATION_EXIT = 3


class SanitizeError(AssertionError):
    """A determinism invariant was violated at runtime."""


#: ``np.random`` module-level functions that mutate/read the global
#: mtrand singleton.  Kept in sync with the static DET001 list.
_NP_LEGACY_FNS = (
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
    "exponential",
    "gamma",
    "laplace",
    "logistic",
    "lognormal",
    "multinomial",
    "poisson",
)

#: Threads allowed to be alive when a worker pool forks: the trace
#: writer's daemon flusher (children never touch its state).
_ALLOWED_THREAD_PREFIXES = ("repro-trace-flusher",)


@dataclass
class _State:
    active: bool = False
    #: segment name → creating pid, cleared on unlink
    shm_created: dict[str, int] = field(default_factory=dict)
    #: thread-name lists recorded by the at-fork hook
    fork_violations: list[tuple[str, ...]] = field(default_factory=list)
    #: restores: list of (apply,) undo callables
    undo: list[Callable[[], None]] = field(default_factory=list)
    atfork_registered: bool = False


_STATE = _State()


def is_active() -> bool:
    """Whether the sanitizer is currently enabled in this process."""
    return _STATE.active


def fork_violations() -> list[tuple[str, ...]]:
    """Unexpected-thread sets seen at fork time (one tuple per fork)."""
    return list(_STATE.fork_violations)


def leaked_segments() -> list[str]:
    """Shared-memory segments this process created and never unlinked."""
    pid = os.getpid()
    return sorted(
        name for name, creator in _STATE.shm_created.items() if creator == pid
    )


def report() -> int:
    """Print this process's leaked segments and fork-time violations to
    stderr; :data:`VIOLATION_EXIT` if there were any, else 0."""
    leaks = leaked_segments()
    if leaks:
        print(
            f"REPRO-SANITIZE: {len(leaks)} leaked shared-memory segment(s) "
            f"(created but never unlinked): {leaks} (SHM001)",
            file=sys.stderr,
        )
    if _STATE.fork_violations:
        print(
            f"REPRO-SANITIZE: {len(_STATE.fork_violations)} fork(s) happened "
            f"with unexpected live threads: {_STATE.fork_violations} (FORK001)",
            file=sys.stderr,
        )
    return VIOLATION_EXIT if leaks or _STATE.fork_violations else 0


# ----------------------------------------------------------------------
# 1. Legacy np.random trap
# ----------------------------------------------------------------------
def _install_np_trap() -> None:
    import numpy as np

    module = np.random
    for fn_name in _NP_LEGACY_FNS:
        original = getattr(module, fn_name, None)
        if original is None:  # numpy version drift
            continue

        def _trap(
            *args: Any, _fn: str = fn_name, **kwargs: Any
        ) -> Any:  # pragma: no cover - message construction trivial
            raise SanitizeError(
                f"global-state RNG call np.random.{_fn}() under --sanitize; "
                "all randomness must flow through a seeded "
                "np.random.Generator (DET001)"
            )

        setattr(module, fn_name, _trap)
        _STATE.undo.append(
            lambda _fn=fn_name, _orig=original: setattr(module, _fn, _orig)
        )


# ----------------------------------------------------------------------
# 2. Fork hygiene
# ----------------------------------------------------------------------
def _before_fork() -> None:
    if not _STATE.active:
        return
    unexpected = tuple(
        t.name
        for t in threading.enumerate()
        if t is not threading.main_thread()
        and t.is_alive()
        and not t.name.startswith(_ALLOWED_THREAD_PREFIXES)
    )
    if unexpected:
        _STATE.fork_violations.append(unexpected)
        print(
            f"REPRO-SANITIZE: unexpected live thread(s) at fork: "
            f"{list(unexpected)} (allowed prefixes: "
            f"{list(_ALLOWED_THREAD_PREFIXES)}) — a thread copied mid-state "
            "into a forked worker can deadlock or corrupt it (FORK001)",
            file=sys.stderr,
        )


# ----------------------------------------------------------------------
# 3. Shm pairing
# ----------------------------------------------------------------------
def _install_shm_tracker() -> None:
    from multiprocessing import shared_memory

    original = shared_memory.SharedMemory

    class _TrackedSharedMemory(original):  # type: ignore[valid-type,misc]
        """Counts create/unlink pairs; behaviour is otherwise identical."""

        def __init__(
            self,
            name: str | None = None,
            create: bool = False,
            size: int = 0,
            **kwargs: Any,
        ) -> None:
            super().__init__(name=name, create=create, size=size, **kwargs)
            if create:
                _STATE.shm_created[self.name] = os.getpid()

        def unlink(self) -> None:
            super().unlink()
            _STATE.shm_created.pop(self.name, None)

    _TrackedSharedMemory.__name__ = original.__name__
    _TrackedSharedMemory.__qualname__ = original.__qualname__
    shared_memory.SharedMemory = _TrackedSharedMemory  # type: ignore[misc]
    _STATE.undo.append(
        lambda: setattr(shared_memory, "SharedMemory", original)
    )


# ----------------------------------------------------------------------
# 4. Metrics discipline
# ----------------------------------------------------------------------
def _install_metrics_guard() -> None:
    from .obs.metrics import KNOWN_COUNTERS, KNOWN_GAUGES, metric_base_name
    from .obs.recorder import TraceRecorder

    orig_counter = TraceRecorder.counter
    orig_gauge = TraceRecorder.gauge

    def checked_counter(
        self: Any, name: str, inc: float = 1
    ) -> None:
        base = metric_base_name(name)
        if inc < 0:
            raise SanitizeError(
                f"counter {name!r} decremented by {inc}; counters are "
                "monotone (MET001)"
            )
        if not base.endswith("_total"):
            raise SanitizeError(
                f"counter {name!r} must end '_total'; wall-clock series "
                "must be gauges (MET001/MET002)"
            )
        if base not in KNOWN_COUNTERS:
            raise SanitizeError(
                f"counter {base!r} is not pre-registered in "
                "obs/metrics.py KNOWN_COUNTERS (MET001)"
            )
        orig_counter(self, name, inc)

    def checked_gauge(self: Any, name: str, value: float) -> None:
        base = metric_base_name(name)
        if base.endswith("_total"):
            raise SanitizeError(
                f"gauge {name!r} uses the counter suffix '_total'; monotone "
                "series must be counters (MET002)"
            )
        if base not in KNOWN_GAUGES:
            raise SanitizeError(
                f"gauge {base!r} is not pre-registered in "
                "obs/metrics.py KNOWN_GAUGES (MET001)"
            )
        orig_gauge(self, name, value)

    TraceRecorder.counter = checked_counter  # type: ignore[method-assign]
    TraceRecorder.gauge = checked_gauge  # type: ignore[method-assign]
    _STATE.undo.append(
        lambda: setattr(TraceRecorder, "counter", orig_counter)
    )
    _STATE.undo.append(lambda: setattr(TraceRecorder, "gauge", orig_gauge))


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def enable() -> None:
    """Install every sanitizer trap (idempotent)."""
    if _STATE.active:
        return
    _STATE.shm_created.clear()
    _STATE.fork_violations.clear()
    _STATE.active = True
    _install_np_trap()
    _install_shm_tracker()
    _install_metrics_guard()
    if not _STATE.atfork_registered:
        os.register_at_fork(before=_before_fork)
        _STATE.atfork_registered = True


def disable() -> None:
    """Undo every patch and stop watching (idempotent).

    The at-fork hook cannot be unregistered; it becomes a no-op via the
    active flag.  Recorded violations/leaks are kept for inspection and
    cleared on the next :func:`enable`."""
    if not _STATE.active:
        return
    while _STATE.undo:
        _STATE.undo.pop()()
    _STATE.active = False
