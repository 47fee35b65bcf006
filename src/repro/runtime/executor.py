"""Pluggable client-execution engines for the federated simulator.

The simulator delegates the per-round client work — "train every surviving
selected client" — to an :class:`Executor`. A spec selects one of:

* ``serial`` (default): an unpadded
  :class:`~repro.runtime.cohort.CohortExecutor` in this process, training
  each round as stacked programs of equal batch width — the per-client
  loop's operand shapes, so its bytes, at a fraction of its per-call
  overhead. Its width is sized at bind and never exceeds a lazy
  population's ``cache=N``.
* ``cohort[:M]``: the same engine padded, M clients per program; see
  :mod:`repro.runtime.cohort`.
* ``parallel[:N]``: persistent worker processes, each driving the
  ``serial`` engine over the clients it owns; see
  :mod:`repro.runtime.parallel`.

:class:`SerialExecutor` — ``Strategy.client_round`` for one client after
another — is the reference every engine is held to. Tests and benches
build it as an instance; no spec reaches it.

Every engine receives the jobs in deterministic client-id order (the
simulator's ``survivors`` list is sorted) and must return results in that
same order, so downstream collection/aggregation — and therefore the whole
:class:`~repro.runtime.history.RunHistory` — is identical regardless of the
engine. Engines change wall-clock time only, never the simulation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..obs.profile import NULL_PROFILER
from .round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Strategy
    from ..nn.layout import Layout
    from .client import SimClient

__all__ = ["Executor", "SerialExecutor", "ClientJob", "resolve_executor"]

#: One unit of round work: ``(client_id, round context)``.
ClientJob = tuple[int, RoundContext]


def capture_clients(
    clients: "Sequence[SimClient]", ids: "Sequence[int] | None" = None
) -> dict[int, bytes]:
    """``{cid: encoded client.capture_state()}`` for the clients living in
    this process — all of them, or only ``ids`` (a parallel worker's owned
    slice). A client's snapshot is its whole cross-round state, and one
    :mod:`~repro.persist.snapshot` blob is the only form it travels in."""
    if hasattr(clients, "capture_run_state"):
        # Lazy population: it knows which clients have diverged from their
        # initial state (and holds the evicted ones encoded already);
        # indexing it here would materialise all of them.
        return clients.capture_run_state(ids)
    # Imported at capture time: the runtime layer has no import-time
    # dependency on the persistence subsystem.
    from ..persist.snapshot import encode

    if ids is None:
        ids = range(len(clients))
    return {cid: encode(clients[cid].capture_state()) for cid in ids}


class Executor(ABC):
    """Engine that executes one round's client workload.

    Lifecycle: the simulator calls :meth:`bind` exactly once at
    construction, :meth:`run_round` once per communication round, and
    :meth:`close` when the run is over (or relies on GC/daemon cleanup).
    """

    #: Short engine name for CLI summaries and bench reports.
    name: str = "base"

    #: Wall-clock phase profiler (no-op unless :meth:`set_profiler` swaps
    #: in a live one). Class attribute so engines need no __init__ hook.
    _profiler = NULL_PROFILER

    #: What :meth:`bind` attached; ``None`` until then.
    _clients: "Sequence[SimClient] | None" = None
    _strategy: "Strategy | None" = None
    _layouts: "tuple[Layout, Layout] | None" = None

    def bind(
        self,
        clients: Sequence["SimClient"],
        strategy: "Strategy",
        layouts: "tuple[Layout, Layout] | None" = None,
    ) -> None:
        """Attach the simulator's client replicas and strategy, and the
        server model's parameter and buffer :class:`~repro.nn.layout.Layout`
        tables: the layouts of the two vectors :meth:`run_round` receives
        (only the parallel engine, which ships them across processes,
        reads them)."""
        self._clients = clients
        self._strategy = strategy
        self._layouts = layouts

    @abstractmethod
    def run_round(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
        jobs: list[ClientJob],
    ) -> list[ClientRoundResult]:
        """Execute every job against the round-start global model — its
        ``(P,)`` parameter and ``(B,)`` buffer vectors, read only — and
        return results in job order."""

    def close(self) -> None:
        """Release any engine resources (processes, pipes, shared-memory
        arenas). Idempotent."""

    def set_recorder(self, recorder) -> None:
        """Attach the simulator's telemetry sink (see :mod:`repro.obs`).

        Engines with observable internals (the parallel engine's IPC byte
        counters) mirror them as recorder counters; the default engine has
        nothing to report. Counters never enter the JSONL event trace, so
        this hook cannot break trace determinism."""

    def set_profiler(self, profiler) -> None:
        """Attach a wall-clock :class:`~repro.obs.profile.PhaseProfiler`.

        Engines time their client work (and transport sub-spans) through
        it; the default is the shared no-op profiler. Wall-clock spans
        never touch the event trace or the counters registry, so this hook
        cannot break trace or resume determinism."""
        self._profiler = profiler

    def ipc_stats(self) -> dict[str, float]:
        """Cumulative IPC metrics for benches; empty for in-process engines."""
        return {}

    def aggregate_round(
        self, collected: list[ClientRoundResult]
    ) -> "dict[str, np.ndarray] | None":
        """Unused stub: nothing calls it. Every engine's round is reduced
        by :func:`~repro.runtime.aggregation.aggregate_updates` in the
        simulator. It stays only because the frozen benchmark harness
        (``benchmarks/e2e/layers.py``) wraps it by name; it goes with
        ROADMAP item 1's harness re-spelling."""
        return None

    def min_resident_clients(self) -> int:
        """Largest number of clients the engine holds live at one moment.

        A lazy population (see :mod:`repro.scale`) sizes its resident cache
        to at least this once the engine is bound, so an engine can never
        have an in-use client evicted from under it mid-round. The
        reference loop touches one client at a time; the cohort engine
        overrides this with its chunk width.
        """
        return 1

    def capture_run_state(self) -> dict[int, bytes]:
        """Snapshot the evolved per-client state, ``{cid: encoded
        snapshot}``, for checkpointing (see :mod:`repro.persist`).

        The engine owns this because the state lives wherever the client
        rounds actually execute — in the parent for the in-process engines,
        inside the persistent workers for
        :class:`~repro.runtime.parallel.ParallelExecutor`.
        Restore needs no engine hook: checkpoints are restored into a
        freshly constructed simulator *before* any round runs, so parallel
        workers fork from the already-restored parent replicas.
        """
        raise NotImplementedError(
            f"executor {self.name!r} does not support checkpointing"
        )

    def _capture_local_state(self) -> dict[int, bytes]:
        """:meth:`capture_run_state` for state that lives in this process:
        the bound client replicas."""
        if self._clients is None:
            raise RuntimeError("executor not bound; construct it via FederatedSimulator")
        return capture_clients(self._clients)

    # Context-manager sugar so ad-hoc scripts don't leak worker processes.
    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(Executor):
    """The reference engine: ``Strategy.client_round`` for one client after
    another, in this process. Every engine's history and trace are held to
    this one's bytes; ``serial`` resolves to the batched engine that
    reproduces them (:func:`resolve_executor`)."""

    name = "serial"

    def run_round(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
        jobs: list[ClientJob],
    ) -> list[ClientRoundResult]:
        if self._clients is None or self._strategy is None:
            raise RuntimeError("executor not bound; construct it via FederatedSimulator")
        with self._profiler.phase("client.train"):
            return [
                self._strategy.client_round(self._clients[cid], params, buffers, ctx)
                for cid, ctx in jobs
            ]

    def capture_run_state(self) -> dict[int, bytes]:
        return self._capture_local_state()


def resolve_executor(spec: "Executor | str | None") -> Executor:
    """Turn an executor spec into an engine instance.

    ``None``/``"serial"`` → an unpadded
    :class:`~repro.runtime.cohort.CohortExecutor` sized at bind (labelled
    ``serial``: it is :class:`SerialExecutor`'s bytes, batched);
    ``"parallel[:N]"`` →
    :class:`~repro.runtime.parallel.ParallelExecutor` with N workers.
    Shared memory is the only IPC transport, so ``parallel:4@shm`` is
    accepted as a redundant spelling; the removed ``@pipe`` / ``@auto``
    raise. The parent reduces every round, so ``+shards=S`` (a positive
    integer S) is accepted the same way and changes nothing;
    ``"cohort[:M]"`` → a padded :class:`~repro.runtime.cohort.CohortExecutor`
    batching M (default 32) clients per stacked tensor program — e.g.
    ``"cohort:32"``; an :class:`Executor` instance passes through (the one
    way to run :class:`SerialExecutor`).
    """
    if isinstance(spec, Executor):
        return spec
    if spec is None or isinstance(spec, str):
        key = "serial" if spec is None else spec.strip().lower()
        if key == "serial":
            from .cohort import CohortExecutor

            return CohortExecutor(pad=False)
        if key == "parallel" or key.startswith(
            ("parallel:", "parallel@", "parallel+")
        ):
            from .parallel import ParallelExecutor

            if "+" in key:
                key, _, opts = key.partition("+")
                for opt in opts.split("+"):
                    opt_key, _, opt_value = opt.partition("=")
                    if opt_key != "shards" or not opt_value:
                        raise ValueError(
                            f"bad option {opt!r} in executor spec {spec!r}; "
                            "expected '+shards=S'"
                        )
                    if not opt_value.isdigit() or int(opt_value) < 1:
                        raise ValueError(
                            f"bad shard count {opt_value!r} in executor spec "
                            f"{spec!r}; shards must be >= 1"
                        )
            if "@" in key:
                key, transport = key.split("@", 1)
                if transport != "shm":
                    raise ValueError(
                        f"bad transport {transport!r} in executor spec "
                        f"{spec!r}: shared memory is the only transport "
                        "(the 'pipe' and 'auto' choices were removed); "
                        "drop the '@...' token"
                    )
            workers = None
            if ":" in key:
                try:
                    workers = int(key.split(":", 1)[1])
                except ValueError:
                    raise ValueError(f"bad worker count in executor spec {spec!r}")
            return ParallelExecutor(workers=workers)
        if key == "cohort" or key.startswith("cohort:"):
            from .cohort import DEFAULT_COHORT_SIZE, CohortExecutor

            size = DEFAULT_COHORT_SIZE
            if ":" in key:
                try:
                    size = int(key.split(":", 1)[1])
                except ValueError:
                    raise ValueError(f"bad cohort size in executor spec {spec!r}")
            return CohortExecutor(cohort_size=size)
    raise ValueError(
        f"unknown executor spec {spec!r}; expected 'serial', "
        "'parallel[:N]', 'cohort[:M]' or an "
        "Executor instance"
    )
