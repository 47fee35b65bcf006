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
  ``serial`` engine over the jobs a round deals it — a job carries its
  client's kept state, which lives in this process's population between
  rounds; see :mod:`repro.runtime.parallel`.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..obs import NULL_RECORDER
from ..obs.profile import NULL_PROFILER
from .round import ClientRoundResult, RoundContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..algorithms.base import Strategy
    from ..nn.layout import Layout
    from ..obs import Recorder
    from ..obs.profile import PhaseProfiler
    from ..scale import LazyClientPopulation

__all__ = ["Binding", "Executor", "SerialExecutor", "ClientJob", "resolve_executor"]

#: One unit of round work: ``(client_id, round context)``.
ClientJob = tuple[int, RoundContext]


@dataclass
class Binding:
    """What an engine runs against, handed to :meth:`Executor.bind` once.

    ``clients`` is the simulator's population and ``strategy`` its scheme;
    ``layouts`` the server model's parameter and buffer
    :class:`~repro.nn.layout.Layout` tables — the layouts of the two
    vectors :meth:`Executor.run_round` receives — and ``jobs_per_round``
    the most jobs one round can hold (default: every client); only the
    parallel engine, which ships rounds across processes, reads those two.
    ``recorder`` takes the engine's counters and gauges (never trace
    events) and ``profiler`` its wall-clock spans. The simulator, its
    engine, a parallel engine's fallback and its transport all hold this
    one object, so swapping the recorder here (a resume does) reaches
    every one of them."""

    clients: "LazyClientPopulation"
    strategy: "Strategy"
    layouts: "tuple[Layout, Layout] | None" = None
    jobs_per_round: int | None = None
    recorder: "Recorder" = NULL_RECORDER
    profiler: "PhaseProfiler" = NULL_PROFILER


class Executor(ABC):
    """Engine that executes one round's client workload.

    Lifecycle: the simulator calls :meth:`bind` exactly once at
    construction, :meth:`run_round` once per communication round, and
    :meth:`close` when the run is over (or relies on GC/daemon cleanup).
    """

    #: Short engine name for CLI summaries and bench reports.
    name: str = "base"

    #: What :meth:`bind` attached; ``None`` until then.
    _bound: Binding | None = None

    def bind(self, binding: Binding) -> None:
        """Attach the run this engine serves (see :class:`Binding`)."""
        self._bound = binding

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

    def step_rows(self) -> int:
        """Most input rows one training step of this engine holds at once:
        what evaluation chunks by. The reference loop steps one client."""
        return self._bound.clients.factory.spec.batch_size


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
        bound = self._bound
        if bound is None:
            raise RuntimeError("executor not bound; construct it via FederatedSimulator")
        with bound.profiler.phase("client.train"):
            return [
                bound.strategy.client_round(bound.clients[cid], params, buffers, ctx)
                for cid, ctx in jobs
            ]


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
