"""Process-parallel client execution with persistent worker pools.

``ParallelExecutor`` forks ``workers`` long-lived processes the first time a
round runs. Each worker inherits (via ``fork``) the simulator's client
population — the pager, holding no client yet or only the blobs a resume
staged — *and* a replica of the strategy. A worker pages its own clients:
its copy of the pager builds each one the first time the worker runs it and
keeps it for the whole run (or up to ``cache=N`` of them) — the parent
builds no client before the fork, and there is no per-round pickling of
clients, models or data shards. A worker binds the default ``serial``
engine — an unpadded :class:`~repro.runtime.cohort.CohortExecutor` — to
what it inherited and trains its share of each round through it, as
stacked chunks: clients share a program only at equal batch width and a
step only at equal row counts, so every product keeps the per-client loop's
operand shapes and every client its bytes (DESIGN.md §12) at a fraction of
the loop's per-call overhead — a client whose shard is smaller than a batch
trains in a program of its own width. The engine sizes itself at bind:
:data:`~repro.runtime.cohort.DEFAULT_COHORT_SIZE`, capped by the
population's resident capacity so ``lazy:cache=N`` holds per worker; there
is nothing to configure.

The per-round bulk data moves through shared memory (see
:mod:`repro.runtime.transport`): the global model is written **once** into
an arena all workers map read-only and zero-copy, and each worker returns
its result arrays through its own result arena, which the parent's
:func:`~repro.runtime.aggregation.aggregate_updates` reads in place. Pipes
carry only small control messages (job lists, scalar stats, trace events,
generation counters).

Control messages are framed as explicit ``pickle`` blobs over
``send_bytes``/``recv_bytes`` so every pipe byte is metered exactly; the
counters surface as ``repro_ipc_bytes_total{transport,direction}`` and
``repro_ipc_broadcast_seconds`` (recorder counters and
:meth:`ParallelExecutor.ipc_stats`).

Determinism
-----------
Client ``cid`` is permanently owned by worker ``cid % workers`` (sticky
routing), so every stateful per-client object — the cyclic
:class:`~repro.data.loader.BatchStream`, the lazily extended
:class:`~repro.sysmodel.speed.SpeedTrace`, and what FedCA and the wire
layer keep on the client (profiled curves, codec) — evolves in exactly one
process, in exactly the order it would have evolved serially. Results are
reassembled in the simulator's job order (sorted client ids). The
reference loop, ``serial`` and ``parallel:N`` runs therefore produce
**bitwise-identical**
:class:`~repro.runtime.history.RunHistory` objects *and* telemetry traces;
``tests/test_executor.py`` asserts both for FedAvg and FedCA.

Telemetry events recorded inside a worker (FedCA decision introspection,
see :mod:`repro.obs`) ride back on the ``trace`` field of each
:class:`~repro.runtime.round.ClientRoundResult` — simulated-time-keyed
dicts, no live recorder handles cross the process boundary. The simulator
merges them into the parent recorder in job order, so the trace stream is
byte-identical to a serial run's.

Fallback
--------
* Anything that keeps the pool from starting — no ``fork`` start method,
  no usable shared memory, ``/dev/shm`` too small for the arenas — emits
  one ``RuntimeWarning`` naming the reason and runs everything through the
  default ``serial`` engine on the parent's population, sized as a worker's.
  No round has run yet, so the history is bitwise the serial one and the
  run stays checkpointable.
* If a worker process dies mid-run, the pool (and its arenas) is torn down
  and the unfinished jobs of that round — and every later round — run
  through that same engine on the parent's population. The run completes,
  but because the parent's clients did not observe the rounds the dead pool
  executed, the bitwise-determinism guarantee is void from the crash
  onward (a warning says so, and checkpointing refuses). Results the dead
  round already decoded are copied out of the arenas before they go.

Either fallback also bumps the recorder counter
``repro_engine_fallbacks_total{reason="pool_start"|"worker_died"}``;
counters never enter the trace.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import traceback
import warnings
from typing import TYPE_CHECKING, Any

import numpy as np

from .cohort import CohortExecutor, StepCounts
from .executor import ClientJob, Executor
from .round import ClientRoundResult
from .transport import ShmTransport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Recorder

__all__ = ["ParallelExecutor", "WorkerCrash", "fork_available", "default_workers"]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in mp.get_all_start_methods()


def default_workers() -> int:
    """Default pool size: the cores this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class WorkerCrash(RuntimeError):
    """A worker process exited without returning its round results."""


def _send(conn, obj: Any) -> int:
    """Pickle ``obj`` down ``conn`` explicitly; returns the byte count."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)
    return len(blob)


def _recv(conn) -> tuple[Any, int]:
    """Inverse of :func:`_send`; returns ``(object, byte count)``."""
    blob = conn.recv_bytes()
    return pickle.loads(blob), len(blob)


def _worker_main(pairs, clients, strategy, owned_ids, transport, worker_index) -> None:
    """Worker loop: resident clients, one recv/send pair per round, each
    round's jobs trained by one bound cohort engine.

    Runs in the forked child. ``clients`` (the population)/``strategy``/
    ``transport`` arrive by fork inheritance (never pickled); ``owned_ids``
    is the slice of clients a state capture snapshots.
    ``pairs`` is every worker's ``(parent_conn, child_conn)`` — this worker
    keeps only its own child end and closes the rest, so a dead parent
    reliably turns into EOF here rather than a forever-blocked recv.
    """
    conn = pairs[worker_index][1]
    for w, (parent_conn, child_conn) in enumerate(pairs):
        parent_conn.close()
        if w != worker_index:
            child_conn.close()
    transport.worker_init(worker_index)
    # The default engine, sized at bind to what the population may hold.
    engine = CohortExecutor(pad=False)
    engine.bind(clients, strategy)
    params = buffers = None
    try:
        while True:
            msg, _ = _recv(conn)
            if msg[0] == "stop":
                return
            if msg[0] == "capture":
                # Checkpoint support: the evolved cross-round state of the
                # owned clients lives only in this process — snapshot it
                # and ship its {cid: blob} map back as the pipe reply.
                try:
                    _send(conn, ("ok", clients.capture_run_state(owned_ids)))
                except Exception:
                    _send(conn, ("err", traceback.format_exc()))
                continue
            _, extra, jobs = msg
            try:
                params, buffers = transport.read_broadcast(extra)
                out = engine.run_round(params, buffers, jobs)
                _send(conn, ("ok", (transport.encode_results(out), engine.counts.take())))
            except Exception:
                _send(conn, ("err", traceback.format_exc()))
            finally:
                # Drop any zero-copy views into the broadcast arena before
                # the next round overwrites it (and before process exit
                # unmaps it under live exports).
                params = buffers = None
    except (EOFError, KeyboardInterrupt, BrokenPipeError):  # parent went away
        pass
    finally:
        conn.close()


class ParallelExecutor(Executor):
    """Persistent-worker process pool (see module docstring).

    Parameters
    ----------
    workers:
        Pool size; defaults to the usable core count. One worker runs the
        whole round as cohort chunks in a child process (useful for
        isolating fork- and transport-related issues from scheduling ones).
    """

    name = "parallel"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or default_workers()
        self._transport_impl: ShmTransport | None = None
        self._recorder: "Recorder | None" = None
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list = []
        self._started = False
        self._fallback: CohortExecutor | None = None
        self._degraded_after_start = False
        self._counts = StepCounts()

    # ------------------------------------------------------------------
    def set_recorder(self, recorder: "Recorder | None") -> None:
        self._recorder = recorder
        if self._transport_impl is not None:
            self._transport_impl.set_recorder(recorder)
        if self._fallback is not None:
            self._fallback.set_recorder(recorder)

    def set_profiler(self, profiler) -> None:
        self._profiler = profiler
        if self._transport_impl is not None:
            self._transport_impl.set_profiler(profiler)
        if self._fallback is not None:
            self._fallback.set_profiler(profiler)

    def _degrade(self, reason: str, message: str) -> None:
        """Warn, count ``repro_engine_fallbacks_total{reason}`` and route
        all remaining work through the default engine on the parent's
        population — the one a worker runs, sized the same way."""
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        if self._recorder is not None:
            self._recorder.counter(f'repro_engine_fallbacks_total{{reason="{reason}"}}')
        assert self._clients is not None and self._strategy is not None
        self._fallback = CohortExecutor(pad=False)
        self._fallback.bind(self._clients, self._strategy)
        self._fallback.set_recorder(self._recorder)
        self._fallback.set_profiler(self._profiler)

    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Allocate the transport and fork the pool. Must happen before any
        round has run, so the children inherit the population as the
        constructor (or a resume) left it — and the transport's arenas by
        the same fork. If the pool cannot start, warn once and degrade to
        serial: the parent's population is still pristine, so nothing about
        the run changes."""
        # Ownership routing needs client ids only — indexing the population
        # here would build every client in the parent before the fork.
        owned_per_worker = [
            range(w, len(self._clients), self.workers) for w in range(self.workers)
        ]
        if self._layouts is None:
            raise RuntimeError(
                "the parallel executor needs the server model's layouts; "
                "construct it via FederatedSimulator"
            )
        transport = ShmTransport()
        reason = None if fork_available() else "no 'fork' start method"
        if reason is None:
            try:
                transport.setup(*self._layouts, [len(o) for o in owned_per_worker])
            except Exception as exc:  # setup() has already unlinked its arenas
                reason = f"shared-memory setup failed: {exc!r}"
        if reason is not None:
            self._degrade(
                "pool_start",
                f"cannot start the parallel worker pool ({reason}); "
                "running serially on the parent replicas",
            )
            return
        transport.set_recorder(self._recorder)
        transport.set_profiler(self._profiler)
        self._transport_impl = transport
        ctx = mp.get_context("fork")
        # All pipes are created before any fork so each child can close the
        # fds that aren't its own. If a child kept another pipe's parent end
        # open (fork inherits every fd created so far), workers would never
        # see EOF after a parent SIGKILL — they'd orphan forever and keep
        # the shm segments registered with the resource tracker.
        pairs = [ctx.Pipe(duplex=True) for _ in range(self.workers)]
        for w in range(self.workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    pairs,
                    self._clients,
                    self._strategy,
                    owned_per_worker[w],
                    transport,
                    w,
                ),
                daemon=True,
                name=f"repro-worker-{w}",
            )
            proc.start()
            self._procs.append(proc)
        for w, (parent_conn, child_conn) in enumerate(pairs):
            child_conn.close()
            self._conns.append(parent_conn)
        self._started = True

    # ------------------------------------------------------------------
    def occupancy(self) -> dict[str, float]:
        """Realized occupancy of the chunks the workers trained."""
        return self._counts.occupancy()

    def ipc_stats(self) -> dict[str, float]:
        """Cumulative transport metrics (bytes per channel/direction and
        broadcast staging seconds) for benches and reports."""
        if self._transport_impl is None:
            return {}
        return dict(self._transport_impl.stats)

    # ------------------------------------------------------------------
    def run_round(
        self,
        params: np.ndarray,
        buffers: np.ndarray,
        jobs: list[ClientJob],
    ) -> list[ClientRoundResult]:
        if self._clients is None or self._strategy is None:
            raise RuntimeError("executor not bound; construct it via FederatedSimulator")
        if self._fallback is None and not self._started:
            self._start()
        if self._fallback is not None:
            return self._fallback.run_round(params, buffers, jobs)
        transport = self._transport_impl

        per_worker: dict[int, list[ClientJob]] = {}
        for cid, ctx in jobs:
            per_worker.setdefault(cid % self.workers, []).append((cid, ctx))
        if not per_worker:
            return []

        prof = self._profiler
        with prof.phase("broadcast"):
            # Stage the broadcast once: two slice copies regardless of
            # client/worker count (the transport times its own "pack"
            # sub-span).
            extra = transport.broadcast(params, buffers)

            crashed = False
            for w, wjobs in per_worker.items():
                try:
                    sent = _send(self._conns[w], ("round", extra, wjobs))
                    transport.count_pipe("broadcast", sent)
                except (BrokenPipeError, OSError):
                    crashed = True

        by_cid: dict[int, ClientRoundResult] = {}
        if not crashed:
            for w, wjobs in per_worker.items():
                try:
                    # The recv wait *is* the clients' training time from the
                    # parent's point of view.
                    with prof.phase("client.train"):
                        (tag, payload), received = _recv(self._conns[w])
                except (EOFError, OSError):
                    crashed = True
                    break
                transport.count_pipe("results", received)
                if tag == "err":
                    # Deterministic strategy/client exception: it would have
                    # happened serially too, so propagate instead of degrading.
                    raise RuntimeError(
                        f"client round failed in worker {w}:\n{payload}"
                    )
                encoded, step_counts = payload
                self._counts.add(*step_counts)
                with prof.phase("collect"):
                    for result in transport.decode_results(w, encoded):
                        by_cid[result.client_id] = result
            self._counts.publish(self._recorder)

        if crashed:
            # The surviving results view arenas about to be unlinked: copy
            # them out before the pool goes.
            transport.detach(list(by_cid.values()))
            self._shutdown_pool()
            self._degrade(
                "worker_died",
                "a parallel worker died; finishing the run serially — "
                "bitwise determinism vs a pure-serial run is no longer "
                "guaranteed from this round on",
            )
            self._degraded_after_start = True
            remaining = [(cid, ctx) for cid, ctx in jobs if cid not in by_cid]
            for result in self._fallback.run_round(params, buffers, remaining):
                by_cid[result.client_id] = result

        return [by_cid[cid] for cid, _ in jobs]

    # ------------------------------------------------------------------
    def capture_run_state(self) -> dict[int, bytes]:
        if self._clients is None or self._strategy is None:
            raise RuntimeError("executor not bound; construct it via FederatedSimulator")
        if self._fallback is not None:
            if self._degraded_after_start:
                # The dead pool took rounds of client-state evolution with
                # it; the parent's clients are stale, so a checkpoint here
                # would silently violate the resume-determinism guarantee.
                raise RuntimeError(
                    "cannot checkpoint after a worker-crash fallback: the "
                    "parent client replicas did not observe the rounds the "
                    "dead pool executed"
                )
            return self._fallback.capture_run_state()
        if not self._started:
            # No round has run yet — the initial state still lives here.
            return super().capture_run_state()
        transport = self._transport_impl
        for conn in self._conns:
            try:
                sent = _send(conn, ("capture",))
                # Capture traffic scales with checkpoint cadence, which the
                # resume bitwise oracle does not control for — keep it out
                # of the recorder counters.
                transport.count_pipe("capture", sent, mirror=False)
            except (BrokenPipeError, OSError) as exc:
                raise WorkerCrash("worker died during state capture") from exc
        clients: dict[int, bytes] = {}
        for w, conn in enumerate(self._conns):
            try:
                (tag, payload), received = _recv(conn)
            except (EOFError, OSError) as exc:
                raise WorkerCrash("worker died during state capture") from exc
            transport.count_pipe("capture", received, mirror=False)
            if tag == "err":
                raise RuntimeError(f"state capture failed in worker {w}:\n{payload}")
            clients.update(payload)
        return clients

    # ------------------------------------------------------------------
    def _shutdown_pool(self) -> None:
        for conn in self._conns:
            try:
                _send(conn, ("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._procs.clear()
        self._conns.clear()
        self._started = False
        if self._transport_impl is not None:
            # Workers are gone (or going): the arenas must not outlive the
            # pool, whatever the shutdown path.
            self._transport_impl.close()

    def close(self) -> None:
        if self._started:
            self._shutdown_pool()
        elif self._transport_impl is not None:
            self._transport_impl.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
