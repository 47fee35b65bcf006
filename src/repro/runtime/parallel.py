"""Process-parallel client execution with persistent worker pools.

``ParallelExecutor`` forks ``workers`` long-lived processes the first time a
round runs. Each worker inherits (via ``fork``) the simulator's client
population — the pager — *and* a replica of the strategy, and owns no
client: the parent's pager is the one home of every client's kept state
(batch-stream and speed-trace position, layer RNG, FedCA's profiled curves,
the wire codec's residual and RNG), one :mod:`~repro.persist.snapshot` blob
per touched client. A parallel job is ``(cid, ctx, blob | None)`` — ``None``
for a client still in its initial state. Each round a worker

1. stages the blobs of the jobs it was dealt into its copy of the pager;
2. trains them through the default ``serial`` engine — an unpadded
   :class:`~repro.runtime.cohort.CohortExecutor` — which pages each client
   in from the worker's forked :class:`~repro.scale.ClientFactory` and
   restores its blob;
3. captures and releases every resident;
4. returns ``{cid: new blob}`` beside the results, which the parent parks.

Between rounds a worker holds no client and no blob. The engine trains a
worker's share as unpadded stacked chunks, so every client keeps the
per-client loop's bytes (DESIGN.md §12); it sizes itself at bind (the
population's resident capacity, capped by ``STACK_BYTES``) and cuts the
share into as few near-equal chunks as that allows. Jobs are dealt round-robin over the sorted job list — worker ``w`` gets
``jobs[w::workers]`` — so per-worker counts differ by at most one.

The per-round bulk data moves through shared memory (see
:mod:`repro.runtime.transport`): the global model is written **once** into
an arena all workers map read-only and zero-copy, and each worker returns
its result arrays through its own result arena, which the parent's
:func:`~repro.runtime.aggregation.aggregate_updates` reads in place. Pipes
carry small control messages (job lists, scalar stats, trace events,
generation counters) and, after each, one frame of the jobs' blobs joined —
their lengths ride the control message.

Control messages are framed as explicit ``pickle`` blobs over
``send_bytes``/``recv_bytes`` so every pipe byte is metered exactly; the
counters surface as ``repro_ipc_bytes_total{transport,direction}`` (the blob
frames as ``direction="state"``) and ``repro_ipc_broadcast_seconds``
(recorder counters and :meth:`ParallelExecutor.ipc_stats`).

Determinism
-----------
The parent owns every client's state and any worker may run any client: a
client's round is a function of its blob and the broadcast alone, and a
blob that round-trips capture → release → restore pages the client back in
bit-identically (the pager's invariant, :mod:`repro.scale.cache`). Results
are reassembled in the simulator's job order (sorted client ids). The
reference loop, ``serial`` and ``parallel:N`` runs therefore produce
**bitwise-identical**
:class:`~repro.runtime.history.RunHistory` objects *and* telemetry traces;
``tests/test_executor.py`` asserts both for FedAvg and FedCA. A checkpoint
reads the parent's population; no message reaches a worker.

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
* If a worker process dies mid-run, the pool (and its arenas) is torn down
  with one ``RuntimeWarning``, and the unfinished jobs of that round — and
  every later round — run through that same engine on the parent's
  population. The parent still holds those jobs' pre-round blobs, so the
  rerun is bytes-equal to an uncrashed run and the run stays
  checkpointable. Results the dead round already decoded are copied out of
  the arenas before they go.

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
from typing import Any

import numpy as np

from ..persist.errors import CheckpointFormatError
from .cohort import CohortExecutor, StepCounts, bound_width, chunk_widths
from .executor import Binding, ClientJob, Executor
from .round import ClientRoundResult
from .transport import ShmTransport

__all__ = ["ParallelExecutor", "fork_available", "default_workers"]


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in mp.get_all_start_methods()


def default_workers() -> int:
    """Default pool size: the cores this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def _send(conn, obj: Any) -> int:
    """Pickle ``obj`` down ``conn`` explicitly; returns the byte count."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(blob)
    return len(blob)


def _recv(conn) -> tuple[Any, int]:
    """Inverse of :func:`_send`; returns ``(object, byte count)``."""
    blob = conn.recv_bytes()
    return pickle.loads(blob), len(blob)


def _split_frame(frame: bytes, lengths: list[int]) -> list[bytes | None]:
    """Cut a state frame back into its blobs; length 0 is ``None`` (a
    client in its initial state — a snapshot blob is never empty)."""
    blobs, at = [], 0
    for n in lengths:
        blobs.append(frame[at : at + n] if n else None)
        at += n
    return blobs


def _worker_main(pairs, clients, strategy, transport, worker_index) -> None:
    """Worker loop: one recv/send pair per round, each round's jobs staged
    from their blobs, trained by one bound cohort engine and drained back.

    Runs in the forked child. ``clients`` (the population)/``strategy``/
    ``transport`` arrive by fork inheritance (never pickled).
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
    # The parent keeps every client's state: drop the blobs a resume staged
    # in the pager before the fork, so a worker holds only what it is sent.
    cache = clients.cache
    cache.drain()
    # The default engine, sized at bind to what the population may hold.
    engine = CohortExecutor(pad=False)
    engine.bind(Binding(clients, strategy))
    params = buffers = None
    try:
        while True:
            msg, _ = _recv(conn)
            if msg[0] == "stop":
                return
            _, extra, jobs, lengths = msg
            frame = conn.recv_bytes()
            try:
                for (cid, _), blob in zip(jobs, _split_frame(frame, lengths)):
                    if blob is not None:
                        cache.seed_snapshot(cid, blob)
                params, buffers = transport.read_broadcast(extra)
                out = engine.run_round(params, buffers, jobs)
                kept = cache.drain()
                blobs = [kept[cid] for cid, _ in jobs]
                encoded = transport.encode_results(out)
                _send(conn, ("ok", (encoded, engine.counts.take(), [len(b) for b in blobs])))
                conn.send_bytes(b"".join(blobs))
            except Exception as exc:
                cache.drain()
                # A refused blob stays typed, as the default engine raises it.
                typed = isinstance(exc, CheckpointFormatError)
                _send(conn, ("err", exc if typed else traceback.format_exc()))
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
        self._procs: list[mp.process.BaseProcess] = []
        self._conns: list = []
        self._started = False
        self._fallback: CohortExecutor | None = None
        self._counts = StepCounts()

    # ------------------------------------------------------------------
    def _degrade(self, reason: str, message: str) -> None:
        """Warn, count ``repro_engine_fallbacks_total{reason}`` and route
        all remaining work through the default engine on the parent's
        population — the one a worker runs, sized the same way."""
        warnings.warn(message, RuntimeWarning, stacklevel=3)
        self._bound.recorder.counter(f'repro_engine_fallbacks_total{{reason="{reason}"}}')
        self._fallback = CohortExecutor(pad=False)
        self._fallback.bind(self._bound)

    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Allocate the transport and fork the pool: the children inherit
        the population's client factory and the transport's arenas. If the
        pool cannot start, warn once and degrade to serial: the parent's
        population holds every client's state, so nothing about the run
        changes."""
        bound = self._bound
        if bound.layouts is None:
            raise RuntimeError(
                "the parallel executor needs the server model's layouts; "
                "construct it via FederatedSimulator"
            )
        # Round-robin dealing gives a worker at most this many jobs a round.
        jobs = bound.jobs_per_round or len(bound.clients)
        slots = -(-jobs // self.workers)
        transport = ShmTransport()
        reason = None if fork_available() else "no 'fork' start method"
        if reason is None:
            try:
                transport.setup(*bound.layouts, [slots] * self.workers, bound)
            except Exception as exc:  # setup() has already unlinked its arenas
                reason = f"shared-memory setup failed: {exc!r}"
        if reason is not None:
            self._degrade(
                "pool_start",
                f"cannot start the parallel worker pool ({reason}); "
                "running the default engine in this process",
            )
            return
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
                args=(pairs, bound.clients, bound.strategy, transport, w),
                daemon=True,
                name=f"repro-worker-{w}",
            )
            proc.start()
            self._procs.append(proc)
        for w, (parent_conn, child_conn) in enumerate(pairs):
            child_conn.close()
            self._conns.append(parent_conn)
        self._started = True

    def step_rows(self) -> int:
        """What the workers' concurrent stacked steps hold: each worker's
        widest chunk of its dealt share, times the batch."""
        jobs = self._bound.jobs_per_round or len(self._bound.clients)
        width = bound_width(self._bound.clients)
        shares = (len(range(w, jobs, self.workers)) for w in range(min(self.workers, jobs)))
        return sum(chunk_widths(n, width)[0] for n in shares) * super().step_rows()

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
        if self._bound is None:
            raise RuntimeError("executor not bound; construct it via FederatedSimulator")
        if self._fallback is None and not self._started:
            self._start()
        if self._fallback is not None:
            return self._fallback.run_round(params, buffers, jobs)
        if not jobs:
            return []
        transport = self._transport_impl
        cache = self._bound.clients.cache
        # The parent's pager is the one home of every client's kept state;
        # each job carries its client's blob, and the blobs stay parked here
        # until the worker's replacements arrive.
        kept = cache.capture_run_state([cid for cid, _ in jobs])
        dealt = [(w, jobs[w :: self.workers]) for w in range(min(self.workers, len(jobs)))]

        prof = self._bound.profiler
        with prof.phase("broadcast"):
            # Stage the broadcast once: two slice copies regardless of
            # client/worker count (the transport times its own "pack"
            # sub-span).
            extra = transport.broadcast(params, buffers)

            crashed = False
            for w, wjobs in dealt:
                blobs = [kept.get(cid, b"") for cid, _ in wjobs]
                frame = b"".join(blobs)
                message = ("round", extra, wjobs, [len(b) for b in blobs])
                try:
                    sent = _send(self._conns[w], message)
                    self._conns[w].send_bytes(frame)
                    transport.count_pipe("broadcast", sent)
                    transport.count_pipe("state", len(frame))
                except (BrokenPipeError, OSError):
                    crashed = True

        by_cid: dict[int, ClientRoundResult] = {}
        failed: tuple[int, Any] | None = None
        if not crashed:
            for w, wjobs in dealt:
                try:
                    # The recv wait *is* the clients' training time from the
                    # parent's point of view.
                    with prof.phase("client.train"):
                        (tag, payload), received = _recv(self._conns[w])
                        frame = self._conns[w].recv_bytes() if tag == "ok" else b""
                except (EOFError, OSError):
                    crashed = True
                    break
                transport.count_pipe("results", received)
                if tag == "err" or failed is not None:
                    # Deterministic strategy/client exception: it would have happened serially
                    # too. Raise it rather than degrade, once every reply is read (pool in step).
                    failed = failed or (w, payload)
                    continue
                encoded, step_counts, lengths = payload
                transport.count_pipe("state", len(frame))
                for (cid, _), blob in zip(wjobs, _split_frame(frame, lengths)):
                    cache.seed_snapshot(cid, blob)
                self._counts.add(*step_counts)
                with prof.phase("collect"):
                    for result in transport.decode_results(w, encoded):
                        by_cid[result.client_id] = result
            self._counts.publish(self._bound.recorder)
        if failed is not None and not crashed:
            w, payload = failed
            if isinstance(payload, CheckpointFormatError):
                raise type(payload)(f"in parallel worker {w}: {payload}") from payload
            raise RuntimeError(f"client round failed in worker {w}:\n{payload}")

        if crashed:
            # The surviving results view arenas about to be unlinked: copy
            # them out before the pool goes.
            transport.detach(list(by_cid.values()))
            self._shutdown_pool()
            self._degrade(
                "worker_died",
                "a parallel worker died; finishing the run on the default "
                "engine in this process, from the state it keeps for every "
                "client",
            )
            # This process still holds the unfinished jobs' pre-round blobs,
            # so the rerun is the round an uncrashed pool would have run.
            remaining = [(cid, ctx) for cid, ctx in jobs if cid not in by_cid]
            for result in self._fallback.run_round(params, buffers, remaining):
                by_cid[result.client_id] = result

        return [by_cid[cid] for cid, _ in jobs]

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
