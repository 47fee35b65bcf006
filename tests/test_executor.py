"""Execution-engine tests: serial/parallel bitwise equivalence, sticky
worker routing, fallback paths, and executor resolution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec, build_strategy
from repro.core import FedCAConfig
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.runtime import (
    CohortExecutor,
    FederatedSimulator,
    ParallelExecutor,
    RunHistory,
    SerialExecutor,
    resolve_executor,
    shm_available,
)
from repro.runtime.cohort import DEFAULT_COHORT_SIZE
from repro.runtime.parallel import fork_available
from repro.runtime.transport import ipc_bytes_counter

from .helpers import shm_segment_names

OPT = OptimizerSpec(lr=0.05, weight_decay=0.01)
NUM_CLIENTS = 5
ITERS = 6


@pytest.fixture(scope="module")
def env_data():
    train, test = make_workload_data("cnn", num_samples=400, seed=3)
    parts = dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=4, min_samples=8)
    return [train.subset(p) for p in parts], test


def make_sim(env_data, scheme, *, executor, seed=1, **kwargs):
    shards, test = env_data
    # Short FedCA profiling period so a 4-round run covers both anchor and
    # optimised rounds (the stateful per-client path).
    fedca_cfg = FedCAConfig(profile_every=2) if scheme.startswith("fedca") else None
    defaults = dict(
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
        strategy=build_strategy(scheme, OPT, fedca_config=fedca_cfg),
        shards=shards,
        test_set=test,
        base_iteration_times=[0.01, 0.012, 0.015, 0.02, 0.03],
        batch_size=8,
        local_iterations=ITERS,
        aggregation_fraction=0.8,
        seed=seed,
        executor=executor,
    )
    defaults.update(kwargs)
    return FederatedSimulator(**defaults)


def history_fingerprint(hist: RunHistory):
    """Every field the bitwise-identity guarantee covers."""
    return [
        (
            r.round_index,
            r.start_time,
            r.end_time,
            r.accuracy,
            r.mean_loss,
            r.collected_clients,
            r.straggler_clients,
            r.mean_iterations,
            r.total_bytes,
        )
        for r in hist.records
    ]


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)
needs_shm = pytest.mark.skipif(
    not shm_available()[0], reason="platform lacks POSIX shared memory"
)


class TestSerialParallelEquivalence:
    @needs_fork
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_bitwise_identical_histories(self, env_data, scheme):
        ref = make_sim(env_data, scheme, executor=SerialExecutor()).run(4)
        for executor in (ParallelExecutor(workers=1), ParallelExecutor(workers=4)):
            with make_sim(env_data, scheme, executor=executor) as sim:
                hist = sim.run(4)
            assert history_fingerprint(hist) == history_fingerprint(ref)

    @needs_fork
    def test_global_state_bitwise_identical(self, env_data):
        sim_s = make_sim(env_data, "fedavg", executor=SerialExecutor())
        sim_s.run(3)
        with make_sim(env_data, "fedavg", executor="parallel:3") as sim_p:
            sim_p.run(3)
        for name in sim_s.global_state:
            assert np.array_equal(
                sim_s.global_state[name], sim_p.global_state[name]
            ), f"layer {name} diverged"

    @needs_fork
    def test_buffered_model_equivalence(self, env_data):
        # WRN carries BatchNorm running statistics, exercising the separate
        # buffer-broadcast blob and buffer aggregation in parallel mode.
        from repro.data import dirichlet_partition, make_workload_data
        from repro.nn import build_model

        train, test = make_workload_data("wrn", num_samples=240, num_classes=8, seed=3)
        parts = dirichlet_partition(train, 3, alpha=0.5, seed=4, min_samples=8)
        shards = [train.subset(p) for p in parts]

        def build(executor):
            return FederatedSimulator(
                model_fn=lambda: build_model("wrn", rng=np.random.default_rng(7)),
                strategy=build_strategy("fedavg", OPT),
                shards=shards,
                test_set=test,
                base_iteration_times=[0.01, 0.02, 0.03],
                batch_size=8,
                local_iterations=2,
                seed=1,
                executor=executor,
            )

        ref = build(SerialExecutor()).run(3)
        with build("parallel:2") as sim:
            hist = sim.run(3)
        assert history_fingerprint(hist) == history_fingerprint(ref)

    @needs_fork
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_shards_smaller_than_a_paper_batch_keep_serial_bytes(self, env_data, scheme):
        """The ``--scale paper`` shape: batches of 50 and, under Dirichlet
        0.1, many shards of 25 rows or fewer. Each worker owns a full-width
        and a small client; stacked into one program the small one would be
        zero-padded to 50 rows, and LeNet's ``(N, 144) @ (144, 48)`` does
        not round 21 rows of 50 the way it rounds 21 of 21. A worker pads
        nobody, so history and global model are serial's bytes."""
        shards, test = env_data
        big = shards[0].subset(np.arange(60))
        paper = [big, big, big.subset(np.arange(21)), big.subset(np.arange(13))]

        def run(executor):
            with make_sim(
                (paper, test), scheme, executor=executor, batch_size=50,
                local_iterations=4, base_iteration_times=[0.01, 0.012, 0.015, 0.02],
            ) as sim:
                return history_fingerprint(sim.run(3)), sim.global_state

        (ref, ref_state), (hist, state) = run(SerialExecutor()), run("parallel:2")
        assert hist == ref
        for name in ref_state:
            assert state[name].tobytes() == ref_state[name].tobytes(), name

    @needs_fork
    def test_partial_participation_equivalence(self, env_data):
        ref = make_sim(
            env_data, "fedca", executor=SerialExecutor(), clients_per_round=3
        ).run(4)
        with make_sim(
            env_data, "fedca", executor="parallel:2", clients_per_round=3
        ) as sim:
            hist = sim.run(4)
        assert history_fingerprint(hist) == history_fingerprint(ref)


class TestTraceDeterminism:
    """Telemetry event streams must be engine-independent (PR 2).

    The JSONL-serialized trace — every event, in order — has to come out
    byte-identical for serial and parallel engines; otherwise traces are
    useless as a cross-engine debugging baseline.
    """

    @staticmethod
    def run_traced(env_data, scheme, executor):
        from repro.obs import TraceRecorder, events_to_jsonl

        rec = TraceRecorder()
        with make_sim(env_data, scheme, executor=executor, recorder=rec) as sim:
            hist = sim.run(4)
        rec.close()
        return hist, events_to_jsonl(rec.events()), rec

    @needs_fork
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_identical_jsonl_streams(self, env_data, scheme):
        hist_s, jsonl_s, _ = self.run_traced(env_data, scheme, SerialExecutor())
        hist_p, jsonl_p, _ = self.run_traced(env_data, scheme, "parallel:4")
        assert history_fingerprint(hist_s) == history_fingerprint(hist_p)
        assert jsonl_s == jsonl_p
        assert jsonl_s  # non-vacuous: the trace actually has events

    @needs_fork
    def test_identical_modulo_wall_clock(self, env_data, tmp_path):
        # Events carry no wall-clock field, so the trace files the writer
        # leaves are plain byte-identical.
        from repro.obs import TraceRecorder

        def trace_file(executor, name):
            path = tmp_path / name
            rec = TraceRecorder(trace_path=str(path))
            with make_sim(env_data, "fedca", executor=executor, recorder=rec) as sim:
                sim.run(4)
            rec.close()
            return path.read_bytes()

        serial = trace_file(SerialExecutor(), "serial.jsonl")
        assert serial and trace_file("parallel:4", "parallel.jsonl") == serial

    def test_tracing_leaves_history_bitwise_identical(self, env_data):
        from repro.obs import TraceRecorder

        ref = make_sim(env_data, "fedca", executor="serial").run(4)
        rec = TraceRecorder()
        traced = make_sim(
            env_data, "fedca", executor="serial", recorder=rec
        ).run(4)
        assert history_fingerprint(traced) == history_fingerprint(ref)

    def test_counters_match_history(self, env_data):
        from repro.obs import TraceRecorder

        rec = TraceRecorder()
        hist = make_sim(
            env_data, "fedavg", executor="serial", recorder=rec
        ).run(3)
        assert rec.counters["repro_rounds_total"] == 3
        total_iters = sum(
            ev["iterations_run"]
            for r in hist.records
            for ev in r.client_events.values()
        )
        assert rec.counters["repro_iterations_total"] == total_iters
        assert rec.counters["repro_bytes_uploaded_total"] == sum(
            r.total_bytes for r in hist.records
        )


class TestParallelLifecycle:
    @needs_fork
    def test_workers_persist_across_rounds(self, env_data):
        executor = ParallelExecutor(workers=2)
        with make_sim(env_data, "fedavg", executor=executor) as sim:
            sim.run_round()
            first_pids = [p.pid for p in executor._procs]
            sim.run_round()
            assert [p.pid for p in executor._procs] == first_pids

    @needs_fork
    def test_close_reaps_workers(self, env_data):
        executor = ParallelExecutor(workers=2)
        sim = make_sim(env_data, "fedavg", executor=executor)
        sim.run_round()
        procs = list(executor._procs)
        sim.close()
        assert all(not p.is_alive() for p in procs)
        assert executor._procs == []

    @needs_fork
    def test_worker_death_falls_back_to_serial(self, env_data):
        executor = ParallelExecutor(workers=2)
        with make_sim(env_data, "fedavg", executor=executor) as sim:
            sim.run_round()
            executor._procs[0].terminate()
            executor._procs[0].join()
            with pytest.warns(RuntimeWarning, match="worker died"):
                sim.run_round()
            # Run continues (on the default engine) and history stays coherent.
            rec = sim.run_round()
            assert sim.history.num_rounds == 3
            assert rec.end_time > rec.start_time
            assert type(executor._fallback) is CohortExecutor

    @needs_fork
    def test_workers_train_stacked_chunks_and_report_them(self, env_data):
        """A worker hands its share of a round to one bound cohort engine
        and returns that engine's step counts with the reply: five clients
        on two workers are chunks of three and two, and FedAvg masks nobody,
        so every offered slot was live."""
        from repro.obs import TraceRecorder

        rec = TraceRecorder()
        executor = ParallelExecutor(workers=2)
        with make_sim(env_data, "fedavg", executor=executor, recorder=rec) as sim:
            sim.run(2)
        assert executor.occupancy() == {
            "steps": 2.0 * 2 * ITERS,
            "slot_steps": 2.0 * NUM_CLIENTS * ITERS,
            "member_steps": 2.0 * NUM_CLIENTS * ITERS,
            "occupancy": 1.0,
        }
        assert rec.counters["repro_cohort_steps_total"] == 2 * 2 * ITERS
        assert rec.counters["repro_cohort_slot_steps_total"] == 2 * NUM_CLIENTS * ITERS

    @needs_fork
    def test_worker_death_mid_chunk_falls_back_to_serial(self, env_data, monkeypatch):
        """A worker that dies *inside* a stacked chunk — the stack is
        loaded and its first member's round has begun — is the same
        documented degradation: one warning, one counted fallback, the
        round's unfinished jobs and the rest of the run go to the default
        engine on the parent replicas, no checkpoint. Worker 1 dies in its
        first round after worker 0 replied, so worker 0's three results
        were decoded as read-only views of an arena about to be unlinked:
        they are copied out first, and the crash round is the reference
        loop's bytes. (Later rounds are not: the parent replicas of worker
        0's clients never saw round 0.)"""
        import os

        from repro.algorithms import FedAvg
        from repro.obs import TraceRecorder
        from repro.runtime.transport import ShmTransport

        parent = os.getpid()

        class DiesInWorker(FedAvg):
            def begin(self, client, global_state, ctx, params):
                if ctx.round_index == 0 and client.client_id == 3 and os.getpid() != parent:
                    os._exit(1)
                return super().begin(client, global_state, ctx, params)

        detached = []
        real_detach = ShmTransport.detach

        def detach(self, results):
            assert all(not r.update[k].flags.writeable for r in results for k in r.update)
            real_detach(self, results)
            assert all(r.update[k].flags.writeable for r in results for k in r.update)
            detached.extend(r.client_id for r in results)

        monkeypatch.setattr(ShmTransport, "detach", detach)
        rec = TraceRecorder()
        executor = ParallelExecutor(workers=2)
        with make_sim(
            env_data, "fedavg", executor=executor, strategy=DiesInWorker(OPT),
            recorder=rec,
        ) as sim:
            with pytest.warns(RuntimeWarning, match="worker died"):
                record = sim.run_round()
            assert detached == [0, 2, 4]
            crash_state = {k: v.copy() for k, v in sim.global_state.items()}
            fallback = executor._fallback
            assert type(fallback) is CohortExecutor and not fallback.pad
            assert fallback.cohort_size == DEFAULT_COHORT_SIZE
            assert sorted(
                record.collected_clients + record.straggler_clients
            ) == list(range(NUM_CLIENTS))
            with pytest.raises(RuntimeError, match="worker-crash fallback"):
                executor.capture_run_state()
            sim.run(2)
            assert fallback.occupancy()["steps"] == 3 * ITERS  # one chunk a round
        rec.close()
        assert rec.counters[FALLBACK_COUNTER.format("worker_died")] == 1
        ref = make_sim(
            env_data, "fedavg", executor=SerialExecutor(), strategy=DiesInWorker(OPT)
        )
        ref.run(1)
        assert history_fingerprint(sim.history)[:1] == history_fingerprint(ref.history)
        for name, value in ref.global_state.items():
            assert crash_state[name].tobytes() == value.tobytes(), name

    @needs_fork
    def test_client_exception_propagates(self, env_data):
        # A deterministic error inside the client round (here: a job for a
        # client the run does not have) must surface in the parent, not
        # degrade the pool — it would fail identically under the serial
        # engine.
        executor = ParallelExecutor(workers=2)
        with make_sim(env_data, "fedavg", executor=executor) as sim:
            from repro.runtime.round import RoundContext

            ctx = RoundContext(
                round_index=0, round_start=0.0, iterations=1, deadline=1.0
            )
            arena = sim.global_model.arena()
            missing = len(sim.clients)
            with pytest.raises(RuntimeError, match="client round failed"):
                executor.run_round(arena.values, arena.buffers, [(missing, ctx)])


class TestFallbackWithoutFork:
    def test_bind_degrades_when_fork_missing(self, env_data, monkeypatch):
        monkeypatch.setattr(
            "repro.runtime.parallel.fork_available", lambda: False
        )
        sim = make_sim(env_data, "fedavg", executor=ParallelExecutor(workers=2))
        with pytest.warns(RuntimeWarning, match="cannot start.*'fork'"):
            hist = sim.run(2)
        assert sim.executor._fallback is not None
        ref = make_sim(env_data, "fedavg", executor=SerialExecutor()).run(2)
        assert history_fingerprint(hist) == history_fingerprint(ref)


def _shm_segments():
    from pathlib import Path

    from repro.runtime.transport import SEGMENT_PREFIX

    return sorted(p.name for p in Path("/dev/shm").glob(f"{SEGMENT_PREFIX}*"))


class TestTransportMatrix:
    """Tentpole invariant: the engine is an implementation detail.

    Histories AND JSONL traces must come out byte-identical whether a round
    runs serially or through the worker pool's shared-memory arenas — at 1
    and 2 workers, and under the inert ``+shards=S`` spelling, for the
    stateless (FedAvg) and stateful (FedCA) paths.
    """

    @needs_fork
    @needs_shm
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_bitwise_identical_histories_and_traces(self, env_data, scheme):
        ref_hist, ref_jsonl, _ = TestTraceDeterminism.run_traced(
            env_data, scheme, SerialExecutor()
        )
        assert ref_jsonl  # non-vacuous baseline
        for spec in ("parallel:1", "parallel:2", "parallel:2+shards=2"):
            hist, jsonl, _ = TestTraceDeterminism.run_traced(env_data, scheme, spec)
            assert history_fingerprint(hist) == history_fingerprint(ref_hist), spec
            assert jsonl == ref_jsonl, spec

    @needs_fork
    @needs_shm
    def test_shm_demotes_pipes_to_control_messages(self, env_data):
        executor = ParallelExecutor(workers=2)
        with make_sim(env_data, "fedavg", executor=executor) as sim:
            sim.run(2)
            stats = executor.ipc_stats()
        pipe_bytes = sum(v for k, v in stats.items() if 'transport="pipe"' in k)
        shm_bytes = sum(v for k, v in stats.items() if 'transport="shm"' in k)
        # The model and the updates ride the arenas; pipes carry only job
        # control, so they stay a rounding error next to the payload.
        assert stats[ipc_bytes_counter("shm", "broadcast")] > 0
        assert stats[ipc_bytes_counter("shm", "results")] > 0
        assert 0 < pipe_bytes <= 0.01 * shm_bytes


def _no_fork(monkeypatch):
    monkeypatch.setattr("repro.runtime.parallel.fork_available", lambda: False)


def _no_shm(monkeypatch):
    from multiprocessing import shared_memory

    def unavailable(*args, **kwargs):
        raise OSError(38, "Function not implemented")

    monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)


def _enospc_on_second_arena(monkeypatch):
    import errno
    import os

    real, calls = os.posix_fallocate, []

    def fallocate(fd, offset, length):
        calls.append(length)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", fallocate)


def _setup_raises(monkeypatch):
    from repro.runtime.transport import ShmTransport

    def boom(self, *args, **kwargs):
        raise RuntimeError("no shared memory for you")

    monkeypatch.setattr(ShmTransport, "setup", boom)


#: The recorder counter every engine fallback bumps, by reason.
FALLBACK_COUNTER = 'repro_engine_fallbacks_total{{reason="{}"}}'

#: How the pool can fail to start; each lands on the one serial degrade.
START_FAILURES = {
    "no-fork": _no_fork,
    "no-shm": _no_shm,
    "enospc": _enospc_on_second_arena,
    "setup-raises": _setup_raises,
}


class TestShmLifecycle:
    @needs_fork
    @needs_shm
    def test_segments_unlinked_on_close(self, env_data):
        from pathlib import Path

        executor = ParallelExecutor(workers=2)
        sim = make_sim(env_data, "fedavg", executor=executor)
        sim.run_round()
        names = shm_segment_names(executor)
        assert len(names) == 3  # broadcast arena + one result arena per worker
        assert all((Path("/dev/shm") / n).exists() for n in names)
        sim.close()
        assert all(not (Path("/dev/shm") / n).exists() for n in names)

    @needs_fork
    @needs_shm
    def test_worker_death_cleans_segments_and_refuses_checkpoint(self, env_data):
        from pathlib import Path

        executor = ParallelExecutor(workers=2)
        with make_sim(env_data, "fedavg", executor=executor) as sim:
            sim.run_round()
            names = shm_segment_names(executor)
            executor._procs[0].terminate()
            executor._procs[0].join()
            with pytest.warns(RuntimeWarning, match="worker died"):
                sim.run_round()
            assert executor._fallback is not None
            # Degradation tears the arenas down with the pool.
            assert all(not (Path("/dev/shm") / n).exists() for n in names)
            # The degraded pool still refuses to checkpoint (PR 3 invariant).
            with pytest.raises(RuntimeError, match="worker-crash fallback"):
                executor.capture_run_state()
            # The run itself continues serially with a coherent history.
            sim.run_round()
            assert sim.history.num_rounds == 3

    @needs_fork
    @needs_shm
    @pytest.mark.parametrize("failure", sorted(START_FAILURES))
    def test_setup_failure_degrades_to_serial(
        self, env_data, tmp_path, monkeypatch, failure
    ):
        """Whatever keeps the pool from starting, the outcome is the same:
        one RuntimeWarning, the default engine on the parent replicas with
        the reference loop's exact history and trace, a checkpointable
        simulator and a clean /dev/shm."""
        import warnings

        from repro.obs import TraceRecorder, events_to_jsonl
        from repro.persist import RunCheckpoint

        ckpt = str(tmp_path / "mid.ckpt")

        def run(executor):
            rec = TraceRecorder()
            with make_sim(env_data, "fedca", executor=executor, recorder=rec) as sim:
                sim.run(2)
                RunCheckpoint.from_simulator(sim).save(ckpt)
                hist = sim.run(2)
            rec.close()
            return history_fingerprint(hist), events_to_jsonl(rec.events()), rec.counters

        ref_hist, ref_trace, ref_counters = run(SerialExecutor())
        before = _shm_segments()
        START_FAILURES[failure](monkeypatch)
        pool = ParallelExecutor(workers=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            hist, trace, counters = run(pool)
        monkeypatch.undo()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1, messages
        assert "cannot start the parallel worker pool" in messages[0]
        fallback = pool._fallback
        assert type(fallback) is CohortExecutor and not fallback.pad
        assert fallback.occupancy()["steps"] > 0
        assert (hist, trace) == (ref_hist, ref_trace)
        # The fallback is counted once; counters stay out of the trace.
        assert counters[FALLBACK_COUNTER.format("pool_start")] == 1
        assert not any("fallbacks" in name for name in ref_counters)
        assert _shm_segments() == before

        # The checkpoint a degraded run wrote resumes into the same history.
        with make_sim(env_data, "fedca", executor="parallel:2+shards=2") as resumed:
            resumed.resume(ckpt)
            assert history_fingerprint(resumed.run(2)) == ref_hist


#: spec -> (engine type name, attributes the spec must have set). ``@shm``
#: and ``+shards=S`` are accepted spellings that change nothing.
GOOD_SPECS = {
    "parallel": ("ParallelExecutor", {}),
    "parallel:2": ("ParallelExecutor", {"workers": 2}),
    "parallel:2@shm": ("ParallelExecutor", {"workers": 2}),
    "parallel+shards=2": ("ParallelExecutor", {}),
    "parallel:2@shm+shards=2": ("ParallelExecutor", {"workers": 2}),
    "cohort:8": ("CohortExecutor", {"cohort_size": 8}),
}

#: spec -> the offending token the error message must name
BAD_SPECS = {
    "parallel@pipe": "pipe",
    "parallel@auto": "auto",
    "parallel:0": "0",
    "parallel+shard=2": "shard=2",
    "parallel+shards=0": "'0'",
    "parallel+shards=zero": "zero",
    "threads": "threads",
}


class TestSpecGrammar:
    """One table pins the executor grammar for the runtime and the CLI."""

    @pytest.mark.parametrize("spec", sorted(GOOD_SPECS))
    def test_accepted(self, spec):
        from repro.cli import build_parser

        kind, attrs = GOOD_SPECS[spec]
        ex = resolve_executor(spec)
        assert type(ex).__name__ == kind
        assert {name: getattr(ex, name) for name in attrs} == attrs
        assert not hasattr(ex, "shards")
        args = build_parser().parse_args(
            ["run", "--workload", "cnn", "--scheme", "fedavg", "--executor", spec]
        )
        assert args.executor == spec

    @pytest.mark.parametrize("spec", sorted(BAD_SPECS))
    def test_rejected_naming_the_token(self, spec, capsys):
        import re

        from repro.cli import build_parser

        token = re.escape(BAD_SPECS[spec])
        with pytest.raises(ValueError, match=token):
            resolve_executor(spec)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["run", "--workload", "cnn", "--scheme", "fedavg",
                 "--executor", spec]
            )
        assert exc.value.code == 2
        assert re.search(token, capsys.readouterr().err)


@pytest.fixture(scope="module")
def model_data():
    """``(shards, test)`` per model family, built once: four clients, one
    of them holding fewer samples than a batch (so the default engine gives
    it a program of its own width)."""
    built = {}

    def get(workload):
        if workload not in built:
            train, test = make_workload_data(
                workload, num_samples=240, num_classes=8, seed=3
            )
            parts = dirichlet_partition(train, 4, alpha=0.5, seed=4, min_samples=8)
            parts[1] = parts[1][:5]
            built[workload] = [train.subset(p) for p in parts], test
        return built[workload]

    return get


def _strategy(scheme):
    """A fresh strategy for a matrix case; FedCA variants profile every
    second round, so three rounds hold anchor and optimised ones."""
    from repro.algorithms import FedCAAdaptiveBatch

    fedca_cfg = FedCAConfig(profile_every=2)
    if scheme == "fedca+ab":
        return FedCAAdaptiveBatch(OPT, config=fedca_cfg)
    return build_strategy(
        scheme, OPT, fedca_config=fedca_cfg if scheme == "fedca" else None
    )


#: Every client always slowed 3×: FedCA+AB shrinks its batches, so a step's
#: members draw different row counts, and the deadline stops members early.
SLOWED = dict(gamma_fast=(2.0, 1e-6), gamma_slow=(2.0, 1e9), slowdown_range=(3.0, 3.0))

#: case id -> (model family, scheme, population, model kwargs, simulator kwargs)
REFERENCE_CASES = {
    f"{workload}-{scheme}-{pop_id}": (workload, scheme, population, {}, {})
    for workload in ("cnn", "lstm", "wrn")
    for scheme in ("fedavg", "fedca")
    for pop_id, population in (("eager", None), ("lazy2", "lazy:cache=2"))
}
REFERENCE_CASES.update(
    {
        "cnn-fedprox-eager": ("cnn", "fedprox", None, {}, {}),
        "cnn-deadline-stop-lazy2": ("cnn", "deadline-stop", "lazy:cache=2", {}, SLOWED),
        "cnn-fedca+ab-eager": ("cnn", "fedca+ab", None, {}, SLOWED),
        "wrn-dropout-fedca-lazy2": (
            "wrn", "fedca", "lazy:cache=2", {"dropout": 0.3}, {}
        ),
    }
)


class TestDefaultEngineIsTheReference:
    """``serial`` trains batched; :class:`SerialExecutor`, the per-client
    loop, is what it is held to: history JSON and the whole JSONL trace
    byte-equal, on every model family, scheme and population the engine
    splits programs for — and not one ``RuntimeWarning``. Six iterations
    a round, so FedCA and the deadline stop members mid-program."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_history_and_trace_are_the_reference(self, model_data, case):
        import warnings

        from repro.nn import build_model
        from repro.obs import TraceRecorder, events_to_jsonl
        from repro.runtime.export import history_to_json

        workload, scheme, population, model_kwargs, sim_kwargs = REFERENCE_CASES[case]
        shards, test = model_data(workload)

        def run(executor):
            rec = TraceRecorder()
            sim = FederatedSimulator(
                model_fn=lambda: build_model(
                    workload, rng=np.random.default_rng(7), **model_kwargs
                ),
                strategy=_strategy(scheme),
                shards=shards,
                test_set=test,
                base_iteration_times=[0.01, 0.012, 0.015, 0.02],
                batch_size=8,
                local_iterations=6,
                aggregation_fraction=0.75,
                seed=1,
                executor=executor,
                recorder=rec,
                population=population,
                **sim_kwargs,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with sim:
                    hist = sim.run(3)
            rec.close()
            return history_to_json(hist), events_to_jsonl(rec.events()), sim.executor

        ref_json, ref_trace, _ = run(SerialExecutor())
        got_json, got_trace, engine = run(None)
        assert type(engine) is CohortExecutor and engine.occupancy()["steps"] > 0
        assert ref_trace
        assert got_json == ref_json
        assert got_trace == ref_trace

    @pytest.mark.parametrize("cache", [None, 1, 3, 64])
    def test_lazy_cache_bounds_the_width(self, env_data, cache):
        """``lazy:cache=N`` keeps capacity N: the engine sizes itself to
        ``min(32, N)`` at bind, and no program it runs is wider."""
        population = None if cache is None else f"lazy:cache={cache}"
        with make_sim(env_data, "fedavg", executor=None, population=population) as sim:
            sim.run(2)
        width = min(DEFAULT_COHORT_SIZE, cache or DEFAULT_COHORT_SIZE)
        assert sim.executor.cohort_size == width
        assert max(sim.executor._models) <= width
        if cache is not None:
            assert sim.population.resident_capacity == cache
            assert len(sim.population.cache) <= cache

    def test_default_engine_hits_the_reference_cell(self, env_data, tmp_path):
        """One label, one result-cache cell: the default engine is served
        what :class:`SerialExecutor` wrote, without simulating."""
        import dataclasses

        from repro.experiments import get_workload
        from repro.experiments.runner import run_scheme
        from repro.obs import TraceRecorder
        from repro.persist import ResultCache
        from repro.runtime.export import history_to_json

        cfg = dataclasses.replace(
            get_workload("cnn", "micro"), num_samples=400, num_clients=4,
            local_iterations=3, batch_size=8,
        )
        cache = ResultCache(str(tmp_path / "cache"))

        def run(executor, recorder=None):
            return run_scheme(
                cfg, "fedavg", rounds=2, stop_at_target=False, seed=3,
                executor=executor, cache=cache, recorder=recorder,
            )

        ref = run(SerialExecutor())
        rec = TraceRecorder()
        hit = run(None, rec)
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        assert rec.counters["repro_result_cache_hits_total"] == 1
        assert history_to_json(hit.history) == history_to_json(ref.history)


class TestResolveExecutor:
    def test_default_is_serial(self):
        """``serial`` names the per-client loop's bytes, and the batched
        engine is what produces them: no spec reaches the reference."""
        for spec in (None, "serial", " Serial "):
            ex = resolve_executor(spec)
            assert type(ex) is CohortExecutor and not ex.pad, spec
            assert ex.name == "serial"
        assert resolve_executor("cohort").name == "cohort"
        assert resolve_executor("cohort").cohort_size == DEFAULT_COHORT_SIZE

    def test_parallel_specs(self):
        ex = resolve_executor("parallel:3")
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 3
        assert isinstance(resolve_executor("parallel"), ParallelExecutor)

    def test_instance_passthrough(self):
        ex = SerialExecutor()
        assert resolve_executor(ex) is ex

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            resolve_executor("threads")
        with pytest.raises(ValueError):
            resolve_executor("parallel:zero")
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_unbound_run_raises(self):
        from repro.runtime.round import RoundContext

        ctx = RoundContext(round_index=0, round_start=0.0, iterations=1, deadline=1.0)
        with pytest.raises(RuntimeError):
            SerialExecutor().run_round(np.zeros(1), np.zeros(0), [(0, ctx)])
        with pytest.raises(RuntimeError):
            ParallelExecutor(workers=1).run_round(np.zeros(1), np.zeros(0), [(0, ctx)])


# ----------------------------------------------------------------------
# The server model's arena is the global state
# ----------------------------------------------------------------------
def bn_wrn():
    """A micro WideResNet with BatchNorm: both global vectors non-empty."""
    from repro.nn import WideResNet

    return WideResNet(
        depth=10, widen_factor=1, num_classes=10, norm="batch",
        rng=np.random.default_rng(7),
    )


SERVER_ENGINES = {
    "default": lambda: None,
    "cohort:4": lambda: "cohort:4",
    "parallel:2": lambda: ParallelExecutor(workers=2),
    "reference": SerialExecutor,
}


class TestServerModelIsTheGlobalState:
    """Every engine receives the server model's own ``(P,)``/``(B,)``
    vectors, ``evaluate`` reads the model as aggregation left it, and the
    ``global_state`` dict a caller reads is a copy."""

    ROUNDS = 3

    def run(self, env_data, engine, monkeypatch, *, scribble=False):
        from repro.nn import Module
        from repro.runtime import ShmTransport

        sim = make_sim(
            env_data, "fedca", executor=SERVER_ENGINES[engine](), model_fn=bn_wrn
        )
        seen = {
            "run_round": 0, "driver": 0, "consumers": 0, "broadcast": 0,
            "loads_in_eval": [],
        }

        def is_server_arena(params, buffers) -> bool:
            arena = sim.global_model.arena()
            return params is arena.values and buffers is arena.buffers

        real_run_round = sim.executor.run_round

        def run_round(params, buffers, jobs):
            assert is_server_arena(params, buffers)
            seen["run_round"] += 1
            return real_run_round(params, buffers, jobs)

        monkeypatch.setattr(sim.executor, "run_round", run_round)
        strategy = sim.strategy
        real_cohort_round, real_client_round = strategy.cohort_round, strategy.client_round

        def cohort_round(cohort, jobs, params):
            assert params is sim.global_model.arena().values
            assert cohort._buffers is sim.global_model.arena().buffers
            seen["driver"] += 1
            return real_cohort_round(cohort, jobs, params)

        def client_round(client, params, buffers, ctx):
            assert is_server_arena(params, buffers)
            seen["driver"] += 1
            return real_client_round(client, params, buffers, ctx)

        if not engine.startswith("parallel"):
            # (A worker's drivers read the broadcast, checked below.)
            monkeypatch.setattr(strategy, "cohort_round", cohort_round)
            monkeypatch.setattr(strategy, "client_round", client_round)
            # ... and every consumer under a driver gets the vector, too.
            from repro.nn.cohort import CohortModel
            from repro.runtime import SimClient

            for owner, name in (
                (CohortModel, "load_global"),
                (CohortModel, "stacked_update"),
                (SimClient, "load_global"),
                (SimClient, "local_update"),
            ):
                real = getattr(owner, name)

                def consumer(obj, params, *rest, _real=real):
                    assert params is sim.global_model.arena().values
                    seen["consumers"] += 1
                    return _real(obj, params, *rest)

                monkeypatch.setattr(owner, name, consumer)
        real_broadcast = ShmTransport.broadcast

        def broadcast(transport, params, buffers):
            assert is_server_arena(params, buffers)
            generation = real_broadcast(transport, params, buffers)
            sent = np.concatenate([params, buffers])
            assert transport._payload().tobytes() == sent.tobytes()
            seen["broadcast"] += 1
            return generation

        monkeypatch.setattr(ShmTransport, "broadcast", broadcast)
        in_eval = [False]
        real_evaluate = sim.evaluate

        def evaluate():
            in_eval[0] = True
            try:
                return real_evaluate()
            finally:
                in_eval[0] = False

        monkeypatch.setattr(sim, "evaluate", evaluate)
        for name in ("load_state_dict", "load_buffer_dict"):
            real_load = getattr(Module, name)

            def spy(module, state, _real=real_load, _name=name):
                if in_eval[0]:
                    seen["loads_in_eval"].append(_name)
                return _real(module, state)

            monkeypatch.setattr(Module, name, spy)
        with sim:
            for _ in range(self.ROUNDS):
                sim.run_round()
                if scribble:
                    for copy in (sim.global_state, sim.global_buffers):
                        for value in copy.values():
                            value[...] = 7.0
            final = (sim.global_state, sim.global_buffers)
        monkeypatch.undo()
        return sim.history, final, seen

    @pytest.mark.parametrize("engine", list(SERVER_ENGINES))
    def test_engines_receive_the_server_arena(self, env_data, engine, monkeypatch):
        if engine.startswith("parallel") and not (fork_available() and shm_available()[0]):
            pytest.skip("the worker pool needs fork and POSIX shared memory")
        hist, (state, buffers), seen = self.run(env_data, engine, monkeypatch)
        assert state and buffers  # BatchNorm: both vectors are non-empty
        assert seen["run_round"] == self.ROUNDS
        assert seen["loads_in_eval"] == []
        if engine.startswith("parallel"):
            assert seen["broadcast"] == self.ROUNDS and seen["driver"] == 0
        else:
            assert seen["broadcast"] == 0 and seen["driver"] >= self.ROUNDS
            # load + update per program (cohort) or per client (reference)
            assert seen["consumers"] == 2 * seen["driver"]
        ref_hist, (ref_state, ref_buffers), _ = self.run(
            env_data, "reference", monkeypatch
        )
        assert history_fingerprint(hist) == history_fingerprint(ref_hist)
        for got, want in ((state, ref_state), (buffers, ref_buffers)):
            assert list(got) == list(want)
            for name in want:
                assert got[name].tobytes() == want[name].tobytes(), name

    def test_writing_into_global_state_copies_changes_nothing(
        self, env_data, monkeypatch
    ):
        hist, (state, buffers), _ = self.run(env_data, "default", monkeypatch)
        hist2, (state2, buffers2), _ = self.run(
            env_data, "default", monkeypatch, scribble=True
        )
        assert history_fingerprint(hist2) == history_fingerprint(hist)
        for name in state:
            assert state2[name].tobytes() == state[name].tobytes(), name
        for name in buffers:
            assert buffers2[name].tobytes() == buffers[name].tobytes(), name
