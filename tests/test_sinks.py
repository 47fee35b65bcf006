"""Trace-writer tests: canonical JSONL bytes, blocking backpressure,
resume truncation and its bounds check, flusher failures surfacing on the
producer, a file-backed recorder holding no events in memory, and trace
files byte-equal to the in-memory trace on every engine (DESIGN.md §13)."""

from __future__ import annotations

import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec, build_strategy
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.obs import (
    SinkError,
    TraceEvent,
    TraceRecorder,
    TraceWriter,
    TruncatedTraceError,
    client_iteration_counts,
    events_to_jsonl,
)
from repro.obs import sinks
from repro.obs.sinks import encode_jsonl
from repro.runtime import FederatedSimulator, shm_available
from repro.runtime.parallel import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)
needs_shm = pytest.mark.skipif(
    not shm_available()[0], reason="POSIX shared memory unavailable"
)


def ev(seq: int, kind: str = "round.end", **fields) -> TraceEvent:
    return TraceEvent(
        seq=seq,
        kind=kind,
        sim_time=float(seq),
        round_index=seq if kind.startswith("round") else None,
        client_id=None,
        fields=fields,
    )


def jsonl_bytes(events) -> bytes:
    return b"".join(encode_jsonl(e) for e in events)


def write_all(path, events, **kwargs) -> TraceWriter:
    writer = TraceWriter(str(path), **kwargs)
    for e in events:
        writer.write(e)
    return writer


# ----------------------------------------------------------------------
class TestFileSinks:
    def test_jsonl_sink_matches_canonical_encoding(self, tmp_path):
        events = [ev(i, x=i * 0.5) for i in range(5)]
        path = tmp_path / "t.jsonl"
        write_all(path, events).close()
        assert path.read_bytes() == jsonl_bytes(events)
        assert path.read_text() == events_to_jsonl(events)

    def test_sync_returns_durable_offset_and_resume_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [ev(i) for i in range(4)]
        writer = write_all(path, events[:2])
        offset = writer.sync()
        assert offset == len(jsonl_bytes(events[:2]))
        writer.write(events[2])
        writer.close()
        # Resume at the synced offset: the un-checkpointed tail (events[2])
        # is discarded and appending continues seamlessly.
        write_all(path, events[3:], resume_offset=offset).close()
        assert path.read_bytes() == jsonl_bytes([events[0], events[1], events[3]])

    def test_resume_past_the_end_of_the_file_is_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"x" * 10)
        with pytest.raises(SinkError, match=f"{path}.*10 bytes.*byte 11"):
            TraceWriter(str(path), resume_offset=11)
        assert path.read_bytes() == b"x" * 10  # nothing written
        with pytest.raises(SinkError, match="0 bytes"):
            TraceWriter(str(tmp_path / "missing.jsonl"), resume_offset=1)
        assert not (tmp_path / "missing.jsonl").exists()


# ----------------------------------------------------------------------
class TestBufferedSink:
    """The writer's queue: producer-side appends drained by the flusher."""

    def test_block_policy_never_loses_events(self, tmp_path, monkeypatch):
        # A tiny queue forces the producer to wait for the flusher; block
        # backpressure stalls it instead of dropping.
        monkeypatch.setattr(sinks, "QUEUE_CAPACITY", 8)
        monkeypatch.setattr(sinks, "FLUSH_INTERVAL", 0.001)
        events = [ev(i) for i in range(200)]
        path = tmp_path / "t.jsonl"
        write_all(path, events).close()
        assert path.read_bytes() == jsonl_bytes(events)

    def test_block_without_flusher_drains_inline(self, tmp_path, monkeypatch):
        # With its flusher gone (stopped, or not copied into a forked
        # child) a full queue must not hang the producer: it drains on the
        # calling thread, in order.
        monkeypatch.setattr(sinks, "QUEUE_CAPACITY", 2)
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(str(path))
        writer._stop.set()
        writer._thread.join(timeout=10.0)
        assert not writer._thread.is_alive()
        events = [ev(i) for i in range(7)]
        for e in events:
            writer.write(e)
            assert len(writer._queue) <= 2
        writer.flush()
        assert path.read_bytes() == jsonl_bytes(events)
        writer.close()

    def test_byte_identical_to_synchronous_jsonl(self, tmp_path, monkeypatch):
        # The flusher's batches, whatever their boundaries, add up to the
        # bytes of encoding and writing every event inline — with threads
        # switching as often as the interpreter allows and a queue that
        # keeps the producer waiting on the flusher.
        monkeypatch.setattr(sinks, "FLUSH_INTERVAL", 0.0005)
        monkeypatch.setattr(sinks, "QUEUE_CAPACITY", 16)
        events = [ev(i, x=i) for i in range(2000)]
        sync_path = tmp_path / "sync.jsonl"
        with open(sync_path, "wb") as fh:
            for e in events:
                fh.write(encode_jsonl(e))
        path = tmp_path / "t.jsonl"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            write_all(path, events).close()
        finally:
            sys.setswitchinterval(interval)
        assert path.read_bytes() == sync_path.read_bytes()

    @pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full"
    )
    def test_flusher_failure_surfaces_on_producer(self):
        writer = write_all("/dev/full", [ev(i) for i in range(5)])
        with pytest.raises(SinkError, match="No space left"):
            writer.flush()
        with pytest.raises(SinkError):
            writer.write(ev(5))  # the writer is dead; later writes refuse too
        with pytest.raises(SinkError):
            writer.close()

    def test_sync_drains_then_reports_inner_offset(self, tmp_path):
        events = [ev(i) for i in range(3)]
        writer = write_all(tmp_path / "t.jsonl", events)
        assert writer.sync() == len(jsonl_bytes(events))
        writer.close()

    def test_close_is_idempotent_and_closes_inner(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = write_all(path, [ev(0)])
        writer.close()
        writer.close()
        assert not writer._thread.is_alive()
        assert path.read_bytes() == jsonl_bytes([ev(0)])


# ----------------------------------------------------------------------
class TestRecorderSinkIntegration:
    def test_buffered_recorder_stream_is_byte_identical(self, tmp_path):
        # ``buffered=`` is accepted and ignored: the same writer either way.
        def emit_all(rec):
            rec.emit("round.start", sim_time=0.0, round_index=0, selected=[1])
            rec.span("client.round", sim_start=0.0, sim_end=2.0, client_id=1)
            rec.emit("round.end", sim_time=2.0, round_index=0, accuracy=0.5)
            rec.close()

        plain_path = tmp_path / "plain.jsonl"
        buf_path = tmp_path / "buf.jsonl"
        emit_all(TraceRecorder(trace_path=str(plain_path)))
        emit_all(TraceRecorder(trace_path=str(buf_path), buffered=True))
        assert buf_path.read_bytes() == plain_path.read_bytes()
        assert plain_path.read_bytes().count(b"\n") == 3

    def test_file_recorder_holds_no_events_in_memory(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = TraceRecorder(trace_path=str(path))
        tracemalloc.start()
        try:
            for i in range(50_000):
                rec.emit("round.end", sim_time=float(i), round_index=i)
            rec.flush()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rec.close()
        assert held < 1 << 20, f"{held} bytes still held after flush()"
        assert rec.num_events == 50_000
        assert path.read_bytes().count(b"\n") == 50_000
        with pytest.raises(RuntimeError, match=str(path)):
            rec.events()

    def test_resume_past_the_end_of_the_trace_never_pads_it(self, tmp_path):
        path = tmp_path / "t.jsonl"
        rec = TraceRecorder(trace_path=str(path))
        for i in range(5):
            rec.emit("round.end", sim_time=float(i), round_index=i)
        state = rec.snapshot_state()
        rec.close()
        assert state["sink_offset"] == path.stat().st_size
        path.write_bytes(b"")  # the trace was replaced after the checkpoint

        resumed = TraceRecorder(trace_path=str(path), defer_sink=True)
        resumed.restore_state(state)
        with pytest.raises(SinkError, match="0 bytes"):
            resumed.attach_sink(offset=state["sink_offset"])
        resumed.emit("round.end", sim_time=5.0, round_index=5)
        resumed.close()
        assert path.read_bytes() == b""

    def test_run_exception_still_flushes_trace(self, tmp_path):
        # Satellite fix: a mid-run exception must not lose the trace —
        # sim.run() flushes the recorder in a finally block.
        train, test = make_workload_data("cnn", num_samples=120, seed=3)
        parts = dirichlet_partition(train, 3, alpha=0.5, seed=4, min_samples=8)
        path = tmp_path / "t.jsonl"
        rec = TraceRecorder(trace_path=str(path), buffered=True)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01, 0.012, 0.015],
            batch_size=8,
            local_iterations=2,
            seed=1,
            recorder=rec,
        )

        def boom(_record):
            raise RuntimeError("mid-run crash")

        with pytest.raises(RuntimeError, match="mid-run crash"):
            sim.run(3, progress=boom)
        sim.close()
        # No close() call: the finally-flush alone must have landed the
        # round's events on disk, parseable line by line.
        lines = path.read_text().splitlines()
        kinds = [json.loads(line)["kind"] for line in lines]
        assert "round.end" in kinds
        rec.close()


# ----------------------------------------------------------------------
class TestAnalysisOverflowDetection:
    def test_ring_overflow_is_detected(self):
        rec = TraceRecorder(capacity=2)
        for i in range(5):
            rec.emit(
                "client.round",
                sim_time=float(i),
                round_index=i,
                client_id=0,
                iterations_run=3,
            )
        with pytest.raises(TruncatedTraceError, match="ring overflow"):
            client_iteration_counts(rec.events())

    def test_sink_gap_is_detected_with_remediation_hint(self):
        dicts = [
            ev(s, "client.round", iterations_run=1).as_dict()
            for s in (0, 1, 4)
        ]
        for d in dicts:
            d["client"] = 0
        with pytest.raises(TruncatedTraceError, match="lines were cut"):
            client_iteration_counts(dicts)

    def test_complete_trace_passes(self):
        rec = TraceRecorder()
        rec.emit(
            "client.round",
            sim_time=0.0,
            round_index=0,
            client_id=2,
            iterations_run=7,
        )
        assert client_iteration_counts(rec.events()) == {2: [7]}

    def test_seqless_dicts_skip_validation(self):
        # Hand-built event dicts (unit-test style) carry no seq field and
        # must not trip the overflow detector.
        dicts = [
            {"kind": "client.round", "client": 1, "fields": {"iterations_run": 2}}
        ]
        assert client_iteration_counts(dicts) == {1: [2]}


# ----------------------------------------------------------------------
class TestTraceFileEqualsMemory:
    """A trace file holds exactly the bytes of the in-memory trace of the
    same run, on every engine."""

    @pytest.fixture(scope="class")
    def env_data(self):
        train, test = make_workload_data("cnn", num_samples=400, seed=3)
        parts = dirichlet_partition(train, 5, alpha=0.5, seed=4, min_samples=8)
        return [train.subset(p) for p in parts], test

    @staticmethod
    def run_traced(env_data, executor, rec):
        shards, test = env_data
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedca", OptimizerSpec(lr=0.05)),
            shards=shards,
            test_set=test,
            base_iteration_times=[0.01, 0.012, 0.015, 0.02, 0.03],
            batch_size=8,
            local_iterations=6,
            aggregation_fraction=0.8,
            seed=1,
            executor=executor,
            recorder=rec,
        )
        try:
            sim.run(3)
        finally:
            sim.close()
            rec.close()

    @pytest.mark.parametrize(
        "executor",
        [
            "serial",
            pytest.param("parallel:2", marks=[needs_fork, needs_shm]),
            "cohort:4",
        ],
    )
    def test_trace_file_equals_in_memory_trace(self, env_data, tmp_path, executor):
        path = tmp_path / "t.jsonl"
        self.run_traced(env_data, executor, TraceRecorder(trace_path=str(path)))
        memory = TraceRecorder()
        self.run_traced(env_data, executor, memory)
        text = events_to_jsonl(memory)
        assert '"kind": "fedca.earlystop.eval"' in text  # non-vacuous
        assert path.read_text() == text
