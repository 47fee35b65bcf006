"""Flight-recorder sink-layer tests: backpressure policies (exact drop
counts, ``block`` never loses events), JSONL resume truncation, recorder
integration (crash-flush, drop counters) and
byte-identical traces across serial / parallel@shm / cohort engines with a
``BufferedSink`` (DESIGN.md §13)."""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec, build_strategy
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.obs import (
    TRACE_DROPPED_TOTAL,
    BufferedSink,
    JsonlSink,
    SinkError,
    TraceEvent,
    TraceRecorder,
    TruncatedTraceError,
    client_iteration_counts,
)
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


# ----------------------------------------------------------------------
class TestFileSinks:
    def test_jsonl_sink_matches_canonical_encoding(self, tmp_path):
        events = [ev(i, x=i * 0.5) for i in range(5)]
        path = tmp_path / "t.jsonl"
        with JsonlSink(str(path)) as sink:
            for e in events:
                sink.write(e)
        assert path.read_bytes() == jsonl_bytes(events)

    def test_sync_returns_durable_offset_and_resume_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [ev(i) for i in range(4)]
        sink = JsonlSink(str(path))
        sink.write(events[0])
        sink.write(events[1])
        offset = sink.sync()
        assert offset == len(jsonl_bytes(events[:2]))
        sink.write(events[2])
        sink.close()
        # Resume at the synced offset: the un-checkpointed tail (events[2])
        # is discarded and appending continues seamlessly.
        with JsonlSink(str(path), resume_offset=offset) as sink2:
            sink2.write(events[3])
        assert path.read_bytes() == jsonl_bytes([events[0], events[1], events[3]])


# ----------------------------------------------------------------------
class _ListSink:
    """In-memory inner sink for buffered-sink unit tests."""

    def __init__(self, *, write_delay: float = 0.0, fail_after: int | None = None):
        self.events: list[TraceEvent] = []
        self.flushes = 0
        self.closed = False
        self.write_delay = write_delay
        self.fail_after = fail_after

    def write(self, event):
        if self.fail_after is not None and len(self.events) >= self.fail_after:
            raise OSError("disk full")
        if self.write_delay:
            time.sleep(self.write_delay)
        self.events.append(event)

    def flush(self):
        self.flushes += 1

    def sync(self):
        return None

    def close(self):
        self.closed = True


class TestBufferedSink:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            BufferedSink(_ListSink(), capacity=0)
        with pytest.raises(ValueError, match="policy"):
            BufferedSink(_ListSink(), policy="yolo")

    def test_drop_oldest_counts_are_exact(self):
        inner = _ListSink()
        drops: list[int] = []
        # autostart=False: no flusher races the producer, so the drop
        # accounting is exactly reproducible.
        sink = BufferedSink(
            inner,
            capacity=4,
            policy="drop_oldest",
            autostart=False,
            on_drop=drops.append,
        )
        for i in range(10):
            sink.write(ev(i))
        assert sink.dropped_events == 6
        assert sum(drops) == 6
        sink.close()
        # The newest `capacity` events survive, in order.
        assert [e.seq for e in inner.events] == [6, 7, 8, 9]

    def test_block_policy_never_loses_events(self):
        # A slow inner sink forces the queue to fill; block backpressure
        # stalls the producer instead of dropping.
        inner = _ListSink(write_delay=0.001)
        sink = BufferedSink(
            inner, capacity=8, policy="block", flush_interval=0.005
        )
        n = 200
        for i in range(n):
            sink.write(ev(i))
        sink.close()
        assert sink.dropped_events == 0
        assert [e.seq for e in inner.events] == list(range(n))

    def test_block_without_flusher_drains_inline(self):
        inner = _ListSink()
        sink = BufferedSink(inner, capacity=2, policy="block", autostart=False)
        for i in range(7):  # > capacity: producer must self-drain, not hang
            sink.write(ev(i))
        sink.close()
        assert [e.seq for e in inner.events] == list(range(7))

    def test_byte_identical_to_synchronous_jsonl(self, tmp_path):
        events = [ev(i, x=i) for i in range(50)]
        sync_path, buf_path = tmp_path / "sync.jsonl", tmp_path / "buf.jsonl"
        with JsonlSink(str(sync_path)) as sink:
            for e in events:
                sink.write(e)
        with BufferedSink(JsonlSink(str(buf_path)), flush_interval=0.002) as sink:
            for e in events:
                sink.write(e)
        assert buf_path.read_bytes() == sync_path.read_bytes()

    def test_flusher_failure_surfaces_on_producer(self):
        inner = _ListSink(fail_after=2)
        sink = BufferedSink(inner, capacity=100, autostart=False)
        for i in range(5):
            sink.write(ev(i))
        with pytest.raises(SinkError, match="disk full"):
            sink.flush()
        with pytest.raises(SinkError):
            sink.write(ev(5))  # sink is dead; later writes refuse too

    def test_sync_drains_then_reports_inner_offset(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = BufferedSink(JsonlSink(str(path)), autostart=False)
        events = [ev(i) for i in range(3)]
        for e in events:
            sink.write(e)
        assert sink.sync() == len(jsonl_bytes(events))
        sink.close()

    def test_close_is_idempotent_and_closes_inner(self):
        inner = _ListSink()
        sink = BufferedSink(inner)
        sink.write(ev(0))
        sink.close()
        sink.close()
        assert inner.closed and [e.seq for e in inner.events] == [0]


# ----------------------------------------------------------------------
class TestRecorderSinkIntegration:
    def test_trace_path_and_explicit_sink_are_exclusive(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            TraceRecorder(
                trace_path=str(tmp_path / "a.jsonl"),
                sink=JsonlSink(str(tmp_path / "b.jsonl")),
            )

    def test_buffered_recorder_stream_is_byte_identical(self, tmp_path):
        def emit_all(rec):
            rec.emit("round.start", sim_time=0.0, round_index=0, selected=[1])
            rec.span("client.round", sim_start=0.0, sim_end=2.0, client_id=1)
            rec.emit("round.end", sim_time=2.0, round_index=0, accuracy=0.5)
            rec.close()

        sync_path = tmp_path / "sync.jsonl"
        buf_path = tmp_path / "buf.jsonl"
        emit_all(TraceRecorder(trace_path=str(sync_path)))
        emit_all(TraceRecorder(trace_path=str(buf_path), buffered=True))
        assert buf_path.read_bytes() == sync_path.read_bytes()

    def test_lossy_sink_drops_mirror_into_counter(self, tmp_path):
        inner = JsonlSink(str(tmp_path / "t.jsonl"))
        rec = TraceRecorder(
            sink=BufferedSink(
                inner, capacity=2, policy="drop_oldest", autostart=False
            )
        )
        # The counter pre-registers at 0 so dashboards see the series
        # before anything drops.
        assert rec.counters[TRACE_DROPPED_TOTAL] == 0
        for i in range(5):
            rec.emit("round.end", sim_time=float(i), round_index=i)
        assert rec.counters[TRACE_DROPPED_TOTAL] == 3
        assert rec.sink_dropped_events == 3
        rec.close()

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
        with pytest.raises(TruncatedTraceError, match="block"):
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
class TestEngineTraceDeterminismWithBufferedSink:
    """The acceptance check: buffered/parallel/cohort traces must be
    byte-identical to the serial synchronous-sink trace."""

    @pytest.fixture(scope="class")
    def env_data(self):
        train, test = make_workload_data("cnn", num_samples=400, seed=3)
        parts = dirichlet_partition(train, 5, alpha=0.5, seed=4, min_samples=8)
        return [train.subset(p) for p in parts], test

    @staticmethod
    def run_traced(env_data, executor, path, *, buffered):
        shards, test = env_data
        rec = TraceRecorder(trace_path=str(path), buffered=buffered)
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
        return path.read_bytes()

    def test_buffered_serial_matches_sync_serial(self, env_data, tmp_path):
        sync = self.run_traced(
            env_data, "serial", tmp_path / "sync.jsonl", buffered=False
        )
        buf = self.run_traced(
            env_data, "serial", tmp_path / "buf.jsonl", buffered=True
        )
        assert sync and buf == sync

    @needs_fork
    @needs_shm
    def test_parallel_shm_buffered_matches_sync_serial(self, env_data, tmp_path):
        sync = self.run_traced(
            env_data, "serial", tmp_path / "sync.jsonl", buffered=False
        )
        par = self.run_traced(
            env_data, "parallel:2@shm", tmp_path / "par.jsonl", buffered=True
        )
        assert par == sync

    def test_cohort_buffered_matches_sync_cohort(self, env_data, tmp_path):
        # Within-engine: swapping the synchronous sink for a BufferedSink
        # must not change one byte of the cohort engine's trace.
        sync = self.run_traced(
            env_data, "cohort:8", tmp_path / "sync.jsonl", buffered=False
        )
        coh = self.run_traced(
            env_data, "cohort:8", tmp_path / "coh.jsonl", buffered=True
        )
        assert sync and coh == sync
