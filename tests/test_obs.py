"""Telemetry-layer unit tests: recorder semantics, exporters, FedCA
decision hooks, and trace-only reconstruction of the paper's analyses."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.core import FedCAConfig
from repro.core.earlystop import EarlyStopPolicy
from repro.core.profiler import ProfiledCurves
from repro.core.retransmit import deviated_layers
from repro.obs import (
    EVENT_KINDS,
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    client_iteration_counts,
    configure_logging,
    eager_iterations,
    early_stop_iterations,
    events_to_jsonl,
    metrics_to_text,
    summary_table,
)


def curves(n=5, values=(0.2, 0.4, 0.6, 0.8, 1.0)):
    arr = np.asarray(values, dtype=np.float64)
    return ProfiledCurves(0, np.stack([arr, arr, arr**2]), ("w", "b"))


class TestNullRecorder:
    def test_disabled_and_inert(self):
        rec = NullRecorder()
        assert rec.enabled is False
        # Every interface method is a no-op returning None.
        assert rec.emit("round.start", sim_time=0.0) is None
        assert rec.span("client.round", sim_start=0.0, sim_end=1.0) is None
        assert rec.merge_client_trace(0, 0, [{"kind": "x", "sim_time": 0.0}]) is None
        assert rec.counter("c") is None
        assert rec.gauge("g", 1.0) is None
        rec.flush()
        rec.close()

    def test_shared_singleton_usable_as_context_manager(self):
        with NULL_RECORDER as rec:
            assert rec is NULL_RECORDER


class TestTraceRecorder:
    def test_emit_orders_and_counts(self):
        rec = TraceRecorder()
        rec.emit("round.start", sim_time=1.5, round_index=0, selected=[0, 1])
        rec.emit("round.end", sim_time=2.5, round_index=0)
        evs = rec.events()
        assert [e.seq for e in evs] == [0, 1]
        assert [e.kind for e in evs] == ["round.start", "round.end"]
        assert evs[0].fields == {"selected": [0, 1]}
        assert rec.num_events == 2
        assert rec.events(kind="round.end") == [evs[1]]

    def test_span_carries_duration(self):
        rec = TraceRecorder()
        rec.span("client.round", sim_start=1.0, sim_end=3.5, client_id=2)
        (ev,) = rec.events()
        assert ev.sim_time == 1.0
        assert ev.fields["duration"] == 2.5

    def test_ring_capacity_drops_oldest(self):
        rec = TraceRecorder(capacity=3)
        for i in range(5):
            rec.emit("round.start", sim_time=float(i))
        assert rec.dropped_events == 2
        assert rec.num_events == 5
        assert [e.seq for e in rec.events()] == [2, 3, 4]
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_merge_client_trace_stamps_ids(self):
        rec = TraceRecorder()
        rec.merge_client_trace(
            3, 7, [{"kind": "fedca.eager", "sim_time": 2.0, "fields": {"tau": 4}}]
        )
        rec.merge_client_trace(3, 8, None)  # tolerated: no trace buffered
        (ev,) = rec.events()
        assert (ev.round_index, ev.client_id) == (3, 7)
        assert ev.fields == {"tau": 4}

    def test_counters_and_gauges(self):
        rec = TraceRecorder()
        rec.counter("repro_rounds_total")
        rec.counter("repro_rounds_total", 2)
        rec.gauge("repro_round_accuracy", 0.5)
        rec.gauge("repro_round_accuracy", 0.75)
        assert rec.counters["repro_rounds_total"] == 3
        assert rec.gauges["repro_round_accuracy"] == 0.75

    def test_jsonl_sink_streams_every_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(capacity=2, trace_path=str(path)) as rec:
            for i in range(4):
                rec.emit("round.start", sim_time=float(i), round_index=i)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        # The file gets all 4 events; a ring's capacity does not apply.
        assert [r["seq"] for r in rows] == [0, 1, 2, 3]
        assert all(r["kind"] == "round.start" for r in rows)
        rec.close()  # idempotent


class TestExporters:
    def make_recorder(self):
        rec = TraceRecorder()
        rec.emit("round.start", sim_time=0.5, round_index=0)
        rec.counter("repro_rounds_total", 2)
        rec.gauge("repro_round_accuracy", 0.25)
        rec.gauge("repro_sim_time_seconds", 3.0)
        return rec

    def test_events_to_jsonl(self):
        rec = self.make_recorder()
        text = events_to_jsonl(rec)
        assert text == events_to_jsonl(rec.events())  # iterable form too
        row = json.loads(text.splitlines()[0])
        assert row == {
            "seq": 0, "kind": "round.start", "sim_time": 0.5,
            "round": 0, "client": None, "fields": {},
        }

    def test_metrics_text_prometheus_format(self):
        rec = self.make_recorder()
        text = metrics_to_text(rec)
        assert "# TYPE repro_rounds_total counter\nrepro_rounds_total 2\n" in text
        assert "# TYPE repro_round_accuracy gauge\nrepro_round_accuracy 0.25" in text
        assert "repro_sim_time_seconds 3\n" in text  # integral floats stay short
        assert metrics_to_text(TraceRecorder()) == ""

    def test_summary_table(self):
        table = summary_table(self.make_recorder())
        assert "Telemetry summary" in table
        assert "repro_rounds_total" in table and "counter" in table
        assert "trace_events" in table and "1 " in table


class TestEarlyStopDecision:
    CFG = FedCAConfig(min_local_iterations=2, beta=0.5)

    def policy(self, config=None):
        return EarlyStopPolicy([curves()], config or self.CFG)

    def test_reasons_cover_short_circuits(self):
        pol = self.policy()
        assert pol.decide(1, np.zeros(1), 10.0).reason(0) == "min_iterations"
        assert pol.decide(5, np.zeros(1), 10.0).reason(0) == "curve_exhausted"
        assert pol.decide(5, np.zeros(1), 10.0).stop.tolist() == [True]
        off = self.policy(FedCAConfig(enable_early_stop=False))
        assert off.decide(3, np.full(1, 100.0), 1.0).reason(0) == "disabled"
        with pytest.raises(ValueError):
            pol.decide(0, np.zeros(1), 10.0)

    def test_net_benefit_terms_exposed(self):
        pol = self.policy()
        keep = pol.decide(2, np.array([0.1]), 100.0)
        assert keep.reason(0) == "net_benefit_positive" and not keep.stop[0]
        assert keep.net[0] == pytest.approx(keep.benefit[0] - keep.cost[0])
        stop = pol.decide(2, np.array([99.0]), 100.0)  # elapsed ≈ deadline
        assert stop.reason(0) == "net_benefit_negative" and stop.stop[0]
        assert stop.net[0] < 0
        fields = stop.fields(0, 99.0)
        assert fields == {
            "tau": 2, "b": float(stop.benefit[0]), "c": float(stop.cost[0]),
            "n": float(stop.net[0]), "elapsed": 99.0, "stop": True,
            "reason": "net_benefit_negative",
        }
        assert type(fields["stop"]) is bool and type(fields["b"]) is float


class TestDecisionSinks:
    def test_retransmit_sink(self):
        final = {"w": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}
        sent = {"w": np.array([1.0, 0.0]), "b": np.array([0.0, -1.0])}
        calls = []
        out = deviated_layers(
            final, sent, 0.5, sink=lambda layer, cos, dev: calls.append(
                (layer, round(cos, 6), dev))
        )
        assert out == ["b"]
        assert ("w", 1.0, False) in calls and ("b", -1.0, True) in calls


class TestTraceReconstruction:
    """Trace-only analyses must match the RunHistory ground truth."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.algorithms import OptimizerSpec, build_strategy
        from repro.data import dirichlet_partition, make_workload_data
        from repro.nn import LeNetCNN
        from repro.runtime import FederatedSimulator

        train, test = make_workload_data("cnn", num_samples=300, seed=3)
        parts = dirichlet_partition(train, 4, alpha=0.5, seed=4, min_samples=8)
        rec = TraceRecorder()
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy(
                "fedca",
                OptimizerSpec(lr=0.05, weight_decay=0.01),
                fedca_config=FedCAConfig(profile_every=2),
            ),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01, 0.015, 0.02, 0.03],
            batch_size=8,
            local_iterations=6,
            seed=1,
            recorder=rec,
        )
        history = sim.run(5)
        sim.close()
        return history, rec

    def test_event_kinds_are_known(self, traced_run):
        _, rec = traced_run
        assert {e.kind for e in rec.events()} <= set(EVENT_KINDS)

    def test_early_stop_reconstruction(self, traced_run):
        history, rec = traced_run
        assert early_stop_iterations(rec.events()) == (
            history.early_stop_iterations()
        )

    @pytest.mark.parametrize("effective", [False, True])
    def test_eager_reconstruction(self, traced_run, effective):
        history, rec = traced_run
        assert eager_iterations(rec.events(), effective=effective) == (
            history.eager_iterations(effective=effective)
        )

    def test_client_iteration_counts(self, traced_run):
        history, rec = traced_run
        counts = client_iteration_counts(rec.events())
        expected: dict[int, list[int]] = {}
        for r in history.records:
            for cid, ev in sorted(r.client_events.items()):
                expected.setdefault(cid, []).append(ev["iterations_run"])
        assert counts == expected

    def test_dict_form_accepted(self, traced_run):
        history, rec = traced_run
        dicts = [e.as_dict() for e in rec.events()]
        assert early_stop_iterations(dicts) == history.early_stop_iterations()


class TestLogging:
    def test_configure_levels_and_namespace(self):
        configure_logging("warning")
        logger = logging.getLogger("repro")
        assert logger.level == logging.WARNING
        assert len(logger.handlers) == 1
        configure_logging("debug")  # reconfiguring replaces, not stacks
        assert len(logger.handlers) == 1
        assert logger.level == logging.DEBUG
        configure_logging("info")

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging("loud")
