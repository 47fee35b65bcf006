"""Tests for run-history serialization and the client-event table."""

from __future__ import annotations

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    ClientEventTable,
    RoundRecord,
    RunHistory,
    history_from_dict,
    history_to_dict,
    history_to_json,
)


def sample_history():
    h = RunHistory()
    h.append(
        RoundRecord(
            round_index=0,
            start_time=0.0,
            end_time=2.5,
            accuracy=0.3,
            mean_loss=1.2,
            collected_clients=(0, 1),
            straggler_clients=(2,),
            mean_iterations=7.5,
            total_bytes=1000,
            events=ClientEventTable.from_events(("conv1.weight",), {
                0: {
                    "anchor": False,
                    "iterations_run": np.int64(8),
                    "early_stop_iteration": 8,
                    "eager": {"conv1.weight": np.int64(3)},
                    "retransmitted": ["conv1.weight"],
                },
                1: {"iterations_run": 10},
            }),
        )
    )
    h.append(
        RoundRecord(
            round_index=1,
            start_time=2.5,
            end_time=5.0,
            accuracy=0.45,
            mean_loss=0.9,
            collected_clients=(0, 2),
            straggler_clients=(),
            mean_iterations=10.0,
            total_bytes=900,
            events=ClientEventTable.from_events(("conv1.weight",), {}),
        )
    )
    return h


class TestExport:
    def test_dict_roundtrip(self):
        h = sample_history()
        data = history_to_dict(h)
        back = history_from_dict(data)
        assert back.num_rounds == h.num_rounds
        assert back.records[0].accuracy == h.records[0].accuracy
        assert back.records[0].collected_clients == h.records[0].collected_clients
        assert back.records[0].client_events[0]["iterations_run"] == 8

    def test_json_is_valid_and_numpy_free(self):
        text = history_to_json(sample_history(), indent=2)
        data = json.loads(text)  # raises if numpy scalars leaked through
        assert data["num_rounds"] == 2
        assert data["records"][0]["client_events"]["0"]["eager"]["conv1.weight"] == 3

    def test_empty_history(self):
        h = RunHistory()
        assert history_to_dict(h)["records"] == []

    def test_real_run_exports(self):
        from repro.algorithms import OptimizerSpec, build_strategy
        from repro.data import dirichlet_partition, make_workload_data
        from repro.nn import LeNetCNN
        from repro.runtime import FederatedSimulator

        train, test = make_workload_data("cnn", num_samples=300, seed=0)
        parts = dirichlet_partition(train, 3, alpha=1.0, seed=1, min_samples=8)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedca", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01] * 3,
            batch_size=8,
            local_iterations=5,
            seed=0,
        )
        hist = sim.run(3)
        json.loads(history_to_json(hist))  # FedCA events must serialise too


# ----------------------------------------------------------------------
# The client-event table: every shape a scheme emits comes back verbatim
# ----------------------------------------------------------------------
LAYERS = ("conv1.weight", "conv1.bias", "fc.weight", "fc.bias")
_COUNT = st.integers(0, 2**40)
_TAU = st.integers(1, 200)


@st.composite
def client_round_events(draw):
    """One client's round events as FedAvg/FedProx/FedAda, DeadlineStop, a
    FedCA anchor or an optimised FedCA member emits them, with or without
    the wire layer's byte counts."""
    kind = draw(st.sampled_from(["fedavg", "deadline-stop", "anchor", "optimised"]))
    ev: dict = {}
    if kind in ("anchor", "optimised"):
        ev["anchor"] = kind == "anchor"
    ev["iterations_run"] = draw(st.integers(0, 200))
    if kind == "anchor":
        ev.update(early_stop_iteration=None, eager={}, retransmitted=[])
        ev["profiling_bytes"] = draw(_COUNT)
    elif kind != "fedavg":
        ev["early_stop_iteration"] = draw(st.none() | _TAU)
    if kind == "optimised":
        taus = draw(st.lists(st.none() | _TAU, min_size=len(LAYERS), max_size=len(LAYERS)))
        sent = sorted((tau, j) for j, tau in enumerate(taus) if tau is not None)
        again = draw(st.lists(st.booleans(), min_size=len(sent), max_size=len(sent)))
        ev["eager"] = {LAYERS[j]: tau for tau, j in sent}
        ev["retransmitted"] = [LAYERS[j] for (_, j), a in zip(sent, again) if a]
    if draw(st.booleans()):
        ev["wire"] = {"raw_bytes": draw(_COUNT), "wire_bytes": draw(_COUNT)}
    return ev


@st.composite
def round_events(draw):
    evs = draw(st.lists(client_round_events(), max_size=6))
    cids = draw(
        st.lists(st.integers(0, 2**31 - 1), unique=True, min_size=len(evs), max_size=len(evs))
    )
    return dict(zip(cids, evs))


def _record(index, events):
    return RoundRecord(
        round_index=index, start_time=float(index), end_time=index + 1.0,
        accuracy=0.5, mean_loss=1.0, collected_clients=tuple(events),
        straggler_clients=(), mean_iterations=1.0, total_bytes=10,
        events=ClientEventTable.from_events(LAYERS, events),
    )


class TestClientEventTable:
    GROUPS = {
        "anchor": {"anchor", "eager", "retransmitted"},
        "early_stop_iteration": {"early_stop_iteration"},
        "profiling_bytes": {"profiling_bytes"},
        "wire": {"raw_bytes", "wire_bytes"},
    }

    @given(st.lists(round_events(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_rows_return_the_emitted_dicts(self, rounds):
        history = RunHistory()
        for i, events in enumerate(rounds):
            history.append(_record(i, events))
            table = history.records[-1].events
            # JSON-equal in the same key order; json.dumps also refuses
            # any NumPy scalar that leaked through.
            assert json.dumps(table.rows()) == json.dumps(list(events.values()))
            assert dict(history.records[-1].client_events) == events
            # Only the column groups some row's keys bring.
            keys = {key for ev in events.values() for key in ev}
            assert set(table.data.dtype.names) == {"cid", "iterations_run"}.union(
                *(names for key, names in self.GROUPS.items() if key in keys)
            )
        # The exported form re-imports to the same bytes, and the
        # checkpoint form to the same tables.
        text = history_to_json(history)
        assert history_to_json(history_from_dict(json.loads(text))) == text
        restored = RunHistory.from_state(history.state())
        assert history_to_json(restored) == text
        assert [r.events.data.dtype for r in restored.records] == [
            r.events.data.dtype for r in history.records
        ]

    @pytest.mark.parametrize(
        "event",
        [
            {"iterations_run": 3, "grad_norm": 1.5},
            {"early_stop_iteration": 3, "iterations_run": 3},
            {"early_stop_iteration": 3},
            {"iterations_run": 3.0},
            {"iterations_run": True},
            {"iterations_run": -1},
            {"iterations_run": 3, "early_stop_iteration": "3"},
            {"anchor": 1, "iterations_run": 3, "eager": {}, "retransmitted": []},
            {"anchor": False, "iterations_run": 3, "eager": {"fc.weight": 0},
             "retransmitted": []},
            {"anchor": False, "iterations_run": 3, "eager": {"fc.weight": 2},
             "retransmitted": ["fc.bias"]},
            {"anchor": False, "iterations_run": 3, "eager": [], "retransmitted": []},
            {"iterations_run": 3, "wire": {"wire_bytes": 1, "raw_bytes": 2}},
            {"iterations_run": 3, "wire": {"raw_bytes": "2", "wire_bytes": 1}},
            "not a dict",
        ],
    )
    def test_from_events_rejects_what_no_scheme_emits(self, event):
        with pytest.raises(ValueError):
            ClientEventTable.from_events(LAYERS, {0: event})
        data = history_to_dict(sample_history())
        data["records"][1]["client_events"] = {"0": event}
        with pytest.raises(ValueError):
            history_from_dict(data)

    @pytest.mark.parametrize("cid", ["05", " 5", "+5", "x"])
    def test_history_from_dict_rejects_a_client_id_it_would_not_export(self, cid):
        data = history_to_dict(sample_history())
        data["records"][1]["client_events"] = {cid: {"iterations_run": 3}}
        with pytest.raises(ValueError):
            history_from_dict(data)

    def test_eager_layers_follow_the_given_layout(self):
        # A layer the model lacks, or two layers sent at one iteration out
        # of layout order, cannot come back as they went in.
        for eager in ({"nope": 2}, {"fc.weight": 2, "conv1.bias": 2}):
            event = {"anchor": False, "iterations_run": 3, "eager": eager, "retransmitted": []}
            with pytest.raises(ValueError):
                ClientEventTable.from_events(LAYERS, {0: event})

    @staticmethod
    def retained_per_client_round(scheme: str) -> float:
        """A 20-round micro LSTM history of ``scheme``, read back from its
        JSON: what its client events keep alive per client-round, over what
        the same history keeps with every round's events emptied."""
        from repro.experiments.configs import get_workload
        from repro.experiments.runner import RunSpec, run_scheme

        history = run_scheme(
            RunSpec(get_workload("lstm", "micro"), scheme, rounds=20, stop_at_target=False)
        ).history
        text = history_to_json(history)
        data = json.loads(text)
        for record in data["records"]:
            record["client_events"] = {}
        bare = json.dumps(data)
        client_rounds = sum(len(r.client_events) for r in history.records)
        assert client_rounds == 240

        def retained(payload: str) -> int:
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = history_from_dict(json.loads(payload))
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        return (retained(text) - retained(bare)) / client_rounds

    def test_client_events_retain_at_most_100_bytes_per_client_round(self):
        """FedCA. (One dict per client held about 480 B per client-round
        here.)"""
        per_client_round = self.retained_per_client_round("fedca")
        assert per_client_round <= 100, f"{per_client_round:.0f} B per client-round"

    def test_fedavg_events_keep_only_their_two_columns(self):
        """A FedAvg row carries ``cid`` and ``iterations_run``: 8 B. (With
        every column, about 37 B per client-round here.)"""
        per_client_round = self.retained_per_client_round("fedavg")
        assert per_client_round <= 24, f"{per_client_round:.0f} B per client-round"
