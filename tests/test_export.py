"""Tests for run-history serialization."""

from __future__ import annotations

import json

import numpy as np

from repro.runtime import (
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
            client_events={
                0: {
                    "anchor": False,
                    "iterations_run": np.int64(8),
                    "early_stop_iteration": 8,
                    "eager": {"conv1.weight": np.int64(3)},
                    "retransmitted": ["conv1.weight"],
                },
                1: {"iterations_run": 10},
            },
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
            client_events={},
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

    def test_numpy_arrays_and_nesting_roundtrip(self):
        h = sample_history()
        h.records[0].client_events[0]["grad_norms"] = np.array([1.5, 2.5])
        h.records[0].client_events[0]["zero_d"] = np.array(3.0)
        h.records[0].client_events[0]["nested"] = {
            np.int64(4): (np.float32(0.5), {np.bool_(True)})
        }
        data = json.loads(history_to_json(h))
        ev = data["records"][0]["client_events"]["0"]
        assert ev["grad_norms"] == [1.5, 2.5]
        assert ev["zero_d"] == 3.0
        assert ev["nested"] == {"4": [0.5, [True]]}

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
