"""Coverage for smaller corners: module traversal, base-strategy helpers,
small-scale presets and the package surface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.algorithms import FedAvg, OptimizerSpec
from repro.experiments import get_workload
from repro.nn import LeNetCNN, Linear, ReLU, Sequential
from repro.runtime import RoundContext

from .helpers import global_vectors


class TestModuleTraversal:
    def test_named_modules_depth_first(self):
        inner = Sequential(Linear(2, 2, rng=np.random.default_rng(0)), ReLU())
        outer = Sequential(inner)
        names = [name for name, _ in outer.named_modules()]
        assert names == ["", "0", "0.0", "0.1"]

    def test_register_buffer_dtype(self):
        from repro.nn import Module

        class WithBuffer(Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("counts", np.arange(3, dtype=np.int64))

        m = WithBuffer()
        assert m.counts.dtype == np.float32  # buffers are float32 tensors


class TestRunLocalIterations:
    """The timed SGD loop every scheme shares: ``Strategy.client_round``."""

    def _client(self):
        from repro.data import Dataset
        from repro.runtime.client import SimClient
        from repro.sysmodel import LinkModel, SpeedTrace

        rng = np.random.default_rng(0)
        shard = Dataset(
            rng.normal(size=(16, 3, 12, 12)).astype(np.float32),
            (np.arange(16) % 4).astype(np.int64),
            10,
        )
        return SimClient(
            0,
            shard,
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(1)),
            batch_size=8,
            trace=SpeedTrace(0.5, seed=0, dynamic=False),
            link=LinkModel(),
            seed=0,
        )

    def test_returns_finish_time_and_loss(self):
        client = self._client()
        res = FedAvg(OptimizerSpec(lr=0.05)).client_round(
            client, *global_vectors(client.model), RoundContext(0, 10.0, 4, deadline=100.0)
        )
        assert res.compute_finish_time - res.compute_start_time == pytest.approx(2.0)
        assert res.compute_start_time == pytest.approx(
            10.0 + client.link.download_seconds(client.model_bytes)
        )
        assert res.mean_loss > 0

    def test_validates_iterations(self):
        class ZeroBudget(FedAvg):
            def begin(self, client, global_state, ctx, params):
                member = super().begin(client, global_state, ctx, params)
                member.budget = 0
                return member

        client = self._client()
        with pytest.raises(ValueError):
            ZeroBudget(OptimizerSpec(lr=0.05)).client_round(
                client, *global_vectors(client.model), RoundContext(0, 0.0, 4, deadline=100.0)
            )


class TestSmallScalePreset:
    def test_small_scale_parameters(self):
        micro = get_workload("cnn", "micro")
        small = get_workload("cnn", "small")
        assert small.num_clients == 32
        assert small.local_iterations == 50
        assert small.num_samples == micro.num_samples * 2
        assert small.scale == "small"

    def test_small_scale_data_builds(self):
        cfg = get_workload("cnn", "small")
        shards, test = cfg.make_data()
        assert len(shards) == 32
        assert all(len(s) >= 2 for s in shards)


class TestPackageSurface:
    def test_version_and_top_level_exports(self):
        assert repro.__version__ == "1.0.0"
        assert callable(repro.build_strategy)
        assert repro.FedCAConfig().profile_every == 10

    def test_all_submodules_import(self):
        import repro.algorithms
        import repro.compression
        import repro.core
        import repro.data
        import repro.experiments
        import repro.nn
        import repro.runtime
        import repro.sysmodel

        for mod in (
            repro.algorithms,
            repro.compression,
            repro.core,
            repro.data,
            repro.experiments,
            repro.nn,
            repro.runtime,
            repro.sysmodel,
        ):
            assert mod.__doc__, f"{mod.__name__} lacks a module docstring"
            for name in mod.__all__:
                assert hasattr(mod, name), f"{mod.__name__}.{name} missing"

    def test_run_path_imports_no_http_stack(self):
        """A run imports no HTTP server: nothing on the runtime, persistence
        or scale path pulls in ``http.server`` (and ``ssl`` with it)."""
        import os
        import subprocess
        import sys

        probe = (
            "import sys, repro.runtime, repro.persist, repro.scale; "
            "print(sorted({'ssl', 'http.server'} & set(sys.modules)))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True, env=env,
        )
        assert out.stdout.strip() == "[]"

    def test_optimizer_spec_builds_sgd(self):
        model = LeNetCNN(rng=np.random.default_rng(0))
        opt = OptimizerSpec(lr=0.1, weight_decay=0.01, momentum=0.5).build(model)
        assert opt.lr == 0.1
        assert opt.weight_decay == 0.01
        assert opt.momentum == 0.5
