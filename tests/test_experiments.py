"""Tests for the experiment harness: configs, reports, probe, runners."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec
from repro.core import LayerSampler
from repro.data import make_workload_data
from repro.experiments import (
    SCALES,
    cdf_points,
    downsample,
    format_series,
    format_table,
    get_workload,
    make_environment,
    probe_curves,
    run_overhead,
    run_scheme,
    RunSpec,
)
from repro.experiments.configs import WorkloadConfig
from repro.nn import LeNetCNN
from repro.runtime.simulator import EVAL_BATCH

from .helpers import held_array_bytes


def _preset_sim(preset):
    cfg = get_workload(preset)
    return make_environment(
        cfg, __import__("repro").build_strategy("fedavg", cfg.optimizer_spec())
    )


def _lazy_lenet_sim():
    """The lazy e2e workload's shape: a 1-channel 8×8 LeNet over 100 of
    20 000 subsampled clients a round, paged through ``lazy:cache=64``."""
    from repro.algorithms import build_strategy
    from repro.data import make_image_dataset, train_test_split
    from repro.runtime import FederatedSimulator
    from repro.scale import SubsampledShards
    from repro.sysmodel import iteration_time_for

    pool = make_image_dataset(num_samples=2560, num_classes=4, channels=1, image_size=8, seed=5)
    train, test = train_test_split(pool, test_fraction=0.2, seed=6)
    return FederatedSimulator(
        model_fn=lambda: LeNetCNN(
            in_channels=1, image_size=8, num_classes=4, conv_channels=(2, 2),
            fc_sizes=(8, 8), rng=np.random.default_rng(7),
        ),
        strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05, weight_decay=0.0)),
        shards=SubsampledShards(train, 20_000, 16, alpha=0.5, seed=0),
        test_set=test,
        base_iteration_times=lambda cid: iteration_time_for(cid, 0.01, seed=0),
        batch_size=8,
        local_iterations=2,
        aggregation_fraction=0.8,
        clients_per_round=100,
        population="lazy:cache=64",
    )


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["A", "Bee"], [[1, 22], [333, 4]])
        lines = out.splitlines()
        assert lines[0].startswith("A")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_format_table_row_width_check(self):
        with pytest.raises(ValueError):
            format_table(["A"], [[1, 2]])

    def test_format_series_downsamples(self):
        xs = list(range(100))
        out = format_series("s", xs, xs, max_points=5)
        assert out.count(":") == 5

    def test_format_series_length_check(self):
        with pytest.raises(ValueError):
            format_series("s", [1, 2], [1])

    def test_downsample_preserves_endpoints(self):
        vals = list(range(50))
        out = downsample(vals, 7)
        assert out[0] == 0 and out[-1] == 49
        assert len(out) == 7

    def test_downsample_short_input_unchanged(self):
        assert downsample([1, 2, 3], 10) == [1, 2, 3]

    def test_downsample_validation(self):
        with pytest.raises(ValueError):
            downsample([1, 2, 3], 1)

    def test_cdf_points(self):
        xs, ys = cdf_points([3, 1, 2])
        assert xs == [1, 2, 3]
        assert ys == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]

    def test_cdf_points_empty(self):
        assert cdf_points([]) == ([], [])


class TestConfigs:
    def test_all_presets_resolve(self):
        for name in ("cnn", "lstm", "wrn"):
            for scale in SCALES:
                cfg = get_workload(name, scale)
                assert isinstance(cfg, WorkloadConfig)
                assert cfg.scale == scale

    def test_unknown_workload_or_scale(self):
        with pytest.raises(ValueError):
            get_workload("vgg")
        with pytest.raises(ValueError):
            get_workload("cnn", "huge")

    def test_paper_scale_matches_section_51(self):
        cfg = get_workload("cnn", "paper")
        assert cfg.num_clients == 128
        assert cfg.local_iterations == 125
        assert cfg.batch_size == 50
        assert cfg.link_mbps == pytest.approx(13.7)
        assert cfg.lr == 0.01
        assert cfg.target_accuracy == 0.55

    def test_make_data_shards_match_clients(self):
        cfg = get_workload("cnn")
        shards, test = cfg.make_data()
        assert len(shards) == cfg.num_clients
        assert all(len(s) > 0 for s in shards)
        assert len(test) > 0

    def test_model_fn_is_deterministic(self):
        cfg = get_workload("cnn")
        a = cfg.model_fn()()
        b = cfg.model_fn()()
        np.testing.assert_array_equal(
            a.state_dict()["conv1.weight"], b.state_dict()["conv1.weight"]
        )

    def test_environment_assembles(self):
        cfg = get_workload("cnn")
        sim = make_environment(cfg, __import__("repro").build_strategy("fedavg", cfg.optimizer_spec()))
        assert len(sim.clients) == cfg.num_clients
        assert sim.local_iterations == cfg.local_iterations

    def test_evaluate_leaves_no_activation_pinned(self):
        """``evaluate()`` pushes the test set through in blocks of
        ``EVAL_BATCH`` rows, the row-independent prefix in chunks of one
        training step's rows; a layer that kept its im2col buffer / input /
        mask / gate cache from those forwards would hold arrays until the
        next evaluation."""
        for preset in ("wrn", "lstm"):
            cfg = get_workload(preset)
            sim = make_environment(
                cfg, __import__("repro").build_strategy("fedavg", cfg.optimizer_spec())
            )
            sim.evaluate()
            for name, layer in sim.global_model.named_modules():
                held = held_array_bytes(layer)
                param_bytes = sum(p.data.nbytes for p in layer._parameters.values())
                assert held <= param_bytes, (preset, name, type(layer).__name__, held)
            assert sim.global_model.training  # evaluate() restores train mode

    def test_evaluate_peaks_below_the_forward_half_of_a_step(self):
        """On the wrn preset the chunked prefix keeps ``evaluate()``'s
        traced peak under the forward half of one training step's bytes
        (step rows at the model's per-row figure); one 400-row forward
        peaked at 10.9 MiB against that 7.2 MiB."""
        import tracemalloc

        cfg = get_workload("wrn")
        sim = make_environment(
            cfg, __import__("repro").build_strategy("fedavg", cfg.optimizer_spec())
        )
        sim.evaluate()
        tracemalloc.start()
        try:
            sim.evaluate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        row_bytes = sim.population.factory.step_bytes() // cfg.batch_size
        assert peak <= sim.executor.step_rows() * row_bytes / 2, peak

    @pytest.mark.parametrize("preset", ["cnn", "wrn", "lstm", "lazy"])
    def test_evaluate_is_the_single_forward_accuracy(self, preset, monkeypatch):
        """Chunking the prefix moves no logit: after two rounds, the
        accuracy equals one eval-mode forward over the whole test set, at
        the run's own chunk and at 7 rows."""
        sim = _lazy_lenet_sim() if preset == "lazy" else _preset_sim(preset)
        with sim:
            sim.run(2)
            test = sim.test_set
            assert len(test) <= EVAL_BATCH  # one block: one forward
            model = sim.global_model.eval()
            logits = model(test.x)
            model.train(True)
            expected = float(np.mean(logits.argmax(axis=1) == test.y))
            assert sim.evaluate() == expected
            monkeypatch.setattr(sim.executor, "step_rows", lambda: 7)
            assert sim.evaluate() == expected


class TestProbe:
    def _setup(self):
        train, test = make_workload_data("cnn", num_samples=200, seed=1)
        model_fn = lambda: LeNetCNN(rng=np.random.default_rng(7))
        state = model_fn().state_dict()
        return model_fn, train, state

    def test_probe_curve_shapes(self):
        model_fn, shard, state = self._setup()
        res = probe_curves(
            model_fn=model_fn,
            shard=shard,
            global_state=state,
            optimizer=OptimizerSpec(lr=0.05),
            iterations=5,
            batch_size=8,
        )
        assert res.full.model_curve.shape == (5,)
        assert res.full.model_curve[-1] == pytest.approx(1.0)
        assert res.full.names == tuple(state)
        assert res.sampled is None

    def test_probe_with_sampler(self):
        model_fn, shard, state = self._setup()
        sampler = LayerSampler.for_model(model_fn(), seed=0)
        res = probe_curves(
            model_fn=model_fn,
            shard=shard,
            global_state=state,
            optimizer=OptimizerSpec(lr=0.05),
            iterations=5,
            batch_size=8,
            sampler=sampler,
        )
        assert res.sampled is not None
        assert res.sampled.model_curve[-1] == pytest.approx(1.0)
        # Sampled curves approximate the full ones.
        gap = np.max(np.abs(res.sampled.model_curve - res.full.model_curve))
        assert gap < 0.5

    def test_probe_does_not_mutate_global_state(self):
        model_fn, shard, state = self._setup()
        before = {k: v.copy() for k, v in state.items()}
        probe_curves(
            model_fn=model_fn,
            shard=shard,
            global_state=state,
            optimizer=OptimizerSpec(lr=0.05),
            iterations=3,
            batch_size=8,
        )
        for k in state:
            np.testing.assert_array_equal(state[k], before[k])

    def test_probe_validation(self):
        model_fn, shard, state = self._setup()
        with pytest.raises(ValueError):
            probe_curves(
                model_fn=model_fn,
                shard=shard,
                global_state=state,
                optimizer=OptimizerSpec(lr=0.05),
                iterations=0,
                batch_size=8,
            )


class TestRunner:
    def test_run_scheme_result_fields(self):
        cfg = get_workload("cnn")
        res = run_scheme(RunSpec(cfg, "fedavg", rounds=2, stop_at_target=False, seed=0))
        assert res.workload == "cnn"
        assert res.scheme == "FedAvg"
        assert res.history.num_rounds == 2
        assert res.mean_round_time > 0

    def test_run_scheme_fedca_uses_scale_profile_period(self):
        cfg = get_workload("cnn")
        res = run_scheme(RunSpec(cfg, "fedca", rounds=1, stop_at_target=False, seed=0))
        assert res.scheme == "FedCA"


class TestOverheadAccounting:
    def test_paper_architecture_counts_match_paper_order(self):
        data = run_overhead(paper_arch=True, iterations=125)
        # Paper §5.5 reports 618 / 905 / 9974 sampled parameters.
        assert 400 <= data["cnn"]["sampled_params"] <= 900
        assert data["lstm"]["sampled_params"] == 905
        assert 5000 <= data["wrn"]["sampled_params"] <= 12000
        # WRN-28-10 is the paper's 36M-parameter model.
        assert abs(data["wrn"]["total_params"] - 36.5e6) < 1.5e6

    def test_sampled_memory_far_below_full(self):
        data = run_overhead(paper_arch=True, iterations=100)
        wrn = data["wrn"]
        assert wrn["sampled_bytes_per_round"] * 1000 < wrn["full_bytes_per_round"]


class TestMultiSeed:
    def test_summary_aggregation(self):
        from repro.experiments import MultiSeedSummary

        s = MultiSeedSummary(
            scheme="X",
            seeds=(0, 1, 2),
            times_to_target=(10.0, float("nan"), 20.0),
            mean_round_times=(1.0, 2.0, 3.0),
        )
        assert s.mean_time_to_target == 15.0
        assert s.hit_rate == 2 / 3
        assert s.mean_round_time == 2.0

    def test_run_multiseed_tiny(self):
        from repro.experiments import format_multiseed, get_workload, run_multiseed

        cfg = get_workload("cnn")
        out = run_multiseed(cfg, ["fedavg"], seeds=(0,), rounds=2)
        assert "FedAvg" in out
        assert len(out["FedAvg"].times_to_target) == 1
        text = format_multiseed(out)
        assert "Hit rate" in text

    def test_empty_seeds_rejected(self):
        import pytest as _pytest

        from repro.experiments import get_workload, run_multiseed

        with _pytest.raises(ValueError):
            run_multiseed(get_workload("cnn"), ["fedavg"], seeds=())
