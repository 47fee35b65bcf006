"""Phase-profiler tests (DESIGN.md §13): nested span accounting, per-round
percentages summing to 100±1%, gauge-only mirroring and profiler wiring
through the runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec, build_strategy
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.obs import (
    NULL_PROFILER,
    NullPhaseProfiler,
    PhaseProfiler,
    TraceRecorder,
    phase_gauge_name,
)
from repro.runtime import FederatedSimulator


class FakeClock:
    """Deterministic clock: each call advances by a scripted step."""

    def __init__(self, step: float = 1.0):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def run_profiled(rounds: int = 3, executor: str = "serial"):
    train, test = make_workload_data("cnn", num_samples=150, seed=3)
    parts = dirichlet_partition(train, 3, alpha=0.5, seed=4, min_samples=8)
    prof = PhaseProfiler()
    rec = TraceRecorder()
    sim = FederatedSimulator(
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
        strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
        shards=[train.subset(p) for p in parts],
        test_set=test,
        base_iteration_times=[0.01, 0.012, 0.015],
        batch_size=8,
        local_iterations=3,
        seed=1,
        executor=executor,
        recorder=rec,
        profiler=prof,
    )
    try:
        sim.run(rounds)
    finally:
        sim.close()
    return prof, rec


# ----------------------------------------------------------------------
class TestPhaseSpans:
    def test_nested_paths_accumulate_under_parent(self):
        clock = FakeClock()
        prof = PhaseProfiler(clock=clock)
        with prof.phase("broadcast"):
            with prof.phase("pack"):
                pass
        assert "broadcast" in prof.totals
        assert "broadcast/pack" in prof.totals
        assert prof.counts["broadcast/pack"] == 1
        # Child time is inclusive within the parent span.
        assert prof.totals["broadcast"] > prof.totals["broadcast/pack"]

    def test_span_seconds_match_fake_clock(self):
        clock = FakeClock(step=1.0)
        prof = PhaseProfiler(clock=clock)
        with prof.phase("select"):
            pass  # enter ticks once, exit ticks once -> 1.0s
        assert prof.totals["select"] == pytest.approx(1.0)

    def test_round_lap_percentages_sum_to_100(self):
        clock = FakeClock(step=0.5)
        prof = PhaseProfiler(clock=clock)
        for _ in range(3):
            prof.begin_round()
            with prof.phase("select"):
                pass
            with prof.phase("client.train"):
                with prof.phase("sgd"):
                    pass
            with prof.phase("aggregate"):
                pass
        prof.finish()
        laps = prof.round_breakdowns()
        assert len(laps) == 3
        for lap in laps:
            tracked = sum(
                s for k, s in lap.items() if k != "total"
            )  # depth-0 phases + (untracked)
            assert tracked == pytest.approx(lap["total"], rel=1e-9)
            assert lap["total"] > 0
            assert "client.train/sgd" not in lap  # laps are depth-0 only

    def test_real_run_percentages_sum_to_100(self):
        # The acceptance check: on a real simulation, per-round depth-0
        # phases + (untracked) account for 100±1% of each round's lap.
        prof, _rec = run_profiled(rounds=3)
        laps = prof.round_breakdowns()
        assert len(laps) == 3
        for lap in laps:
            pct = 100.0 * sum(
                s for k, s in lap.items() if k != "total"
            ) / lap["total"]
            assert pct == pytest.approx(100.0, abs=1.0)
        # The big phases of a serial round all got instrumented.
        for phase in ("select", "client.train", "aggregate", "evaluate"):
            assert phase in prof.totals, phase

    def test_report_table_sums_to_100_percent(self):
        prof, _rec = run_profiled(rounds=2)
        report = prof.report()
        assert "executor=serial" in report
        assert "client.train" in report
        assert "(untracked)" in report
        assert report.splitlines()[-1].startswith("total")
        assert "100.0%" in report

    def test_finish_is_idempotent(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.begin_round()
        prof.finish()
        prof.finish()
        assert len(prof.rounds) == 1


# ----------------------------------------------------------------------
class TestMirroring:
    def test_phases_surface_as_gauges_never_counters(self):
        prof, rec = run_profiled(rounds=2)
        name = phase_gauge_name("client.train", "serial")
        assert name in rec.gauges
        assert rec.gauges[name] > 0.0
        # Wall-clock must stay out of the counter registry: the
        # crash-resume oracle compares counters bitwise (DESIGN.md §13).
        assert not any("phase_seconds" in k for k in rec.counters)

    def test_nested_paths_use_dot_labels(self):
        prof = PhaseProfiler(clock=FakeClock())
        rec = TraceRecorder()
        with prof.phase("broadcast"):
            with prof.phase("pack"):
                pass
        prof.mirror(rec)
        assert phase_gauge_name("broadcast.pack", "serial") in rec.gauges

    def test_mirror_tolerates_disabled_recorder(self):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("select"):
            pass
        prof.mirror(None)  # no-op, no crash
        prof.mirror(object())  # not .enabled -> no-op


# ----------------------------------------------------------------------
class TestNullProfiler:
    def test_null_profiler_records_nothing(self):
        with NULL_PROFILER.phase("select"):
            with NULL_PROFILER.phase("nested"):
                pass
        NULL_PROFILER.begin_round()
        NULL_PROFILER.finish()
        assert NULL_PROFILER.totals == {}
        assert NULL_PROFILER.rounds == []
        assert not NULL_PROFILER.enabled

    def test_null_report_explains_how_to_enable(self):
        assert "profiler=PhaseProfiler()" in NullPhaseProfiler().report()

    def test_simulator_defaults_to_null_profiler(self):
        train, test = make_workload_data("cnn", num_samples=80, seed=3)
        parts = dirichlet_partition(train, 2, alpha=0.5, seed=4, min_samples=8)
        sim = FederatedSimulator(
            model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
            strategy=build_strategy("fedavg", OptimizerSpec(lr=0.05)),
            shards=[train.subset(p) for p in parts],
            test_set=test,
            base_iteration_times=[0.01, 0.012],
            batch_size=8,
            local_iterations=2,
            seed=1,
        )
        try:
            assert sim.profiler is NULL_PROFILER
            sim.run(1)
        finally:
            sim.close()


class TestExecutorLabels:
    def test_cohort_label_lands_in_gauges(self):
        prof, rec = run_profiled(rounds=2, executor="cohort:2")
        assert prof.executor_label == "cohort"
        assert phase_gauge_name("client.train", "cohort") in rec.gauges
