"""Self-tests of the benchmark harness (outside tier-1 ``testpaths``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``.
The pure-arithmetic tests take milliseconds; the ``smoke`` fixture runs
``run.py --smoke`` once (about a minute) and several tests read its output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from layers import PER_LAYER, class_targets, instance_targets  # noqa: E402
from report import END_TO_END, VERDICTS, relative_spread, verdict  # noqa: E402
from spans import Tracer, percentile_with_tail  # noqa: E402
from workloads import WORKLOADS, rounds_for  # noqa: E402


@pytest.fixture
def fake_clock(monkeypatch):
    """Replace the tracer's clock with a hand-advanced one."""

    class Clock:
        t = 0.0

        def __call__(self) -> float:
            return self.t

    clock = Clock()
    monkeypatch.setattr(spans, "now", clock)
    return clock


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpanArithmetic:
    def test_self_time_is_duration_minus_direct_children(self, fake_clock):
        tracer = Tracer()
        tracer.current_round = 1
        outer = tracer.begin("outer")  # 0 .. 10
        fake_clock.t = 1.0
        mid = tracer.begin("mid")  # 1 .. 7
        fake_clock.t = 2.0
        leaf = tracer.begin("leaf")  # 2 .. 5
        fake_clock.t = 5.0
        tracer.finish(leaf)
        fake_clock.t = 7.0
        tracer.finish(mid)
        fake_clock.t = 8.0
        leaf2 = tracer.begin("leaf")  # 8 .. 9, child of outer
        fake_clock.t = 9.0
        tracer.finish(leaf2)
        fake_clock.t = 10.0
        tracer.finish(outer)

        s = tracer.summary([1])
        assert s.total == {"outer": 10.0, "mid": 6.0, "leaf": 4.0}
        # outer: 10 - (mid 6 + leaf2 1); mid: 6 - leaf 3; grandchildren are
        # not subtracted twice.
        assert s.self_time == {"outer": 3.0, "mid": 3.0, "leaf": 4.0}
        assert s.count == {"outer": 1, "mid": 1, "leaf": 2}
        assert s.child_coverage("outer") == pytest.approx(0.7)
        assert [tracer.parent[i] for i in (outer, mid, leaf, leaf2)] == [-1, 0, 1, 0]

    def test_top_total_skips_nested_members_and_filters_by_ancestor(self, fake_clock):
        tracer = Tracer()
        tracer.current_round = 1
        a = tracer.begin("merge")
        fake_clock.t = 1.0
        b = tracer.begin("emit")  # nested in merge: one obs cost, not two
        fake_clock.t = 3.0
        tracer.finish(b)
        fake_clock.t = 4.0
        tracer.finish(a)
        c = tracer.begin("emit")  # top-level emit
        fake_clock.t = 6.0
        tracer.finish(c)
        s = tracer.summary([1])
        assert s.top_total(["merge", "emit"]) == (6.0, 2)
        assert s.top_total(["emit"]) == (4.0, 2)
        assert s.top_total(["emit"], under=["merge"]) == (2.0, 1)

    def test_summary_keeps_only_requested_rounds(self, fake_clock):
        tracer = Tracer()
        for round_id, length in ((0, 5.0), (1, 2.0), (2, 3.0)):
            tracer.current_round = round_id
            index = tracer.begin("round")
            fake_clock.t += length
            tracer.finish(index)
        assert tracer.summary([1, 2]).total == {"round": 5.0}
        assert tracer.summary().total == {"round": 10.0}
        assert tracer.summary([2]).count == {"round": 1}

    def test_wrapper_records_and_passes_through(self, fake_clock):
        tracer = Tracer()

        class Box:
            def double(self, x):
                fake_clock.t += 2.0
                return 2 * x

        tracer.install([(Box, "double", "Box.double")])
        assert Box().double(4) == 8
        tracer.active = False
        assert Box().double(5) == 10  # inactive: no span
        tracer.uninstall()
        assert tracer.summary().count == {"Box.double": 1}
        assert tracer.summary().total == {"Box.double": 2.0}

    def test_wrapper_closes_span_on_exception(self, fake_clock):
        tracer = Tracer()

        def boom():
            raise KeyError("x")

        traced = tracer.wrap("boom", boom)
        tracer.active = True
        with pytest.raises(KeyError):
            traced()
        assert tracer._open == -1
        assert tracer.summary().count == {"boom": 1}


class TestInstallUninstall:
    def test_every_patched_attribute_is_restored(self):
        from workloads import build_env

        def snapshot(targets):
            return [
                (owner, attr, vars(owner).get(attr, "<inherited>"))
                for owner, attr, _ in targets
            ]

        env = build_env("cnn_fedavg_serial", 0, oracle=False, workdir="")
        try:
            targets = class_targets() + instance_targets(env.sim)
            before = snapshot(targets)
            tracer = Tracer()
            tracer.install(class_targets())
            tracer.install(instance_targets(env.sim))
            patched = snapshot(targets)
            assert all(
                new is not old
                for (_, _, new), (_, _, old) in zip(patched, before, strict=True)
            )
            tracer.uninstall()
            after = snapshot(targets)
        finally:
            env.sim.close()
        assert len(before) == len(after)
        for (owner, attr, old), (_, _, new) in zip(before, after, strict=True):
            assert new is old, f"{owner!r}.{attr} not restored"
        assert not tracer.active

    def test_missing_attribute_fails_loudly(self):
        class Empty:
            pass

        with pytest.raises(AttributeError):
            Tracer().install([(Empty, "renamed_away", "x")])


class TestPercentileRule:
    def test_needs_ten_samples_beyond(self):
        assert percentile_with_tail([1.0] * 10) is None
        assert percentile_with_tail([]) is None

    def test_highest_percentile_with_ten_beyond(self):
        samples = [float(i) for i in range(1, 41)]  # 1..40
        percentile, value = percentile_with_tail(samples[::-1])
        assert percentile == 75.0  # 30 of 40 at or below
        assert value == 30.0
        assert sum(s > value for s in samples) == 10

    def test_eleven_samples_gives_the_minimum(self):
        percentile, value = percentile_with_tail([float(i) for i in range(11)])
        assert value == 0.0
        assert percentile == pytest.approx(100 / 11)


# ----------------------------------------------------------------------
# comparator
# ----------------------------------------------------------------------
class TestComparator:
    def test_bit_equal_runs_are_unchanged(self):
        assert verdict([1.0, 1.0], [1.0, 1.0], better="lower", bound=0.0) == "unchanged"

    def test_small_move_inside_bound_is_unchanged(self):
        got = verdict([1.00, 1.01, 1.02], [1.03, 1.04, 1.05], better="lower", bound=0.10)
        assert got == "unchanged"

    def test_regression_beyond_bound(self):
        got = verdict([1.00, 1.01, 1.02], [1.20, 1.21, 1.22], better="lower", bound=0.10)
        assert got == "regressed"

    def test_direction_higher_is_better(self):
        parent = [100.0, 101.0, 102.0]
        assert verdict(parent, [80.0, 81.0, 82.0], better="higher", bound=0.10) == "regressed"
        assert verdict(parent, [120.0, 121.0, 122.0], better="higher", bound=0.10) == "improved"

    def test_improvement_must_beat_the_spread(self):
        # every run better and the medians differ by more than the spread
        parent = [1.00, 1.02, 1.04]
        assert verdict(parent, [0.80, 0.81, 0.82], better="lower", bound=0.10) == "improved"
        # better median, but the runs overlap: not a claimable gain
        assert verdict(parent, [0.99, 1.01, 1.03], better="lower", bound=0.10) == "unchanged"

    def test_wide_spread_is_unresolved_not_unchanged(self):
        parent = [1.0, 1.3, 1.6]  # spread 46 % of the median
        assert verdict(parent, [1.1, 1.35, 1.5], better="lower", bound=0.10) == "unresolved"
        # ... unless every run of one side beats every run of the other
        assert verdict(parent, [0.5, 0.6, 0.7], better="lower", bound=0.10) == "improved"
        assert verdict(parent, [2.0, 2.2, 2.4], better="lower", bound=0.10) == "regressed"

    def test_spread_uses_quartiles_from_four_runs(self):
        assert relative_spread([1.0]) == 0.0
        assert relative_spread([1.0, 2.0, 3.0]) == pytest.approx(1.0)  # range / median
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 100.0]
        assert relative_spread(values) == pytest.approx(1.0)  # (7.5 - 2.5) / 5: no outlier

    def test_verdict_vocabulary(self):
        assert set(VERDICTS) == {"improved", "unchanged", "unresolved", "regressed"}


# ----------------------------------------------------------------------
# catalogue consistency
# ----------------------------------------------------------------------
class TestBenchmarkJson:
    @pytest.fixture(scope="class")
    def bench(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_shape(self, bench):
        assert set(bench) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }
        assert bench["paths"] == ["benchmarks/e2e"]
        assert bench["command"][-1] == "benchmarks/e2e/run.py"

    def test_workloads_match_the_catalogue(self, bench):
        assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
        for w in bench["workloads"]:
            assert w["why"] == WORKLOADS[w["name"]].why
            assert len(w["why"]) <= 200 and "\n" not in w["why"]

    def test_metrics_match_the_catalogue(self, bench):
        assert [
            (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
        ] == [(m.name, m.unit, m.better, m.bound) for m in END_TO_END if m.contract]
        assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
            (m.name, m.unit, m.better) for m in PER_LAYER
        ]
        assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])

    def test_round_counts(self, bench):
        for workload in WORKLOADS.values():
            rounds = rounds_for(workload, bench["run_seconds"])
            assert rounds % 5 == 1 and rounds >= 6


# ----------------------------------------------------------------------
# end to end: one smoke run feeds the remaining tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    t0 = spans.now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    elapsed = spans.now() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text()), proc.stdout, elapsed


class TestSmoke:
    def test_finishes_in_time_without_failures(self, smoke):
        result, _, elapsed = smoke
        assert elapsed < 90.0
        for name, w in result["workloads"].items():
            assert w["rounds"] == 6, name
            assert w["failed_share"] == 0, (name, w["failed"])

    def test_every_named_metric_or_null_with_reason(self, smoke):
        result, stdout, _ = smoke
        assert list(result["workloads"]) == list(WORKLOADS)
        for name, w in result["workloads"].items():
            for metric in END_TO_END:
                cell = w["end_to_end"][metric.name]
                assert cell["unit"] == metric.unit
                assert isinstance(cell["median"], float), (name, metric.name)
            assert set(w["per_layer"]) == {m.name for m in PER_LAYER}
            for metric_name, cell in w["per_layer"].items():
                if cell["value"] is None:
                    assert cell["reason"], (name, metric_name)
                else:
                    assert isinstance(cell["value"], float), (name, metric_name)
        for metric in (*END_TO_END, *PER_LAYER):
            assert metric.name in stdout

    def test_layers_run_where_they_should(self, smoke):
        result, _, _ = smoke
        layers = {n: w["per_layer"] for n, w in result["workloads"].items()}

        def present(workload: str, metric: str) -> bool:
            return layers[workload][metric]["value"] is not None

        assert present("cnn_fedavg_serial", "nn.train_step_s")
        assert not present("cnn_fedavg_serial", "core.earlystop_decide_s")
        assert present("lstm_fedca_cohort", "algorithms.cohort_round_s")
        assert present("lstm_fedca_cohort", "core.earlystop_decide_s")
        assert present("lstm_fedca_cohort", "runtime.cohort_occupancy")
        assert present("wrn_fedca_parallel", "runtime.broadcast_s")
        assert present("wrn_fedca_parallel", "runtime.ipc_shm_bytes_per_round")
        assert present("wrn_fedca_parallel", "compression.wire_ratio")
        # worker internals come from the traced serial oracle prefix
        cell = layers["wrn_fedca_parallel"]["nn.train_step_s"]
        assert cell["value"] is not None and cell["source"] == "serial_oracle_prefix"
        assert present("lazy_fedavg_obs", "scale.acquire_s")
        assert present("lazy_fedavg_obs", "obs.record_s")
        assert present("lazy_fedavg_obs", "persist.checkpoint_s")
        assert not present("cnn_fedavg_serial", "scale.acquire_s")

    def test_child_spans_cover_the_round_on_serial_workloads(self, smoke):
        result, _, _ = smoke
        for name in ("cnn_fedavg_serial", "lazy_fedavg_obs"):
            coverage = result["workloads"][name]["traced"]["child"]["round_child_coverage"]
            assert coverage >= 0.95, (name, coverage)

    def test_contract_line_has_exact_keys(self, smoke):
        # The contract line is built from the same result dicts.
        from run import contract_line

        result, _, _ = smoke
        w = result["workloads"]["cnn_fedavg_serial"]
        line = contract_line(w["runs"][0], trace=0)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m.name for m in END_TO_END if m.contract]
        assert all(v["value"] != 0 for v in line["metrics"].values())
        line = contract_line(w["traced"], trace=1)
        assert list(line["metrics"]) == [m.name for m in PER_LAYER]
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
