"""Tests for the command-line interface."""

from __future__ import annotations

import functools
import json

import pytest

from repro.cli import ARTIFACTS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(
            ["run", "--workload", "cnn", "--scheme", "fedca", "--rounds", "3"]
        )
        assert args.command == "run"
        assert args.workload == "cnn"
        assert args.rounds == 3

    def test_invalid_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "vgg", "--scheme", "fedavg"])

    def test_executor_flags(self):
        args = build_parser().parse_args(
            ["run", "--workload", "cnn", "--scheme", "fedavg",
             "--executor", "parallel:2"]
        )
        assert args.executor == "parallel:2"
        # Default stays serial so existing workflows are unchanged.
        args = build_parser().parse_args(
            ["compare", "--workload", "cnn"]
        )
        assert args.executor == "serial"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--workload", "cnn", "--scheme", "fedavg",
                 "--executor", "threads"]
            )
        # Non-positive worker counts are rejected at the parser, not deep
        # inside the executor.
        for bad in ("0", "-2"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["run", "--workload", "cnn", "--scheme", "fedavg",
                     "--executor", f"parallel:{bad}"]
                )

    def test_reproduce_artifact_choices(self):
        for artifact in ARTIFACTS:
            args = build_parser().parse_args(["reproduce", "--artifact", artifact])
            assert args.artifact == artifact
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--artifact", "fig99"])


class TestCommands:
    def test_run_and_json_export(self, tmp_path, capsys):
        out = tmp_path / "hist.json"
        rc = main(
            [
                "run", "--workload", "cnn", "--scheme", "fedavg",
                "--rounds", "2", "--no-target-stop", "--json", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "FedAvg on cnn" in text
        data = json.loads(out.read_text())
        assert data["num_rounds"] == 2

    def test_compare(self, capsys):
        rc = main(
            [
                "compare", "--workload", "cnn",
                "--schemes", "fedavg", "fedca", "--rounds", "2",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "FedAvg" in text and "FedCA" in text
        assert "Per-round (s)" in text

    def test_run_parallel_executor(self, capsys):
        rc = main(
            [
                "run", "--workload", "cnn", "--scheme", "fedavg",
                "--rounds", "2", "--no-target-stop",
                "--executor", "parallel:2",
            ]
        )
        assert rc == 0
        assert "FedAvg on cnn" in capsys.readouterr().out

    def test_overhead(self, capsys):
        rc = main(["overhead"])
        assert rc == 0
        assert "Sampled params" in capsys.readouterr().out

    def test_reproduce_overhead_artifact(self, capsys):
        rc = main(["reproduce", "--artifact", "overhead"])
        assert rc == 0
        assert "profiling memory overhead" in capsys.readouterr().out


class TestReproduceArtifacts:
    def test_reproduce_fig1(self, capsys):
        rc = main(["reproduce", "--artifact", "fig1", "--models", "cnn"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "real-round" in out


class TestReproduceFlags:
    """``reproduce`` forwards every flag the artefact's runner takes and
    exits 2, naming the flag, on one it does not take."""

    @staticmethod
    def forwarded(monkeypatch, artifact, *flags):
        seen = []
        run_fn, _ = ARTIFACTS[artifact]
        fake = functools.wraps(run_fn)(lambda **kwargs: seen.append(kwargs))
        monkeypatch.setitem(ARTIFACTS, artifact, (fake, str))
        assert main(["reproduce", "--artifact", artifact, *flags]) == 0
        return seen[0]

    @pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
    def test_default_invocation_passes_what_it_always_did(self, monkeypatch, artifact):
        if artifact == "overhead":
            expected = {}
        elif artifact in ("fig1", "fig4", "fig6", "fig8", "fig10"):
            expected = {"model": "cnn", "scale": "micro", "seed": 0}
        else:
            expected = {"models": ("cnn",), "scale": "micro", "seed": 0}
        assert self.forwarded(monkeypatch, artifact) == expected

    def test_overhead_takes_models_and_seed(self, monkeypatch, capsys):
        assert self.forwarded(monkeypatch, "overhead", "--models", "lstm", "--seed", "5") == {
            "models": ("lstm",), "seed": 5,
        }
        monkeypatch.undo()
        assert main(["reproduce", "--artifact", "overhead", "--models", "lstm", "--seed", "5"]) == 0
        rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert "lstm" in rows and "cnn" not in rows and "wrn" not in rows

    @pytest.mark.parametrize("artifact", ["fig8", "fig9", "fig10", "table1", "fig7"])
    def test_rounds_reach_the_runners_that_take_them(self, monkeypatch, artifact):
        assert self.forwarded(monkeypatch, artifact, "--rounds", "3")["rounds"] == 3

    @pytest.mark.parametrize(
        "artifact, flags",
        [
            *[(f"fig{n}", ["--rounds", "3"]) for n in range(1, 7)],
            ("overhead", ["--rounds", "3"]),
            ("overhead", ["--scale", "small"]),
            ("fig1", ["--models", "cnn", "lstm"]),
        ],
    )
    def test_a_flag_the_runner_does_not_take_exits_2(self, capsys, artifact, flags):
        assert main(["reproduce", "--artifact", artifact, *flags]) == 2
        captured = capsys.readouterr()
        assert flags[0] in captured.out + captured.err
