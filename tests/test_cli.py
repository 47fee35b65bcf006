"""Tests for the command-line interface."""

from __future__ import annotations

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
