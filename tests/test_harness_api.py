"""The frozen end-to-end benchmark harness still fits the program.

``benchmarks/e2e`` builds its four workloads through ``make_environment``
and ``FederatedSimulator`` keywords and times layers by patching callables
by name (``layers.class_targets``/``instance_targets``); a keyword or name
the program drops breaks the benchmark, not any other test. This module
imports the harness unchanged and, per workload, builds it, resolves every
patched name and runs one round.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e"


def _import_harness():
    # The harness modules import each other as top-level names.
    sys.path.insert(0, str(E2E))
    try:
        return importlib.import_module("workloads"), importlib.import_module("layers")
    finally:
        sys.path.remove(str(E2E))
        for name in ("workloads", "layers", "spans"):
            sys.modules.pop(name, None)


workloads, layers = _import_harness()


def _resolve(targets):
    for owner, attr, label in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, label)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_resolves_its_probes_and_runs_a_round(name, tmp_path):
    _resolve(layers.class_targets())
    env = workloads.build_env(name, 0, oracle=False, workdir=str(tmp_path))
    try:
        _resolve(layers.instance_targets(env.sim))
        record = env.sim.run_round()
        assert record.round_index == 0
    finally:
        env.sim.close()
        if env.recorder is not None:
            env.recorder.close()
