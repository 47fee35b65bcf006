"""Bench: serial vs parallel round throughput (and equivalence smoke).

`pytest benchmarks/test_parallel_speedup.py --benchmark-only -s` prints the
serial/parallel round times; ``parallel_bench.py`` writes the same
measurements to ``BENCH_parallel.json`` for the repo's perf trajectory.

The ≥2× speedup assertion only arms on machines with ≥4 usable cores (the
acceptance target is stated for a 4-core runner); the equivalence assertion
— identical histories from both engines — arms everywhere.
"""

from __future__ import annotations

import pytest

from parallel_bench import (
    CONTROL_BYTES_SHARE,
    bench_config,
    channel_bytes,
    fingerprint,
    run_once,
)
from repro.runtime import SerialExecutor
from repro.runtime.parallel import default_workers, fork_available
from repro.runtime.transport import shm_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)
needs_shm = pytest.mark.skipif(
    not shm_available()[0], reason="platform lacks POSIX shared memory"
)


@needs_fork
@needs_shm
def test_parallel_smoke_two_workers(once):
    """Fast CI smoke: 8 clients, 2 workers, 2 rounds — identical histories,
    and the pipes carry control traffic only (<= 1 % of the arena bytes)."""
    cfg = bench_config(8)

    def run_pair():
        serial_s, hist_serial, _ = run_once(cfg, SerialExecutor(), rounds=2, seed=0)
        parallel_s, hist_parallel, ipc = run_once(
            cfg, "parallel:2", rounds=2, seed=0
        )
        return serial_s, parallel_s, hist_serial, hist_parallel, ipc

    serial_s, parallel_s, hist_serial, hist_parallel, ipc = once(run_pair)
    pipe_bytes, shm_bytes = channel_bytes(ipc, "pipe"), channel_bytes(ipc, "shm")
    print(
        f"\n8 clients: serial={serial_s:.3f}s parallel[2]={parallel_s:.3f}s "
        f"speedup={serial_s / parallel_s:.2f}x  "
        f"pipe={pipe_bytes:.0f}B shm={shm_bytes:.0f}B"
    )
    assert fingerprint(hist_serial) == fingerprint(hist_parallel)
    assert 0 < pipe_bytes <= CONTROL_BYTES_SHARE * shm_bytes


@needs_fork
@pytest.mark.skipif(
    default_workers() < 4,
    reason="speedup target is defined for >=4 usable cores",
)
def test_parallel_speedup_16_clients(once):
    """Acceptance: ≥2× round throughput at 16 clients with a 4-worker pool."""
    cfg = bench_config(16)

    def run_pair():
        serial_s, hist_serial, _ = run_once(cfg, SerialExecutor(), rounds=3, seed=0)
        parallel_s, hist_parallel, _ = run_once(
            cfg, "parallel:4", rounds=3, seed=0
        )
        return serial_s, parallel_s, hist_serial, hist_parallel

    serial_s, parallel_s, hist_serial, hist_parallel = once(run_pair)
    speedup = serial_s / parallel_s
    print(
        f"\n16 clients: serial={serial_s:.3f}s parallel[4]={parallel_s:.3f}s "
        f"speedup={speedup:.2f}x"
    )
    assert fingerprint(hist_serial) == fingerprint(hist_parallel)
    assert speedup >= 2.0
