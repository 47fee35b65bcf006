"""Byte-identity matrix: history and trace digests for every engine cell.

Runs ``python -m repro.cli run`` — whatever ``repro`` is on ``PYTHONPATH``
— over the engine × population × wire matrix and prints one line per
cell::

    <cell> <sha256(history JSON)> <sha256(trace after line 1)>

Line 1 of a trace is ``run.start``, which records the executor spec by
design; every simulated event after it must match. The cells:

* cnn fedca × {serial, parallel:2, parallel:2+shards=3, cohort:4} ×
  {eager, lazy:cache=4} × {raw, quant8, topk:0.1} (24 cells);
* {lstm, wrn} × {fedavg, fedca} × {serial, cohort:4, parallel:2}, eager,
  raw (12 cells);
* four crash → resume cells: the run is SIGKILLed after round
  ``CRASH_AFTER`` (``--crash-after-round``, checkpoint every 2 rounds) and
  finished with ``--resume``.

Two uses::

    PYTHONPATH=src python benchmarks/identity_matrix.py > before.txt
    # ... change the code, then:
    PYTHONPATH=src python benchmarks/identity_matrix.py > after.txt
    diff before.txt after.txt          # empty: every cell kept its bytes

    PYTHONPATH=src python benchmarks/identity_matrix.py --check

``--check`` asserts, within one tree, that every cell equals its group's
``serial``/``eager`` cell, a group being one (workload, scheme, wire), and
that every resumed cell equals the uninterrupted cell it crashed out of.
A ``cohort:4`` cell that differs from its group is reported as *padded*,
not failed: ``cohort[:M]`` zero-pads a client whose shard is smaller than a
batch, and BLAS may round such a product at the last bit (DESIGN.md §12).
Verdicts go to stderr, so stdout stays diffable; exit status 1 on any
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

ROUNDS = 6
CRASH_AFTER = 4
SEED = 3
REFERENCE = ("serial", "eager")


class Cell(NamedTuple):
    workload: str
    scheme: str
    wire: str
    executor: str
    population: str
    resume: bool = False

    @property
    def name(self) -> str:
        parts = [self.workload, self.scheme, self.wire, self.executor, self.population]
        return "/".join(parts + (["resume"] if self.resume else []))

    @property
    def group(self) -> tuple[str, str, str]:
        return self.workload, self.scheme, self.wire


def matrix() -> list[Cell]:
    cells = [
        Cell("cnn", "fedca", wire, executor, population)
        for wire in ("raw", "quant8", "topk:0.1")
        for executor in ("serial", "parallel:2", "parallel:2+shards=3", "cohort:4")
        for population in ("eager", "lazy:cache=4")
    ]
    cells += [
        Cell(workload, scheme, "raw", executor, "eager")
        for workload in ("lstm", "wrn")
        for scheme in ("fedavg", "fedca")
        for executor in ("serial", "cohort:4", "parallel:2")
    ]
    cells += [
        Cell("cnn", "fedca", "topk:0.1", "parallel:2", "lazy:cache=4", resume=True),
        Cell("cnn", "fedca", "quant8", "serial", "eager", resume=True),
        Cell("wrn", "fedca", "raw", "cohort:4", "eager", resume=True),
        Cell("lstm", "fedavg", "raw", "serial", "eager", resume=True),
    ]
    return cells


def _cli(cell: Cell, out: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "-m", "repro.cli", "run",
        "--workload", cell.workload, "--scheme", cell.scheme,
        "--rounds", str(ROUNDS), "--no-target-stop", "--seed", str(SEED),
        "--wire", cell.wire, "--executor", cell.executor,
        "--population", cell.population,
        "--json", os.path.join(out, "history.json"),
        "--trace-file", os.path.join(out, "trace.jsonl"),
        "--log-level", "warning", *extra,
    ]
    return subprocess.run(cmd, capture_output=True, text=True)


def run_cell(cell: Cell) -> tuple[str, str]:
    """The cell's two digests (a failed run raises)."""
    with tempfile.TemporaryDirectory(prefix="identity-") as out:
        if cell.resume:
            ckpt = ["--checkpoint-dir", os.path.join(out, "ckpt")]
            crashed = _cli(
                cell, out, *ckpt, "--checkpoint-every", "2",
                "--crash-after-round", str(CRASH_AFTER),
            )
            if crashed.returncode != -9:
                raise RuntimeError(
                    f"{cell.name}: the crash leg exited {crashed.returncode}, "
                    f"not by SIGKILL\n{crashed.stderr}"
                )
            done = _cli(cell, out, *ckpt, "--resume")
        else:
            done = _cli(cell, out)
        if done.returncode != 0:
            raise RuntimeError(f"{cell.name}: exit {done.returncode}\n{done.stderr}")
        with open(os.path.join(out, "history.json"), "rb") as fh:
            history = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(out, "trace.jsonl"), "rb") as fh:
            fh.readline()
            trace = hashlib.sha256(fh.read()).hexdigest()
    return history, trace


def check(digests: dict[Cell, tuple[str, str]]) -> bool:
    """Every cell against its group's reference; resumed cells against the
    uninterrupted cell they crashed out of."""
    reference = {
        cell.group: digest
        for cell, digest in digests.items()
        if (cell.executor, cell.population) == REFERENCE and not cell.resume
    }
    ok = True
    for cell, digest in digests.items():
        if cell.resume:
            expected = digests[cell._replace(resume=False)]
        else:
            expected = reference[cell.group]
        if digest == expected:
            verdict = "equal"
        elif cell.executor.startswith("cohort") and not cell.resume:
            verdict = "padded"
        else:
            verdict = "FAILED"
            ok = False
        print(f"{verdict:7s} {cell.name}", file=sys.stderr)
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="assert every cell equals its group's serial/eager cell")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="cells run concurrently (each is one CLI process; parallel "
             "cells fork two workers more)")
    args = parser.parse_args(argv)
    cells = matrix()
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        digests = dict(zip(cells, pool.map(run_cell, cells)))
    for cell, (history, trace) in digests.items():
        print(f"{cell.name} {history} {trace}")
    if args.check and not check(digests):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
