"""``reprolint`` — the repository's static invariant checker.

The determinism guarantees the runtime is pinned on (bitwise histories
and traces across serial/parallel/cohort engines, crash-safe resume,
leak-free shm arenas) rest on a handful of coding invariants. This
AST pass enforces them; run it from the repository root with
``PYTHONPATH=src python -m tools.reprolint src tests benchmarks tools``.

======= ==========================================================
DET001  no global-state RNG; seeded ``np.random.Generator`` only
DET002  wall-clock reads only in the measurement allowlist
DET003  no raw iteration over unordered sets
MET001  counters end ``_total`` and are pre-registered
MET002  wall-clock mirrors are gauges, never counters
FORK001 pre-fork thread/lock discipline
SHM001  each created shm segment unlinked through its own name
EVT001  event kinds declared in ``obs/events.py``
======= ==========================================================

Per-line escape hatch: ``# reprolint: allow[CODE] justification``. The
runtime half, the ``--sanitize`` run flag, is :mod:`repro.sanitize`.
"""
