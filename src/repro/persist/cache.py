"""Content-addressed result cache for experiment sweeps.

A cache cell is keyed by the SHA-256 of everything that determines a run's
outcome: the full :class:`~repro.experiments.configs.WorkloadConfig`, the
scheme, the effective round budget and stopping rule, the seed, the
dynamicity flag, the FedCA config, and a schema version (bumped whenever
the simulation semantics change, invalidating every old cell at once).

The execution engine joins the key only where it can change the bytes:
serial and ``parallel:N`` produce bitwise-identical histories by
construction (PR 1's guarantee; a worker's stacked programs never pad), so
they share cells and their key carries no engine entry, while ``cohort:M``
zero-pads a client whose shard is smaller than a batch, which keeps the
serial bytes only where BLAS rounds a row independently of the row count
(DESIGN.md §12), and is keyed as ``"engine": "cohort:M"`` — a cohort run
is never handed a serial history nor the other way round. Deliberately
**excluded**: telemetry settings (observability never affects the
simulation).

Cells hold plain JSON payloads (``history_to_dict`` output plus the result
metadata); the experiment runner rebuilds its ``SchemeResult`` from them.
Writes are atomic (temp file + ``os.replace``), so a crashed sweep never
leaves a half-written cell that a later sweep would trust.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core import FedCAConfig
    from ..experiments.configs import WorkloadConfig

__all__ = ["ResultCache", "CACHE_SCHEMA_VERSION"]

#: Bump whenever a code change alters what a (config, scheme, seed) run
#: produces — stale cells must miss, not serve the old trajectory.
CACHE_SCHEMA_VERSION = 1


class ResultCache:
    """Directory of content-addressed experiment results.

    ``hits``/``misses`` count :meth:`get` outcomes for the whole cache
    lifetime; the experiment runner mirrors them into the telemetry
    metrics registry (``repro_result_cache_hits_total`` /
    ``repro_result_cache_misses_total``).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def key(
        self,
        cfg: "WorkloadConfig",
        scheme: str,
        *,
        rounds: int,
        stop_at_target: bool,
        seed: int,
        dynamic: bool,
        fedca_config: "FedCAConfig | None",
        wire: "str | None" = None,
        engine: "str | None" = None,
    ) -> str:
        """Deterministic cell key. ``rounds`` must be the *effective*
        budget (config default already applied) and ``fedca_config`` the
        *effective* config (scheme default already applied) — the caller
        resolves both so that explicit-default and implied-default runs
        share a cell. ``wire`` joins the document only when it actually
        changes the trajectory (anything but raw), and ``engine`` only when
        the caller names one whose histories are not bitwise the serial
        ones (``"cohort:M"``), so every cell written before either existed
        stays valid."""
        document = {
            "schema": CACHE_SCHEMA_VERSION,
            "workload": dataclasses.asdict(cfg),
            "scheme": scheme.strip().lower(),
            "rounds": int(rounds),
            "stop_at_target": bool(stop_at_target),
            "seed": int(seed),
            "dynamic": bool(dynamic),
            "fedca": (
                None
                if fedca_config is None
                else dataclasses.asdict(fedca_config)
            ),
        }
        if wire is not None and wire.strip().lower() not in ("", "raw"):
            document["wire"] = wire.strip().lower()
        if engine is not None:
            document["engine"] = engine
        blob = json.dumps(document, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or None. An unreadable cell
        (truncated by a crash outside the atomic protocol, hand-edited)
        counts as a miss rather than poisoning the sweep."""
        path = self.path_for(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> None:
        path = self.path_for(key)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            # Insertion order, not sort_keys: a hit must re-export
            # byte-identically to the run that filled the cell.
            json.dump(payload, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(
            1 for entry in os.listdir(self.directory) if entry.endswith(".json")
        )
