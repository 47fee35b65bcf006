"""Content-addressed result cache for experiment sweeps.

A cache cell is keyed by the SHA-256 of a
:class:`~repro.experiments.runner.RunSpec`'s identity — everything that
determines a run's outcome: the full workload preset, the scheme, the
effective round budget and stopping rule, the seed, the FedCA config, a
lossy wire, an engine that can move bytes (padded ``cohort:M``) — and a
schema version (bumped whenever the simulation semantics change,
invalidating every old cell at once). The spec writes those rules once
(:attr:`RunSpec.identity`). Deliberately **excluded**: telemetry settings
(observability never affects the simulation).

Cells hold plain JSON payloads (``history_to_dict`` output plus the result
metadata); the experiment runner rebuilds its ``SchemeResult`` from them.
Writes are atomic (temp file + ``os.replace``), so a crashed sweep never
leaves a half-written cell that a later sweep would trust.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import RunSpec

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
    def key(self, spec: "RunSpec") -> str:
        """Deterministic cell key: the SHA-256 of ``spec``'s
        :attr:`~repro.experiments.runner.RunSpec.identity` and the schema
        version. A spec resolves its effective defaults, so explicit-default
        and implied-default runs share a cell."""
        document = {"schema": CACHE_SCHEMA_VERSION, **spec.identity}
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
