"""``repro.scale`` — the client population, for runs of any size.

A run's clients are a recipe (:class:`PopulationSpec` + :class:`ClientFactory`
rebuild any client bit-identically from ``(seed, cid)``) behind one pager
(:class:`LazyClientPopulation`), which builds a client the first time a
round selects it. ``--population eager`` gives the pager room for everyone,
so nothing is ever evicted; ``lazy:cache=N`` keeps at most N clients live,
spilling evicted state through the snapshot codecs, so peak memory tracks
the cache size, flat in total-client count. Eviction is invisible to the
run: at equal inputs every capacity produces byte-identical histories and
traces. See DESIGN.md §15.
"""

from __future__ import annotations

from .cache import DEFAULT_CACHE_CLIENTS, LazyClientPopulation, ResidentClientCache
from .population import (
    ClientFactory,
    MaterializedShards,
    PopulationSpec,
    SeedDerivationError,
    ShardProvider,
    SubsampledShards,
    as_shard_provider,
)

__all__ = [
    "DEFAULT_CACHE_CLIENTS",
    "ClientFactory",
    "LazyClientPopulation",
    "MaterializedShards",
    "PopulationSpec",
    "ResidentClientCache",
    "SeedDerivationError",
    "ShardProvider",
    "SubsampledShards",
    "as_shard_provider",
    "parse_population_spec",
]


def parse_population_spec(spec: str | None) -> int | None:
    """Parse a ``--population`` value into the pager's resident capacity.

    Every run pages its clients; the spec only bounds how many stay live.
    ``None``/``"eager"`` → ``None`` (room for everyone: nothing is ever
    evicted); ``"lazy"`` → ``DEFAULT_CACHE_CLIENTS``; ``"lazy:cache=N"`` → ``N``.
    """
    if spec is None or spec == "eager":
        return None
    if spec == "lazy":
        return DEFAULT_CACHE_CLIENTS
    mode, _, size = spec.partition(":cache=")
    if mode != "lazy" or not size.isdecimal() or int(size) < 1:
        raise ValueError(
            f"invalid population spec {spec!r}: expected 'eager', 'lazy' or "
            "'lazy:cache=N' with an integer N >= 1"
        )
    return int(size)
