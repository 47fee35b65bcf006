"""``repro.scale`` — lazy-population subsystem for million-client runs.

Eager mode builds every client up front; memory and setup grow with the
total population even at 1% participation. This package replaces the
client list with a recipe (:class:`PopulationSpec` + :class:`ClientFactory`
rebuild any client bit-identically from ``(seed, cid)``) and a bounded
pager (:class:`LazyClientPopulation` keeps at most ``capacity`` live
clients, spilling evicted state through the existing snapshot codecs), so
peak memory tracks the cache size, flat in total-client count. Eager
remains the bitwise oracle: at equal inputs, lazy runs produce
byte-identical histories and traces. See DESIGN.md §15.
"""

from __future__ import annotations

from .cache import DEFAULT_CACHE_CLIENTS, LazyClientPopulation, ResidentClientCache
from .population import (
    ClientFactory,
    LazyDirichletShards,
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
    "LazyDirichletShards",
    "MaterializedShards",
    "PopulationSpec",
    "ResidentClientCache",
    "SeedDerivationError",
    "ShardProvider",
    "SubsampledShards",
    "as_shard_provider",
    "parse_population_spec",
]


def parse_population_spec(spec: str | None) -> tuple[str, int | None]:
    """Parse a ``--population`` value into ``(mode, cache_capacity)``.

    Accepted forms: ``None``/``"eager"`` → ``("eager", None)``; ``"lazy"``
    → ``("lazy", DEFAULT_CACHE_CLIENTS)``; ``"lazy:cache=N"`` → ``("lazy", N)``.
    """
    if spec is None or spec == "eager":
        return "eager", None
    if spec == "lazy":
        return "lazy", DEFAULT_CACHE_CLIENTS
    if spec.startswith("lazy:"):
        option = spec[len("lazy:") :]
        if option.startswith("cache="):
            try:
                capacity = int(option[len("cache=") :])
            except ValueError:
                raise ValueError(
                    f"invalid population spec {spec!r}: cache size must be an integer"
                ) from None
            if capacity < 1:
                raise ValueError(
                    f"invalid population spec {spec!r}: cache size must be >= 1"
                )
            return "lazy", capacity
        raise ValueError(
            f"invalid population spec {spec!r}: unknown option {option!r} "
            "(expected cache=N)"
        )
    raise ValueError(
        f"invalid population spec {spec!r}: expected 'eager', 'lazy' or "
        "'lazy:cache=N'"
    )
