"""Static cross-client heterogeneity (FedScale-like device speeds).

The paper maps each EC2 client to a device in the FedScale trace so that the
*ratio between any two clients' average speeds* resembles real mobile
hardware. The FedScale compute-speed distribution is heavy-tailed and spans
roughly an order of magnitude between fast and slow devices; we substitute a
truncated log-normal with matching spread, which preserves exactly the
property the experiments need — a stable population of persistent stragglers.
"""

from __future__ import annotations

import math

import numpy as np

from ..rngstate import cid_rows, entropy_words, generator, seed_states

__all__ = [
    "sample_speed_ratios",
    "base_iteration_times",
    "iteration_time_for",
]

#: Domain-separation tag for per-client pace seed derivation (see
#: :func:`iteration_time_for`); keeps the pace stream independent of the
#: other per-cid streams derived from the same population seed.
_PACE_SEED_TAG = 0x9A


def sample_speed_ratios(
    num_clients: int,
    *,
    sigma: float = 0.6,
    max_ratio: float = 10.0,
    seed: int = 0,
) -> np.ndarray:
    """Per-client relative slowness factors, normalised so the fastest ≈ 1.

    Returns an array ``r`` with ``r.min() == 1`` and ``r.max() <= max_ratio``;
    client ``i`` needs ``r[i]`` times longer than the fastest client for the
    same iteration.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if max_ratio < 1:
        raise ValueError("max_ratio must be >= 1")
    rng = np.random.default_rng(seed)
    raw = rng.lognormal(mean=0.0, sigma=sigma, size=num_clients)
    ratios = raw / raw.min()
    return np.minimum(ratios, max_ratio)


def base_iteration_times(
    num_clients: int,
    fastest_iteration_time: float,
    *,
    sigma: float = 0.6,
    max_ratio: float = 10.0,
    seed: int = 0,
) -> np.ndarray:
    """Seconds-per-iteration for each client at full speed.

    ``fastest_iteration_time`` is workload-dependent (bigger models cost
    more per iteration); heterogeneity scales it per client.
    """
    if fastest_iteration_time <= 0:
        raise ValueError("fastest_iteration_time must be positive")
    ratios = sample_speed_ratios(
        num_clients, sigma=sigma, max_ratio=max_ratio, seed=seed
    )
    return fastest_iteration_time * ratios


def iteration_time_for(
    cid: "int | np.ndarray",
    fastest_iteration_time: float,
    *,
    sigma: float = 0.6,
    max_ratio: float = 10.0,
    seed: int = 0,
) -> "float | np.ndarray":
    """Per-client lazy analogue of :func:`base_iteration_times`.

    :func:`base_iteration_times` normalises by the *population minimum*, so
    computing one client's pace requires drawing all of them — O(total
    clients), which the million-client scale path cannot afford. This
    variant draws each client's slowness factor independently from
    ``(seed, cid)``: the same truncated log-normal family, clipped to
    ``[1, max_ratio]`` instead of min-normalised. The spread and the stable
    stragglers — the properties the experiments need — are preserved; the
    exact values differ from the eager helper's, so the two must not be
    mixed within one run (the simulator derives every client of a run from
    a single pace source).

    Client ``cid`` draws ``default_rng(SeedSequence([seed, cid, 0x9A]))
    .lognormal(0, sigma)``; a cid array (a selection) takes one seed pass.
    """
    if fastest_iteration_time <= 0:
        raise ValueError("fastest_iteration_time must be positive")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if max_ratio < 1:
        raise ValueError("max_ratio must be >= 1")
    cids = np.asarray(cid, dtype=np.int64)
    if (cids < 0).any():
        raise ValueError("cid must be non-negative")
    rows = cid_rows(entropy_words(seed), cids.reshape(-1), (_PACE_SEED_TAG,))
    paces = [
        fastest_iteration_time * min(max(lognormal(generator(words), sigma), 1.0), max_ratio)
        for words in seed_states(rows)
    ]
    return paces[0] if cids.ndim == 0 else np.array(paces).reshape(cids.shape)


def lognormal(rng: np.random.Generator, sigma: float) -> float:
    """``float(rng.lognormal(0.0, sigma))`` without its argument checks."""
    return math.exp(sigma * rng.standard_normal())
