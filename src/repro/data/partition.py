"""Non-IID client partitioning.

The paper uses a Dirichlet label-skew partition with concentration
``α = 0.1`` (§3.2.2, §5.1): each client draws a class-composition vector
from Dir(α·1) and its local dataset follows that composition.
"""

from __future__ import annotations

from typing import Collection

import numpy as np

from .synthetic import Dataset

__all__ = [
    "dirichlet_partition",
    "dirichlet_clients_indices",
    "dirichlet_shard_sizes",
    "iid_partition",
]


def dirichlet_partition(
    dataset: Dataset,
    num_clients: int,
    *,
    alpha: float = 0.1,
    min_samples: int = 2,
    seed: int = 0,
    max_retries: int = 100,
) -> list[np.ndarray]:
    """Split sample indices across clients with Dirichlet label skew.

    For each class, the class's samples are distributed to clients
    proportionally to per-client Dirichlet draws. Redraws (up to
    ``max_retries``) guarantee every client ends up with at least
    ``min_samples`` samples, since a client with an empty shard cannot
    participate in training at all.

    Returns a list of ``num_clients`` index arrays into ``dataset``.
    """
    shards = dirichlet_clients_indices(
        dataset,
        num_clients,
        range(num_clients),
        alpha=alpha,
        min_samples=min_samples,
        seed=seed,
        max_retries=max_retries,
    )
    return list(shards.values())


def _dirichlet_replay(
    dataset: Dataset,
    num_clients: int,
    collect: "Collection[int]",
    *,
    alpha: float,
    min_samples: int,
    seed: int,
    max_retries: int,
) -> tuple[np.ndarray, dict[int, list[np.ndarray]]]:
    """The accepted Dirichlet draw: every client's shard size, and the
    per-class index chunks of the clients in ``collect`` only.

    A pass draws, per class, a permutation and then a Dirichlet vector whose
    cumulative cut points split the permutation between clients; a pass that
    leaves a client below ``min_samples`` is redrawn.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if len(dataset) < num_clients * min_samples:
        raise ValueError(
            f"dataset of {len(dataset)} samples cannot give {num_clients} clients "
            f">= {min_samples} samples each"
        )
    rng = np.random.default_rng(seed)
    labels = dataset.y
    class_indices = [np.flatnonzero(labels == c) for c in range(dataset.num_classes)]
    for _ in range(max_retries):
        sizes = np.zeros(num_clients, dtype=np.int64)
        chunks: dict[int, list[np.ndarray]] = {cid: [] for cid in collect}
        for idx in class_indices:
            if idx.size == 0:
                continue
            perm = rng.permutation(idx)
            props = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(props)[:-1] * idx.size).astype(int)
            bounds = np.concatenate(([0], cuts, [idx.size]))
            sizes += np.diff(bounds)
            for cid, kept in chunks.items():
                chunk = perm[bounds[cid] : bounds[cid + 1]]
                if chunk.size:
                    kept.append(chunk)
        if int(sizes.min()) >= min_samples:
            return sizes, chunks
    raise RuntimeError(
        f"could not satisfy min_samples={min_samples} for {num_clients} clients "
        f"after {max_retries} Dirichlet draws; increase dataset size or alpha"
    )


def dirichlet_clients_indices(
    dataset: Dataset,
    num_clients: int,
    cids: "Collection[int]",
    *,
    alpha: float = 0.1,
    min_samples: int = 2,
    seed: int = 0,
    max_retries: int = 100,
) -> dict[int, np.ndarray]:
    """``{cid: dirichlet_partition(...)[cid]}`` for a batch of clients, in
    ``cids`` order.

    The whole partition's RNG stream is drawn (permutation + Dirichlet draw
    per class, rejected retries included) but only the batch's index chunks
    are kept, so the work is O(num_samples) per batch and the stored result
    O(shard sizes) — the lazy-population scale path (:mod:`repro.scale`)
    depends on this to page clients in from ``(seed, cid)``.
    """
    for cid in cids:
        if not 0 <= cid < num_clients:
            raise ValueError(f"cid {cid} out of range for {num_clients} clients")
    _, chunks = _dirichlet_replay(
        dataset,
        num_clients,
        cids,
        alpha=alpha,
        min_samples=min_samples,
        seed=seed,
        max_retries=max_retries,
    )
    return {
        cid: np.sort(np.concatenate(kept)) if kept else np.array([], dtype=np.int64)
        for cid, kept in chunks.items()
    }


def dirichlet_shard_sizes(
    dataset: Dataset,
    num_clients: int,
    *,
    alpha: float = 0.1,
    min_samples: int = 2,
    seed: int = 0,
    max_retries: int = 100,
) -> np.ndarray:
    """All clients' shard sizes for the accepted Dirichlet draw, in one
    O(num_samples) pass (no shard materialisation). Matches
    ``[len(s) for s in dirichlet_partition(...)]`` exactly."""
    sizes, _ = _dirichlet_replay(
        dataset,
        num_clients,
        (),
        alpha=alpha,
        min_samples=min_samples,
        seed=seed,
        max_retries=max_retries,
    )
    return sizes


def iid_partition(
    dataset: Dataset, num_clients: int, *, seed: int = 0
) -> list[np.ndarray]:
    """Uniform random split (baseline / testing utility)."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(dataset))
    return [np.sort(chunk) for chunk in np.array_split(perm, num_clients)]
