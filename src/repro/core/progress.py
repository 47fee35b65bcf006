"""Statistical progress metric (paper Eq. 1).

``P_i = cos(G_i, G_K) · min(‖G_i‖, ‖G_K‖) / max(‖G_i‖, ‖G_K‖)``

where ``G_i`` is the accumulated local update after ``i`` iterations and
``G_K`` the full-round update. ``P_i ≤ 1`` always, and ``P_K = 1``
identically. The metric applies to any flattened update vector, so the same
function serves whole-model and per-layer analysis.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cosine_similarity", "statistical_progress", "progress_curve"]

_EPS = 1e-12


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two flattened vectors.

    Degenerate cases: two zero vectors are defined as identical (1.0); a
    single zero vector has no direction and yields 0.0. Both arise in
    practice — bias layers can receive exactly-zero accumulated updates in
    early rounds.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    na, nb = _norm(a), _norm(b)
    if na < _EPS and nb < _EPS:
        return 1.0
    if na < _EPS or nb < _EPS:
        return 0.0
    # Clamp guards float round-off pushing |cos| marginally above 1 (the
    # quotient goes first so a NaN propagates, as it does through np.clip).
    return max(min(float(a.dot(b)) / (na * nb), 1.0), -1.0)


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a real 1-D vector, minus its dispatch.
    return math.sqrt(v.dot(v))


def statistical_progress(g_i: np.ndarray, g_k: np.ndarray) -> float:
    """Eq. 1: cosine similarity scaled by relative magnitude gap."""
    g_i, g_k = np.ravel(g_i), np.ravel(g_k)
    if g_i.shape != g_k.shape:
        raise ValueError(f"shape mismatch: {g_i.shape} vs {g_k.shape}")
    return float(progress_curve([g_i, g_k])[0])


def progress_curve(snapshots) -> np.ndarray:
    """Progress values for a full round of accumulated-update snapshots.

    ``snapshots[i]`` is ``G_{i+1}`` (the accumulated update after iteration
    ``i+1``); the last snapshot is ``G_K``. Returns an array of length ``K``
    with ``curve[-1] == 1.0`` whenever ``G_K`` is non-zero. The snapshots
    are coerced to one float64 ``(K, S)`` block once; each row's two dot
    products are the ones :func:`statistical_progress` takes (one BLAS
    ``dot`` per row pair, batched by ``np.matmul``), and the rest of Eq. 1
    is its scalar expression elementwise — so every element is the bytes
    of the per-snapshot call.
    """
    g = np.asarray(snapshots, dtype=np.float64)
    if not len(g):
        raise ValueError("need at least one snapshot")
    g = g.reshape(len(g), -1)
    rows = g[:, None, :]
    dots = np.matmul(rows, g[-1][:, None])[:, 0, 0]
    ni = np.sqrt(np.matmul(rows, g[:, :, None])[:, 0, 0])
    nk = ni[-1]
    if nk < _EPS:
        return np.where(ni < _EPS, 1.0, 0.0)
    live = ~(ni < _EPS)  # a NaN norm is live, as in the scalar code
    # Clamp guards float round-off pushing |cos| marginally above 1 (the
    # quotient goes first so a NaN propagates, as it does through np.clip).
    cos = np.divide(dots, ni * nk, out=np.zeros(len(g)), where=live)
    cos = np.maximum(np.minimum(cos, 1.0), -1.0)
    scale = np.divide(
        np.minimum(ni, nk), np.maximum(ni, nk), out=np.zeros(len(g)), where=live
    )
    return np.where(live, cos * scale, 0.0)
