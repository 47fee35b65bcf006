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
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < _EPS and nb < _EPS:
        return 1.0
    if na < _EPS or nb < _EPS:
        return 0.0
    # Clip guards float round-off pushing |cos| marginally above 1.
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))


def _norm(v: np.ndarray) -> float:
    # What np.linalg.norm computes for a real 1-D vector, minus its dispatch.
    return math.sqrt(v.dot(v))


def _progress(g_i: np.ndarray, g_k: np.ndarray, nk: float) -> float:
    """Eq. 1 against a ``G_K`` already flattened to float64, of norm ``nk``."""
    g_i = np.asarray(g_i, dtype=np.float64).ravel()
    if g_i.shape != g_k.shape:
        raise ValueError(f"shape mismatch: {g_i.shape} vs {g_k.shape}")
    ni = _norm(g_i)
    if ni < _EPS and nk < _EPS:
        return 1.0
    if ni < _EPS or nk < _EPS:
        return 0.0
    # Clamp guards float round-off pushing |cos| marginally above 1 (the
    # quotient goes first so a NaN propagates, as it does through np.clip).
    cos = max(min(float(g_i.dot(g_k)) / (ni * nk), 1.0), -1.0)
    return cos * (min(ni, nk) / max(ni, nk))


def statistical_progress(g_i: np.ndarray, g_k: np.ndarray) -> float:
    """Eq. 1: cosine similarity scaled by relative magnitude gap."""
    g_k = np.asarray(g_k, dtype=np.float64).ravel()
    return _progress(g_i, g_k, _norm(g_k))


def progress_curve(snapshots: list[np.ndarray]) -> np.ndarray:
    """Progress values for a full round of accumulated-update snapshots.

    ``snapshots[i]`` is ``G_{i+1}`` (the accumulated update after iteration
    ``i+1``); the last snapshot is ``G_K``. Returns an array of length ``K``
    with ``curve[-1] == 1.0`` whenever ``G_K`` is non-zero. ``G_K`` is
    coerced and normed once, not once per snapshot.
    """
    if not snapshots:
        raise ValueError("need at least one snapshot")
    g_k = np.asarray(snapshots[-1], dtype=np.float64).ravel()
    nk = _norm(g_k)
    return np.array([_progress(g, g_k, nk) for g in snapshots], dtype=np.float64)
