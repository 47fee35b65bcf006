"""Error-feedback retransmission check (paper §4.3, Eq. 6)."""

from __future__ import annotations

import numpy as np

from .progress import cosine_similarity

__all__ = ["deviated_layers"]


def deviated_layers(
    final_updates: dict[str, np.ndarray],
    transmitted_updates: dict[str, np.ndarray],
    threshold: float,
    *,
    sink=None,
) -> list[str]:
    """All eagerly transmitted layers requiring retransmission: those whose
    ultimate update deviates from the eagerly transmitted one,
    ``cos(G_{R,l}, Ĝ_{R,l}) < T_r`` (Eq. 6).

    ``transmitted_updates`` holds the values as of each layer's eager
    transmission; keys absent from it were never eagerly sent and are not
    checked. ``sink(layer, cosine, deviated)`` is an optional telemetry
    hook invoked once per checked layer with the Eq. 6 similarity.
    """
    if not -1 <= threshold <= 1:
        raise ValueError("threshold must be a valid cosine bound")
    out = []
    for name, sent in transmitted_updates.items():
        if name not in final_updates:
            raise KeyError(f"transmitted layer {name!r} missing from final updates")
        cos = cosine_similarity(final_updates[name], sent)
        deviated = cos < threshold
        if sink is not None:
            sink(name, cos, deviated)
        if deviated:
            out.append(name)
    return out
