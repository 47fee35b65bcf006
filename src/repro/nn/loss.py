"""Loss functions returning ``(value, grad_wrt_logits)``."""

from __future__ import annotations

import numpy as np

from . import functional as F

__all__ = ["softmax_cross_entropy"]


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Parameters
    ----------
    logits:
        ``(N, num_classes)`` raw scores.
    labels:
        ``(N,)`` integer class ids.

    Returns
    -------
    ``(loss, grad)`` where ``grad`` has the same shape as ``logits`` and is
    already divided by the batch size (ready for ``backward``).
    """
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} incompatible with logits {logits.shape}")
    log_probs, grad = F.log_softmax_and_softmax(logits, axis=1)
    loss = float(-log_probs[np.arange(n), labels].mean())
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad.astype(np.float32)
