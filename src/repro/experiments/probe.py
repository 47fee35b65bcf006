"""Offline statistical-progress probing for the motivation figures.

Figs. 2–5 need *exact* per-iteration progress curves (whole-model,
per-layer, and sampled-vs-full). The probe replays one client's local round
from a given global state on a throwaway model replica, recording the full
accumulated update after every iteration — the "naive full profiling" that
FedCA's periodical sampling replaces. At micro scale the full snapshots fit
in memory trivially, which is exactly why the probe can serve as ground
truth for validating the sampled estimator (Fig. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..algorithms import OptimizerSpec
from ..core import AnchorRecorder, LayerSampler, ProfiledCurves
from ..data import BatchStream, Dataset
from ..nn import softmax_cross_entropy

__all__ = ["ProbeResult", "probe_curves"]


@dataclass(frozen=True)
class ProbeResult:
    """Ground-truth curves from one probed local round: ``full`` over every
    scalar, ``sampled`` over a sampler's subset of the same trajectory."""

    full: ProfiledCurves
    sampled: ProfiledCurves | None


def probe_curves(
    *,
    model_fn,
    shard: Dataset,
    global_state: dict,
    optimizer: OptimizerSpec,
    iterations: int,
    batch_size: int,
    sampler: LayerSampler | None = None,
    seed: int = 0,
) -> ProbeResult:
    """Replay a local round and compute exact progress curves.

    The full curves are FedCA's own profiler with a sampler that keeps
    every scalar. When ``sampler`` is given, sampled-subset curves are
    recorded alongside from the *same* trajectory, enabling an
    apples-to-apples sampling-fidelity comparison (Fig. 5).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    model = model_fn()
    model.load_state_dict(global_state)
    model.train(True)
    values = model.arena().values
    start = values.copy()
    opt = optimizer.build(model)
    stream = BatchStream(shard, batch_size, seed=seed)
    everything = LayerSampler.for_model(model, fraction=1.0, cap=math.inf)
    recorders = [
        AnchorRecorder([s], iterations) for s in (everything, sampler) if s is not None
    ]
    for _ in range(iterations):
        x, y = stream.next_batch()
        logits = model(x)
        _, grad = softmax_cross_entropy(logits, y)
        model.zero_grad()
        model.backward(grad)
        opt.step()
        for recorder in recorders:
            recorder.record(values, start)
    full, *sampled = (recorder.finalize(0)[0] for recorder in recorders)
    return ProbeResult(full=full, sampled=sampled[0] if sampled else None)
