"""FedCA reads the model as one vector: the flat sampler, the one-gather
recorder and the ``(L + 1, K)`` curve matrix hold the bytes of the
per-layer ``{name: array}`` form they replaced (``tests/helpers.py``)."""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FedCA, build_strategy
from repro.algorithms.fedca import ClientProfile
from repro.core import (
    AnchorRecorder,
    EagerSchedule,
    FedCAConfig,
    LayerSampler,
    progress_curve,
)
from repro.core.eager import NEVER
from repro.experiments import get_workload, make_environment, probe_curves
from repro.nn import WideResNet, build_model, softmax_cross_entropy
from repro.persist.snapshot import decode, encode
from repro.scale.cache import capture_blob
from repro.runtime import Binding, CohortExecutor
from repro.runtime.round import RoundContext

from .helpers import (
    extract_delta_reference,
    finalize_reference,
    global_vectors,
    profile_snapshot_reference,
    sampler_indices_reference,
    trigger_reference,
)
from .test_cohort import OPT, Population, make_client, model_fn

MODELS = {
    "cnn": lambda: build_model("cnn", rng=np.random.default_rng(0)),
    "lstm": lambda: build_model("lstm", rng=np.random.default_rng(0)),
    "wrn": lambda: build_model("wrn", rng=np.random.default_rng(0)),
    "wrn-gn": lambda: WideResNet(norm="group", rng=np.random.default_rng(0)),
}
_BUILT = {name: build() for name, build in MODELS.items()}


def _shapes(model) -> dict:
    return {name: shape for name, _, shape in model.arena().layout.entries}


@pytest.mark.parametrize("name", list(MODELS))
def test_flat_index_order_is_the_layout_order(name):
    """``named_parameters`` walks the tree in ``Layout.entries`` order, so
    the flat sampler draws today's per-layer indices in today's order and
    each layer's segment sits at that layer's offset."""
    model = _BUILT[name]
    layout = model.arena().layout
    assert tuple(n for n, _ in model.named_parameters()) == tuple(
        n for n, _, _ in layout.entries
    )
    sampler = LayerSampler.for_model(model, seed=5)
    ref = sampler_indices_reference(_shapes(model), seed=5)
    want = np.concatenate([ref[n] + offset for n, offset, _ in layout.entries])
    assert sampler.index.tobytes() == want.tobytes()
    assert sampler.names == tuple(ref)
    assert list(np.diff(sampler.bounds)) == [idx.size for idx in ref.values()]


@pytest.mark.parametrize("name", list(MODELS))
@given(seed=st.integers(0, 2**16), k=st.integers(1, 8))
@settings(max_examples=6, deadline=None)
def test_curves_triggers_and_stats_are_the_reference_bytes(name, seed, k):
    """A random anchor trajectory (the last layer never moves, so Eq. 1's
    zero-vector case is hit) recorded both ways: the curve matrix, Eq. 5's
    triggers, the ``fedca.anchor`` stats and the profile snapshot match the
    per-layer reference bit for bit."""
    model = _BUILT[name]
    layout = model.arena().layout
    sampler = LayerSampler.for_model(model, seed=seed)
    indices = sampler_indices_reference(_shapes(model), seed=seed)
    rng = np.random.default_rng(seed)
    anchor = model.arena().values.copy()
    params = anchor.copy()
    _, frozen, shape = layout.entries[-1]
    recorder = AnchorRecorder([sampler], k)
    snaps = []
    for _ in range(k):
        step = rng.normal(scale=1e-2, size=params.shape).astype(np.float32)
        step[frozen : frozen + int(np.prod(shape))] = 0
        params += step
        recorder.record(params, anchor)
        snaps.append(
            extract_delta_reference(indices, layout.views(params), layout.views(anchor))
        )
    stats = recorder.stats()
    (curves,) = recorder.finalize(3)
    model_curve, layer_curves = finalize_reference(snaps)

    assert stats == {
        "iterations": k,
        "profiling_bytes": sum(v.nbytes for s in snaps for v in s.values()),
        "sampled_scalars": sum(idx.size for idx in indices.values()),
        "sampled_layers": len(indices),
    }
    assert curves.names == tuple(layer_curves)
    assert curves.model_curve.tobytes() == model_curve.tobytes()
    for layer, curve in layer_curves.items():
        assert curves.layer_curve(layer).tobytes() == curve.tobytes(), layer
    for threshold in (0.3, 0.9, 0.95, 1.0):
        sched = EagerSchedule([curves], threshold)
        got = [(n, int(t)) for n, t in zip(sched.names, sched.triggers[0]) if t != NEVER]
        assert got == list(trigger_reference(layer_curves, threshold).items())

    profile = ClientProfile(FedCAConfig(), seed, curves.names)
    profile.curves = curves
    snapshot = profile.snapshot_state()
    ref = profile_snapshot_reference(3, model_curve, layer_curves)
    assert snapshot["round_index"] == ref["round_index"]
    want = np.stack([ref["model_curve"], *ref["layer_curves"].values()])
    assert snapshot["curves"].tobytes() == want.tobytes()
    restored = ClientProfile(FedCAConfig(), seed, curves.names)
    restored.restore_state(decode(encode(snapshot)))
    assert restored.curves.curves.tobytes() == want.tobytes()
    assert restored.curves.num_iterations == ref["num_iterations"] == k


def test_stack_member_records_its_width_one_bytes():
    """A member of a width-8 stack gathers from row ``i`` of the stacked
    arena; a width-1 engine gathers from the client's own run. Both rounds
    (anchor, then optimised) give every client the same curves, results and
    decision events."""
    rounds = [
        [(i, RoundContext(r, 0.0, 6, 0.05, trace_enabled=True)) for i in range(8)]
        for r in (0, 1)
    ]
    outcomes = []
    for width in (8, 1):
        strategy = FedCA(OPT, config=FedCAConfig(profile_every=5))
        clients = [make_client(i) for i in range(8)]
        executor = CohortExecutor(width, pad=False)
        executor.bind(Binding(Population(clients), strategy))
        params, buffers = global_vectors(model_fn())
        results = []
        for jobs in rounds:
            results += executor.run_round(params, buffers, jobs)
        curves = [strategy.profile(c).curves.curves.tobytes() for c in clients]
        outcomes.append((results, curves))
    (wide, wide_curves), (narrow, narrow_curves) = outcomes
    assert wide_curves == narrow_curves
    assert any(e["kind"] == "fedca.eager" for r in wide for e in r.trace)
    for a, b in zip(wide, narrow):
        assert a.client_id == b.client_id
        assert a.trace == b.trace and a.events == b.events
        for layer in a.update:
            assert a.update[layer].tobytes() == b.update[layer].tobytes(), layer


def test_probe_curves_are_the_per_layer_reference_bytes():
    """``probe_curves`` records through ``AnchorRecorder``; its full and
    sampled curves equal the per-layer deltas the probe computed itself."""
    cfg = get_workload("cnn", "micro")
    sim = make_environment(cfg, build_strategy("fedavg", cfg.optimizer_spec()), seed=0)
    sim.run(1)
    shard, state = sim.clients[0].shard, sim.global_state
    sampler = LayerSampler.for_model(cfg.model_fn()(), seed=0)
    kwargs = dict(
        model_fn=cfg.model_fn(), shard=shard, global_state=state,
        optimizer=cfg.optimizer_spec(), iterations=5, batch_size=cfg.batch_size, seed=3,
    )
    probe = probe_curves(sampler=sampler, **kwargs)

    from repro.data import BatchStream

    model = cfg.model_fn()()
    model.load_state_dict(state)
    model.train(True)
    opt = cfg.optimizer_spec().build(model)
    stream = BatchStream(shard, cfg.batch_size, seed=3)
    start = {n: p.data.copy() for n, p in model.named_parameters()}
    indices = sampler_indices_reference(_shapes(model), seed=0)
    full, sampled = [], []
    for _ in range(5):
        x, y = stream.next_batch()
        _, grad = softmax_cross_entropy(model(x), y)
        model.zero_grad()
        model.backward(grad)
        opt.step()
        delta = {n: p.data - start[n] for n, p in model.named_parameters()}
        full.append(delta)
        sampled.append({n: delta[n].ravel()[idx] for n, idx in indices.items()})
    full_model = progress_curve([np.concatenate([d[n].ravel() for n in start]) for d in full])
    assert probe.full.model_curve.tobytes() == full_model.tobytes()
    for n in start:
        assert probe.full.layer_curve(n).tobytes() == progress_curve([d[n] for d in full]).tobytes()
    model_curve, layer_curves = finalize_reference(sampled)
    assert probe.sampled.model_curve.tobytes() == model_curve.tobytes()
    for n, curve in layer_curves.items():
        assert probe.sampled.layer_curve(n).tobytes() == curve.tobytes()


def test_wrn_fedca_blob_is_smaller_than_the_dict_profile():
    """After 6 micro-WRN FedCA rounds the median client blob is 7 665 B;
    with the curves as a dict of arrays it was 8 688 B."""
    cfg = get_workload("wrn", "micro")
    sim = make_environment(cfg, build_strategy("fedca", cfg.optimizer_spec()), seed=0)
    sim.run(6)
    sizes = [len(capture_blob(sim.clients[c])) for c in range(cfg.num_clients)]
    assert statistics.median(sizes) < 8688
