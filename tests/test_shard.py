"""Parent-side reduce over the worker arenas + compressed wire transport
tests.

Invariants:

* The parent reduces every round, reading collected updates in place as
  read-only views of the worker result arenas. ``+shards=S`` — once an
  in-worker tree reduce — is an accepted spelling that changes nothing:
  ``parallel[:N]@shm+shards=S`` histories AND JSONL traces are
  byte-identical to ``parallel[:N]`` and to the reference loop, and the
  pool owns no segment beyond its broadcast and result arenas.
* ``--wire raw`` is the identity: byte-identical to runs that predate
  the wire feature. Lossy wires (quant8/quant4/topk:F) stay within a
  pinned accuracy tolerance and always shrink the uplink byte count.
* Wire codec state (error-feedback residuals, RNG positions) is kept on
  the client and rides its blob (``capture_blob``), so checkpoint resume and
  lazy-population evict/rehydrate reproduce uninterrupted runs exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import OptimizerSpec, build_strategy
from repro.core import FedCAConfig
from repro.data import dirichlet_partition, make_workload_data
from repro.nn import LeNetCNN
from repro.runtime import (
    FederatedSimulator,
    ParallelExecutor,
    RunHistory,
    SerialExecutor,
    ShmTransport,
    WireLayer,
    aggregate_updates,
    parse_wire_spec,
    resolve_executor,
    shm_available,
)
from repro.runtime.round import ClientRoundResult
from repro.runtime.parallel import fork_available
from repro.persist.snapshot import decode, encode
from repro.scale.cache import capture_blob, restore_blob

from .helpers import per_client_holdings, shm_segment_names

OPT = OptimizerSpec(lr=0.05, weight_decay=0.01)
NUM_CLIENTS = 5
ITERS = 6

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)
needs_shm = pytest.mark.skipif(
    not shm_available()[0], reason="platform lacks POSIX shared memory"
)


@pytest.fixture(scope="module")
def env_data():
    train, test = make_workload_data("cnn", num_samples=400, seed=3)
    parts = dirichlet_partition(train, NUM_CLIENTS, alpha=0.5, seed=4, min_samples=8)
    return [train.subset(p) for p in parts], test


def make_sim(env_data, scheme, *, executor, seed=1, wire=None, **kwargs):
    shards, test = env_data
    fedca_cfg = FedCAConfig(profile_every=2) if scheme.startswith("fedca") else None
    strategy = build_strategy(scheme, OPT, fedca_config=fedca_cfg)
    layer = parse_wire_spec(wire)
    if layer is not None:
        strategy.set_wire(layer)
    defaults = dict(
        model_fn=lambda: LeNetCNN(rng=np.random.default_rng(7)),
        strategy=strategy,
        shards=shards,
        test_set=test,
        base_iteration_times=[0.01, 0.012, 0.015, 0.02, 0.03],
        batch_size=8,
        local_iterations=ITERS,
        aggregation_fraction=0.8,
        seed=seed,
        executor=executor,
    )
    defaults.update(kwargs)
    return FederatedSimulator(**defaults)


def history_fingerprint(hist: RunHistory):
    return [
        (
            r.round_index,
            r.start_time,
            r.end_time,
            r.accuracy,
            r.mean_loss,
            r.collected_clients,
            r.straggler_clients,
            r.mean_iterations,
            r.total_bytes,
        )
        for r in hist.records
    ]


def run_traced(env_data, scheme, executor, *, wire=None):
    from repro.obs import TraceRecorder, events_to_jsonl

    rec = TraceRecorder()
    with make_sim(
        env_data, scheme, executor=executor, recorder=rec, wire=wire
    ) as sim:
        hist = sim.run(4)
    rec.close()
    return hist, events_to_jsonl(rec.events()), rec


# ----------------------------------------------------------------------
# The parent reads collected updates in place from the worker arenas
# ----------------------------------------------------------------------
def sample_results(num_clients=5):
    model = LeNetCNN(rng=np.random.default_rng(7))
    rng = np.random.default_rng(11)
    results = []
    for cid in range(num_clients):
        update = {
            name: (rng.normal(size=p.data.shape) * 1e-2).astype(np.float32)
            for name, p in model.named_parameters()
        }
        results.append(
            ClientRoundResult(
                client_id=cid,
                update=update,
                num_samples=int(rng.integers(5, 40)),
                iterations_run=1,
                compute_start_time=0.0,
                compute_finish_time=1.0,
                upload_finish_time=1.0 + cid,
                bytes_uploaded=0,
                mean_loss=0.0,
            )
        )
    return model, results


@needs_shm
class TestDecodedResultsAreArenaViews:
    def test_decoded_updates_are_read_only_views_until_detached(self):
        model, results = sample_results()
        reference = aggregate_updates(results)
        transport = ShmTransport()
        arena = model.arena()
        transport.setup(arena.layout, arena.buffer_layout, [len(results)])
        try:
            transport.worker_init(0)
            decoded = transport.decode_results(0, transport.encode_results(results))
            update = decoded[0].update
            name = next(iter(update))
            # No copy: the update is the arena slot, and writing into it
            # (which would corrupt the worker's reply) raises.
            assert not update[name].flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                update[name][...] = 0.0
            del update  # the arena cannot unmap under a live view
            in_place = aggregate_updates(decoded)
            transport.detach(decoded)
            assert decoded[0].update[name].flags.writeable
            detached = aggregate_updates(decoded)
        finally:
            transport.close()
        assert in_place.tobytes() == reference.tobytes()
        assert detached.tobytes() == reference.tobytes()


# ----------------------------------------------------------------------
# Executor-spec grammar: ``+shards=S`` is validated and changes nothing
# ----------------------------------------------------------------------
class TestShardSpecs:
    def test_shard_specs_parse(self):
        ex = resolve_executor("parallel:4@shm+shards=8")
        assert isinstance(ex, ParallelExecutor)
        assert ex.workers == 4
        assert not hasattr(ex, "shards")
        assert type(resolve_executor("parallel+shards=2")) is ParallelExecutor

    def test_bad_shard_specs(self):
        with pytest.raises(ValueError, match="bad option"):
            resolve_executor("parallel+chunks=2")
        with pytest.raises(ValueError, match="bad option"):
            resolve_executor("parallel+shard=2")
        with pytest.raises(ValueError, match="shard count"):
            resolve_executor("parallel+shards=zero")
        with pytest.raises(ValueError, match="shards must be >= 1"):
            resolve_executor("parallel+shards=0")


# ----------------------------------------------------------------------
# ``+shards=S`` runs the one parent reduce: the same bytes at any S
# ----------------------------------------------------------------------
class TestShardedReduceEquivalence:
    @needs_fork
    @needs_shm
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_bitwise_identical_histories_and_traces(self, env_data, scheme):
        """``parallel:2+shards=3`` is ``parallel:2`` is the reference
        loop, history JSON and trace, while its pool owns exactly one
        broadcast arena plus one result arena per worker."""
        from pathlib import Path

        from repro.obs import TraceRecorder, events_to_jsonl
        from repro.runtime import history_to_json
        from repro.runtime.transport import SEGMENT_PREFIX

        def run(executor):
            rec = TraceRecorder()
            with make_sim(env_data, scheme, executor=executor, recorder=rec) as sim:
                sim.run(4)
                if sim.executor.name == "parallel":
                    names = shm_segment_names(sim.executor)
                    assert len(names) == sim.executor.workers + 1
                    live = {p.name for p in Path("/dev/shm").glob(f"{SEGMENT_PREFIX}*")}
                    assert set(names) <= live
            rec.close()
            return history_to_json(sim.history), events_to_jsonl(rec.events())

        ref_json, ref_trace = run(SerialExecutor())
        assert ref_trace
        for spec in ("parallel:2", "parallel:2+shards=3"):
            got_json, got_trace = run(spec)
            assert got_json == ref_json, spec
            assert got_trace == ref_trace, spec

    @needs_fork
    @needs_shm
    def test_global_state_bitwise_identical(self, env_data):
        sim_s = make_sim(env_data, "fedavg", executor="serial")
        sim_s.run(3)
        with make_sim(
            env_data, "fedavg", executor="parallel:2@shm+shards=4"
        ) as sim_p:
            sim_p.run(3)
        for name in sim_s.global_state:
            assert np.array_equal(
                sim_s.global_state[name], sim_p.global_state[name]
            ), f"layer {name} diverged"

    @needs_fork
    @needs_shm
    def test_more_shards_than_workers(self, env_data):
        # A shard count above the worker count is as inert as any other.
        ref = make_sim(env_data, "fedca", executor="serial").run(4)
        with make_sim(
            env_data, "fedca", executor="parallel:2@shm+shards=7"
        ) as sim:
            hist = sim.run(4)
        assert history_fingerprint(hist) == history_fingerprint(ref)


class TestShardedLifecycle:
    @needs_fork
    @needs_shm
    def test_shard_arenas_exist_and_unlink_on_close(self, env_data):
        from pathlib import Path

        executor = resolve_executor("parallel:2+shards=3")
        sim = make_sim(env_data, "fedavg", executor=executor)
        sim.run_round()
        names = shm_segment_names(executor)
        # broadcast + 2 result arenas; the spelling allocates nothing more
        assert len(names) == 3
        assert all((Path("/dev/shm") / n).exists() for n in names)
        sim.close()
        assert all(not (Path("/dev/shm") / n).exists() for n in names)

    @needs_fork
    @needs_shm
    def test_worker_death_mid_run_falls_back_serially(self, env_data):
        from pathlib import Path

        executor = resolve_executor("parallel:2+shards=2")
        with make_sim(env_data, "fedca", executor=executor) as sim:
            sim.run_round()
            names = shm_segment_names(executor)
            executor._procs[0].terminate()
            executor._procs[0].join()
            with pytest.warns(RuntimeWarning, match="worker died"):
                rec = sim.run_round()
            assert executor._fallback is not None
            assert all(not (Path("/dev/shm") / n).exists() for n in names)
            # The crash round still aggregated real updates, so the round
            # record is coherent (not zeros / not an error).
            assert rec.end_time > rec.start_time
            assert np.isfinite(rec.mean_loss)
            sim.run_round()
            assert sim.history.num_rounds == 3


# ----------------------------------------------------------------------
# Wire transport
# ----------------------------------------------------------------------
class TestWireSpecs:
    def test_raw_and_empty_mean_no_layer(self):
        assert parse_wire_spec(None) is None
        assert parse_wire_spec("raw") is None
        assert parse_wire_spec("  RAW ") is None
        assert parse_wire_spec("") is None

    def test_known_specs(self):
        assert isinstance(parse_wire_spec("quant8"), WireLayer)
        assert isinstance(parse_wire_spec("quant4"), WireLayer)
        assert parse_wire_spec("topk:0.1").spec == "topk:0.1"

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="unknown wire spec"):
            parse_wire_spec("gzip")
        with pytest.raises(ValueError, match="fraction"):
            parse_wire_spec("topk:banana")
        with pytest.raises(ValueError, match="fraction must be in"):
            parse_wire_spec("topk:1.5")

    def test_codecs_are_per_client_and_releasable(self, env_data):
        sim = make_sim(env_data, "fedavg", executor="serial", wire="topk:0.5")
        layer, a, b = sim.strategy.wire, sim.clients[3], sim.clients[4]
        update = {"w": np.arange(8, dtype=np.float32)}
        layer.encode(a, update)
        layer.encode(b, {"w": -update["w"]})
        assert layer.codec_for(a) is not layer.codec_for(b)
        residual_a = decode(capture_blob(a))["kept"]["wire"]["residuals"]["w"]
        residual_b = decode(capture_blob(b))["kept"]["wire"]["residuals"]["w"]
        np.testing.assert_array_equal(residual_a, -residual_b)
        assert residual_a.any()
        # The codec leaves in the client's snapshot and comes back on a
        # fresh client; the layer itself holds nothing to release.
        snapshot = decode(capture_blob(a))
        fresh = make_sim(env_data, "fedavg", executor="serial").clients[3]
        assert "kept" not in decode(capture_blob(fresh))
        restore_blob(fresh, capture_blob(a))
        got, got_bytes = layer.encode(fresh, update)
        want, want_bytes = layer.encode(a, update)
        np.testing.assert_array_equal(got["w"], want["w"])
        assert got_bytes == want_bytes
        assert per_client_holdings(layer) == []


class TestWireRuns:
    @needs_fork
    @needs_shm
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_raw_wire_is_bitwise_identity(self, env_data, scheme):
        ref_hist, ref_jsonl, _ = run_traced(env_data, scheme, "serial")
        hist, jsonl, _ = run_traced(env_data, scheme, "serial", wire="raw")
        assert history_fingerprint(hist) == history_fingerprint(ref_hist)
        assert jsonl == ref_jsonl
        # ...and the raw parallel run still matches the oracle bitwise.
        hist_p, jsonl_p, _ = run_traced(env_data, scheme, "parallel:2", wire="raw")
        assert history_fingerprint(hist_p) == history_fingerprint(ref_hist)
        assert jsonl_p == ref_jsonl

    @pytest.mark.parametrize("wire", ["quant8", "topk:0.25"])
    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    def test_lossy_wires_shrink_bytes_within_pinned_tolerance(
        self, env_data, scheme, wire
    ):
        ref = make_sim(env_data, scheme, executor="serial").run(4)
        hist = make_sim(env_data, scheme, executor="serial", wire=wire).run(4)
        assert sum(r.total_bytes for r in hist.records) < sum(
            r.total_bytes for r in ref.records
        )
        # Pinned tolerance: lossy transport may cost accuracy, but the
        # run must stay in the same training regime as the raw oracle.
        assert hist.final_accuracy >= ref.final_accuracy - 0.25
        assert all(np.isfinite(r.mean_loss) for r in hist.records)

    @needs_fork
    def test_wire_is_engine_independent(self, env_data):
        # Stateful codecs follow sticky worker routing: serial and parallel
        # runs of the same lossy wire agree bitwise.
        ref_hist, ref_jsonl, _ = run_traced(
            env_data, "fedca", "serial", wire="quant8"
        )
        hist, jsonl, _ = run_traced(env_data, "fedca", "parallel:2", wire="quant8")
        assert history_fingerprint(hist) == history_fingerprint(ref_hist)
        assert jsonl == ref_jsonl

    def test_wire_byte_counters_mirror_events(self, env_data):
        hist, _, rec = run_traced(env_data, "fedavg", "serial", wire="quant8")
        raw = rec.counters['repro_wire_bytes_total{variant="raw"}']
        wired = rec.counters['repro_wire_bytes_total{variant="wire"}']
        assert 0 < wired < raw
        assert wired == sum(
            ev["wire"]["wire_bytes"]
            for r in hist.records
            for ev in r.client_events.values()
        )
        # Uplink accounting follows the wire bytes.
        assert sum(r.total_bytes for r in hist.records) == sum(
            ev["wire"]["wire_bytes"]
            for r in hist.records
            for ev in r.client_events.values()
        )

    def test_raw_runs_emit_no_wire_counters(self, env_data):
        _, _, rec = run_traced(env_data, "fedavg", "serial")
        assert not any("wire" in k for k in rec.counters)


class TestWireStateLifecycle:
    """Error-feedback residuals must survive every persistence path."""

    def test_checkpoint_resume_matches_uninterrupted(self, env_data, tmp_path):
        ref = make_sim(
            env_data, "fedca", executor="serial", wire="topk:0.25"
        ).run(4)
        ckpt = str(tmp_path / "ckpt")
        from repro.persist import find_latest_checkpoint, save_run_checkpoint

        sim = make_sim(env_data, "fedca", executor="serial", wire="topk:0.25")
        sim.run(2)
        save_run_checkpoint(sim, ckpt)
        resumed = make_sim(env_data, "fedca", executor="serial", wire="topk:0.25")
        resumed.resume(find_latest_checkpoint(ckpt))
        resumed.run(2)
        assert history_fingerprint(resumed.history) == history_fingerprint(ref)

    def test_resume_under_different_wire_fails_loudly(self, env_data, tmp_path):
        from repro.persist import (
            CheckpointFormatError,
            find_latest_checkpoint,
            save_run_checkpoint,
        )

        ckpt = str(tmp_path / "ckpt")
        sim = make_sim(env_data, "fedavg", executor="serial", wire="quant8")
        sim.run(1)
        save_run_checkpoint(sim, ckpt)
        for other in [None, "topk:0.25"]:
            fresh = make_sim(env_data, "fedavg", executor="serial", wire=other)
            with pytest.raises(CheckpointFormatError, match="wire"):
                fresh.resume(find_latest_checkpoint(ckpt))

    def test_lazy_population_evict_rehydrate_matches_eager(self, env_data):
        ref = make_sim(
            env_data, "fedca", executor="serial", wire="topk:0.25"
        ).run(4)
        hist = make_sim(
            env_data,
            "fedca",
            executor="serial",
            wire="topk:0.25",
            population="lazy:cache=2",
        ).run(4)
        assert history_fingerprint(hist) == history_fingerprint(ref)

    def test_wrapped_snapshot_shape(self, env_data):
        # One snapshot per client, no envelope: a FedAvg/raw client's is
        # exactly the stream and the trace, and "kept" appears only once an
        # owner keeps something non-empty there — one entry per owner.
        update = {"w": np.ones(4, dtype=np.float32)}
        plain = make_sim(env_data, "fedavg", executor="serial")
        plain.run(1)
        assert set(decode(capture_blob(plain.clients[0]))) == {"stream", "trace"}

        sim = make_sim(env_data, "fedca", executor="serial", wire="topk:0.5")
        client, fedca = sim.clients[2], sim.strategy
        assert fedca.profile(client).curves is None
        # An un-profiled FedCA client has an empty profile: no entry.
        assert set(decode(capture_blob(client))) == {"stream", "trace"}
        fedca.wire.encode(client, update)
        assert set(decode(capture_blob(client))["kept"]) == {"wire"}
        sim.run(1)  # the anchor round profiles every client
        snapshot = decode(capture_blob(client))
        assert set(snapshot) == {"stream", "trace", "kept"}
        assert set(snapshot["kept"]) == {"fedca", "wire"}
        assert set(snapshot["kept"]["fedca"]) == {"round_index", "curves"}
        assert set(snapshot["kept"]["wire"]) == {"residuals"}
        # A restored-but-untouched client carries its snapshots verbatim.
        fresh = make_sim(env_data, "fedca", executor="serial").clients[2]
        restore_blob(fresh, capture_blob(client))
        carried = decode(capture_blob(fresh))["kept"]
        assert list(carried) == ["fedca", "wire"]
        assert encode(carried) == encode(snapshot["kept"])
