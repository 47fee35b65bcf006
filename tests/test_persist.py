"""Run-persistence tests: the checkpoint/resume bitwise-determinism oracle,
the on-disk container's corruption detection, lifecycle guards, and the
content-addressed result cache."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

from repro.core import FedCAConfig
from repro.experiments import get_workload
from repro.experiments.multiseed import format_multiseed, run_multiseed
from repro.experiments.runner import run_scheme
from repro.obs import TraceRecorder
from repro.persist import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointNotFoundError,
    PersistError,
    ResultCache,
    RunCheckpoint,
    find_latest_checkpoint,
    list_checkpoints,
    read_payload,
    write_payload,
)
from repro.persist.snapshot import decode, encode
from repro.runtime.export import history_to_json
from repro.runtime.parallel import fork_available

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="platform lacks the fork start method"
)

#: Shrunken CNN workload: big enough to exercise every stateful subsystem
#: (dynamic speed traces, FedCA profiling cycle, batch streams), small
#: enough that the scheme x executor oracle matrix stays fast.
CFG = dataclasses.replace(
    get_workload("cnn", "micro"),
    num_samples=400,
    num_clients=4,
    local_iterations=5,
    batch_size=8,
    fedca_profile_every=2,
    default_rounds=6,
)

TOTAL, HALF = 6, 3


def _run(scheme, *, rounds, executor=None, recorder=None, **kwargs):
    return run_scheme(
        CFG,
        scheme,
        rounds=rounds,
        stop_at_target=False,
        seed=3,
        executor=executor,
        recorder=recorder,
        **kwargs,
    )


@pytest.fixture()
def saved_checkpoint(tmp_path):
    """A real checkpoint pair on disk (plus its directory)."""
    ckdir = tmp_path / "ck"
    _run("fedavg", rounds=2, checkpoint_dir=str(ckdir), checkpoint_every=1)
    return find_latest_checkpoint(str(ckdir)), ckdir


class TestResumeBitwiseOracle:
    """The tentpole guarantee: run N rounds straight vs run N/2, checkpoint,
    crash, resume — histories AND JSONL traces must be byte-identical,
    under both execution engines."""

    @pytest.mark.parametrize("scheme", ["fedavg", "fedca"])
    @pytest.mark.parametrize(
        "executor",
        [None, pytest.param("parallel:4", marks=needs_fork)],
    )
    def test_history_and_trace_byte_identical(self, tmp_path, scheme, executor):
        ref_trace = tmp_path / "ref.jsonl"
        rec_ref = TraceRecorder(trace_path=str(ref_trace))
        ref = _run(scheme, rounds=TOTAL, executor=executor, recorder=rec_ref)
        rec_ref.close()

        ckdir = tmp_path / "ck"
        res_trace = tmp_path / "res.jsonl"
        rec_half = TraceRecorder(trace_path=str(res_trace))
        _run(
            scheme,
            rounds=HALF,
            executor=executor,
            recorder=rec_half,
            checkpoint_dir=str(ckdir),
            checkpoint_every=1,
        )
        # Simulate the crash: no clean recorder close, and a half-flushed
        # garbage tail past the checkpointed offset that resume must discard.
        with open(res_trace, "a") as fh:
            fh.write('{"torn-write')

        rec_res = TraceRecorder(trace_path=str(res_trace), defer_sink=True)
        resumed = _run(
            scheme,
            rounds=TOTAL,
            executor=executor,
            recorder=rec_res,
            checkpoint_dir=str(ckdir),
            resume=True,
        )
        rec_res.close()

        assert history_to_json(resumed.history) == history_to_json(ref.history)
        assert res_trace.read_bytes() == ref_trace.read_bytes()
        assert rec_res.counters == rec_ref.counters
        assert rec_res.num_events == rec_ref.num_events

    def test_global_state_bit_exact_after_resume(self, tmp_path):
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        strategy = build_strategy("fedavg", CFG.optimizer_spec())
        ref = make_environment(CFG, strategy, seed=3)
        ref.run(4)

        half = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3
        )
        half.run(2)
        path = tmp_path / "mid.ckpt"
        RunCheckpoint.from_simulator(half).save(str(path))
        half.close()

        fresh = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3
        )
        ckpt = fresh.resume(str(path))
        assert ckpt.rounds_completed == 2
        fresh.run(2)
        for name in ref.global_state:
            np.testing.assert_array_equal(
                ref.global_state[name], fresh.global_state[name]
            )
        ref.close()
        fresh.close()

    def test_resume_respects_early_target_stop(self, tmp_path):
        # A checkpointed run whose history already met the target must not
        # run extra rounds on resume (the uninterrupted run would have
        # stopped at that round).
        ckdir = tmp_path / "ck"
        first = run_scheme(
            CFG, "fedavg", rounds=2, stop_at_target=False, seed=3,
            checkpoint_dir=str(ckdir), checkpoint_every=1,
        )
        reached = max(r.accuracy for r in first.history.records)
        easy = dataclasses.replace(CFG, target_accuracy=reached / 2)
        resumed = run_scheme(
            easy, "fedavg", rounds=TOTAL, stop_at_target=True, seed=3,
            checkpoint_dir=str(ckdir), resume=True,
        )
        assert resumed.history.num_rounds == 2


class TestContainer:
    def test_pack_unpack_roundtrip(self):
        # The in-memory codec alone: a mixed tree packs to bytes and
        # unpacks to the same values and dtypes.
        tree = {
            "a": np.arange(6, dtype=np.float32).reshape(2, 3),
            "nested": {"b": np.ones(2, dtype=np.int64), "n": None, "f": 1.5},
            "list": [np.zeros(1), "text", 3],
            "np_scalar": np.float64(2.5),
        }
        packed = encode(tree)
        assert isinstance(packed, bytes)
        back = decode(packed)
        np.testing.assert_array_equal(back["a"], tree["a"])
        assert back["a"].dtype == np.float32 and back["a"].shape == (2, 3)
        np.testing.assert_array_equal(back["nested"]["b"], tree["nested"]["b"])
        assert back["nested"]["b"].dtype == np.int64
        assert back["nested"]["n"] is None
        assert back["list"][1:] == ["text", 3]
        assert back["np_scalar"] == 2.5

    def test_unsupported_type_rejected(self, tmp_path):
        # The codec takes plain data only — an OrderedDict (what
        # Module.state_dict() returns) included — and never blesses a
        # payload it could not finish.
        from collections import OrderedDict

        for bad in ({"x": object()}, {"x": OrderedDict(w=np.eye(2))}):
            path = str(tmp_path / "bad.ckpt")
            with pytest.raises(TypeError):
                write_payload(path, bad)
            assert list_checkpoints(str(tmp_path)) == []

    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.ckpt")
        tree = {
            "w": np.eye(3),
            "meta": {"k": [1, 2]},
            "nested": {"b": np.ones(2, dtype=np.int64), "n": None, "f": 1.5},
            "list": [np.zeros(1, dtype=np.float32), "text", 3, (4, 5)],
            "np_scalar": np.float64(2.5),
            "blob": b"\x00snapshot",
        }
        write_payload(path, tree)
        back = read_payload(path)
        np.testing.assert_array_equal(back["w"], np.eye(3))
        assert back["meta"]["k"] == [1, 2]
        assert back["nested"]["b"].dtype == np.int64
        assert back["nested"]["n"] is None and back["nested"]["f"] == 1.5
        assert back["list"][0].dtype == np.float32
        assert back["list"][1:] == ["text", 3, [4, 5]]
        assert back["np_scalar"] == 2.5 and type(back["np_scalar"]) is float
        assert back["blob"] == b"\x00snapshot"
        assert os.path.exists(path + ".manifest.json")

    def test_payload_is_one_snapshot_tree(self, tmp_path):
        # The payload holds exactly the encoder's bytes: one codec for
        # every piece of state at rest, and the manifest hashes those bytes.
        import hashlib

        path = str(tmp_path / "t.ckpt")
        tree = {"w": np.arange(4, dtype=np.float32), "clients": {"3": b"abc"}}
        write_payload(path, tree)
        data = open(path, "rb").read()
        assert data == encode(tree)
        manifest = json.load(open(path + ".manifest.json"))
        assert manifest["size"] == len(data)
        assert manifest["sha256"] == hashlib.sha256(data).hexdigest()

    def test_dict_key_insertion_order_preserved(self, tmp_path):
        # History byte-identity depends on restored dicts iterating in the
        # original insertion order ("2" before "10", unsorted).
        path = str(tmp_path / "t.ckpt")
        write_payload(path, {"events": {"2": 1, "10": 2, "1": 3}})
        assert list(read_payload(path)["events"]) == ["2", "10", "1"]


def _rebless(path, data):
    """Write ``data`` as the payload at ``path`` under a manifest that
    vouches for it, so only the decoder and the loader's checks stand
    between it and a restore."""
    import hashlib

    open(path, "wb").write(data)
    mpath = path + ".manifest.json"
    manifest = json.load(open(mpath))
    manifest.update(size=len(data), sha256=hashlib.sha256(data).hexdigest())
    json.dump(manifest, open(mpath, "w"))


class TestClientBlobSection:
    """Per-client snapshots are a plain ``{cid: blob}`` section of the
    payload tree, cost a few bytes each beyond the blob, and pass through
    save → load → restore still encoded."""

    def test_per_client_payload_overhead_is_a_small_constant(
        self, saved_checkpoint, tmp_path
    ):
        path, _ = saved_checkpoint
        ckpt = RunCheckpoint.load(path)
        sizes = {}
        for n in (0, 1000):
            clients = {str(cid): bytes(400) for cid in range(n)}
            out = str(tmp_path / f"n{n}.ckpt")
            dataclasses.replace(ckpt, clients=clients).save(out)
            assert RunCheckpoint.load(out).clients == clients
            sizes[n] = os.path.getsize(out)
        # A key run and a bytes header: 9 bytes plus the id's digits.
        per_client = (sizes[1000] - sizes[0]) / 1000 - 400
        assert 0 < per_client <= 16

    def test_blobs_pass_through_undecoded(self, saved_checkpoint):
        path, _ = saved_checkpoint
        ckpt = RunCheckpoint.load(path)
        assert sorted(ckpt.clients) == ["0", "1", "2", "3"]
        assert all(type(blob) is bytes for blob in ckpt.clients.values())
        assert set(decode(ckpt.clients["0"])) == {"stream", "trace"}
        # A lazy population is handed the very objects the file was cut into.
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        lazy = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3,
            population="lazy:cache=2",
        )
        with lazy:
            ckpt.restore_into(lazy)
            cache = lazy.population.cache
            assert len(cache) == 0 and cache.creations == 0
            assert all(cache._snapshots[int(cid)] is blob
                       for cid, blob in ckpt.clients.items())
            assert cache.snapshot_bytes == sum(map(len, ckpt.clients.values()))

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda data, tree: data[:-1], CheckpointCorruptError),
            (lambda data, tree: data + b"\x00", CheckpointCorruptError),
            (lambda data, tree: encode(list(tree.values())), CheckpointFormatError),
            (lambda data, tree: encode({**tree, "clients": [b"x"]}),
             CheckpointCorruptError),
            (lambda data, tree: encode({**tree, "clients": {"0": "text"}}),
             CheckpointCorruptError),
            (lambda data, tree: encode({**tree, "clients": {"a": b"x"}}),
             CheckpointCorruptError),
            (lambda data, tree: encode({**tree, "rounds_completed": "two"}),
             CheckpointFormatError),
        ],
        ids=["truncated", "trailing-byte", "top-level-list", "clients-not-dict",
             "non-bytes-blob", "non-int-key", "non-int-round"],
    )
    def test_malformed_payload_raises_a_typed_error(
        self, saved_checkpoint, tmp_path, damage, error
    ):
        path, _ = saved_checkpoint
        data = open(path, "rb").read()
        bad = str(tmp_path / "bad.ckpt")
        shutil.copy(path + ".manifest.json", bad + ".manifest.json")
        _rebless(bad, damage(data, decode(data)))
        with pytest.raises(error) as info:
            RunCheckpoint.load(bad)
        # Exactly the typed family: nothing else escapes the loader.
        assert isinstance(info.value, CheckpointFormatError)


class TestCorruptionDetection:
    """A damaged checkpoint must raise a typed error before any state is
    touched — never a partial restore, never a numpy broadcast error."""

    def _copy(self, src, tmp_path, name):
        dst = str(tmp_path / name)
        shutil.copy(src, dst)
        shutil.copy(src + ".manifest.json", dst + ".manifest.json")
        return dst

    def test_bit_flip_rejected(self, saved_checkpoint, tmp_path):
        path, _ = saved_checkpoint
        bad = self._copy(path, tmp_path, "flip.ckpt")
        data = bytearray(open(bad, "rb").read())
        data[len(data) // 2] ^= 0xFF
        open(bad, "wb").write(bytes(data))
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            RunCheckpoint.load(bad)

    def test_truncation_rejected(self, saved_checkpoint, tmp_path):
        path, _ = saved_checkpoint
        bad = self._copy(path, tmp_path, "trunc.ckpt")
        data = open(bad, "rb").read()
        open(bad, "wb").write(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError):
            RunCheckpoint.load(bad)

    def test_missing_manifest_rejected(self, saved_checkpoint, tmp_path):
        path, _ = saved_checkpoint
        bad = str(tmp_path / "nomani.ckpt")
        shutil.copy(path, bad)
        with pytest.raises(CheckpointFormatError, match="manifest"):
            RunCheckpoint.load(bad)

    def test_version_mismatch_rejected(self, saved_checkpoint, tmp_path):
        path, _ = saved_checkpoint
        bad = self._copy(path, tmp_path, "ver.ckpt")
        manifest = json.load(open(bad + ".manifest.json"))
        manifest["version"] = 999
        json.dump(manifest, open(bad + ".manifest.json", "w"))
        with pytest.raises(CheckpointFormatError, match="version"):
            RunCheckpoint.load(bad)
        # A checkpoint of an earlier format (version 1 kept per-client
        # strategy state in its own section, version 2 two archive members
        # per client, version 3 was an .npz archive) is refused by version,
        # naming both, before the payload is even hashed.
        manifest["sha256"] = "not checked"
        for old in (1, 2, 3):
            manifest["version"] = old
            json.dump(manifest, open(bad + ".manifest.json", "w"))
            with pytest.raises(
                CheckpointFormatError, match=rf"version {old}\b.*version 4\b"
            ):
                RunCheckpoint.load(bad)

    def test_corrupt_is_a_format_error(self):
        # One except-clause catches the whole "unusable checkpoint" family.
        assert issubclass(CheckpointCorruptError, CheckpointFormatError)
        assert issubclass(CheckpointFormatError, ValueError)

    def test_missing_payload(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            RunCheckpoint.load(str(tmp_path / "absent.ckpt"))


class TestDiscoveryAndGuards:
    def test_find_latest_prefers_highest_round(self, tmp_path):
        ckdir = tmp_path / "ck"
        _run("fedavg", rounds=2, checkpoint_dir=str(ckdir), checkpoint_every=1)
        latest = find_latest_checkpoint(str(ckdir))
        assert os.path.basename(latest) == "round-000002.ckpt"

    def test_incomplete_pair_skipped(self, tmp_path):
        ckdir = tmp_path / "ck"
        _run("fedavg", rounds=2, checkpoint_dir=str(ckdir), checkpoint_every=1)
        latest = find_latest_checkpoint(str(ckdir))
        os.remove(latest + ".manifest.json")  # simulate interrupted save
        remaining = list_checkpoints(str(ckdir))
        assert all(p != latest for _, p in remaining)
        assert os.path.basename(find_latest_checkpoint(str(ckdir))) == "round-000001.ckpt"

    def test_old_checkpoints_pruned(self, tmp_path):
        ckdir = tmp_path / "ck"
        _run("fedavg", rounds=4, checkpoint_dir=str(ckdir), checkpoint_every=1)
        rounds = [n for n, _ in list_checkpoints(str(ckdir))]
        assert rounds == [3, 4]

    def test_missing_dir_fails_fast(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError, match="does not exist"):
            find_latest_checkpoint(str(tmp_path / "nope"))

    def test_empty_dir_fails_fast(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CheckpointNotFoundError, match="no checkpoints"):
            find_latest_checkpoint(str(empty))

    def test_incomplete_only_dir_lists_strays(self, tmp_path):
        stray = tmp_path / "stray"
        stray.mkdir()
        (stray / "round-000007.ckpt").write_bytes(b"half-written")
        with pytest.raises(CheckpointNotFoundError, match="round-000007"):
            find_latest_checkpoint(str(stray))

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_scheme(CFG, "fedavg", resume=True)

    def test_restore_into_used_simulator_rejected(self, saved_checkpoint):
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        path, _ = saved_checkpoint
        sim = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3
        )
        sim.run_round()
        with pytest.raises(PersistError, match="fresh"):
            sim.resume(path)
        sim.close()

    @needs_fork
    def test_restore_after_pool_fork_rejected(self, saved_checkpoint):
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        path, _ = saved_checkpoint
        sim = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3,
            executor="parallel:2",
        )
        # fork before any round
        sim.executor._start()
        with pytest.raises(PersistError, match="fork"):
            sim.resume(path)
        sim.close()

    def test_config_mismatch_rejected(self, saved_checkpoint):
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        path, _ = saved_checkpoint
        sim = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=99
        )
        with pytest.raises(CheckpointFormatError, match="seed"):
            sim.resume(path)
        sim.close()

    @pytest.mark.parametrize("damage", ["missing_layer", "wrong_shape"])
    def test_global_state_that_does_not_fit_is_rejected_at_restore(
        self, tmp_path, saved_checkpoint, damage
    ):
        """The saved global model is outside input: a payload whose
        ``global_state`` lacks a layer or has a wrong shape — written with a
        valid manifest digest, so only the restore can catch it — fails the
        restore, not the first round."""
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        ckpt = RunCheckpoint.load(saved_checkpoint[0])
        state = dict(ckpt.global_state)
        name = next(iter(state))
        if damage == "missing_layer":
            del state[name]
        else:
            state[name] = np.zeros(state[name].size + 1, dtype=np.float32)
        path = str(tmp_path / "damaged.ckpt")
        dataclasses.replace(ckpt, global_state=state).save(path)
        loaded = RunCheckpoint.load(path)  # the digest checks out
        sim = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3
        )
        with pytest.raises(CheckpointFormatError, match="global model"):
            sim.resume(loaded)
        sim.close()

    def test_client_blob_with_a_duplicated_order_is_rejected_at_restore(
        self, tmp_path, saved_checkpoint
    ):
        """A client blob whose stream order repeats a sample — written with
        a valid manifest digest — fails the resume instead of training on
        the repeated sample."""
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        ckpt = RunCheckpoint.load(saved_checkpoint[0])
        cid = next(iter(ckpt.clients))
        state = decode(ckpt.clients[cid])
        order = state["stream"]["order"]
        state["stream"]["order"] = np.concatenate((order[:1], order[:-1]))
        path = str(tmp_path / "damaged.ckpt")
        dataclasses.replace(ckpt, clients={**ckpt.clients, cid: encode(state)}).save(path)
        sim = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3
        )
        with pytest.raises(ValueError, match="permutation"):
            sim.resume(RunCheckpoint.load(path))
        sim.close()

    def test_client_blob_with_a_duplicated_order_is_rejected_at_restore_when_lazy(
        self, tmp_path, saved_checkpoint
    ):
        """The same damaged blob under ``lazy:cache=2``: the resume, not the
        round that first selects the client, refuses it — with a typed error
        — and builds no client doing so."""
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment

        ckpt = RunCheckpoint.load(saved_checkpoint[0])
        cid = next(iter(ckpt.clients))
        state = decode(ckpt.clients[cid])
        order = state["stream"]["order"]
        state["stream"]["order"] = np.concatenate((order[:1], order[:-1]))
        path = str(tmp_path / "damaged.ckpt")
        dataclasses.replace(ckpt, clients={**ckpt.clients, cid: encode(state)}).save(path)
        sim = make_environment(
            CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3,
            population="lazy:cache=2",
        )
        with sim, pytest.raises(CheckpointFormatError, match="permutation"):
            sim.resume(RunCheckpoint.load(path))
        assert sim.population.cache.creations == 0
        assert sim.population.cache.parked_clients == 0

    @needs_fork
    def test_worker_death_keeps_checkpoints_resumable(self, tmp_path):
        from repro.algorithms import build_strategy
        from repro.experiments.configs import make_environment
        from repro.runtime import ParallelExecutor

        def build(executor):
            return make_environment(
                CFG, build_strategy("fedavg", CFG.optimizer_spec()), seed=3,
                executor=executor,
            )

        executor = ParallelExecutor(workers=2)
        with build(executor) as sim:
            sim.run_round()
            executor._procs[0].terminate()
            executor._procs[0].join()
            with pytest.warns(RuntimeWarning, match="worker died"):
                sim.run_round()
            # The parent holds every client's state, so the dead pool took
            # nothing with it: the checkpoint resumes into an uncrashed run.
            path = str(tmp_path / "after-kill.ckpt")
            RunCheckpoint.from_simulator(sim).save(path)
            sim.run_round()
        with build("parallel:2") as resumed:
            resumed.resume(path)
            resumed.run_round()
        ref = _run("fedavg", rounds=3, executor="serial")
        assert history_to_json(sim.history) == history_to_json(ref.history)
        assert history_to_json(resumed.history) == history_to_json(ref.history)


class TestResultCache:
    SCHEMES = ["fedavg", "fedca"]
    SEEDS = (0, 5)

    def _grid(self, cache, rounds=3):
        return run_multiseed(
            CFG, self.SCHEMES, seeds=self.SEEDS, rounds=rounds, cache=cache
        )

    def test_warm_cache_recomputes_zero_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = self._grid(cache)
        cells = len(self.SCHEMES) * len(self.SEEDS)
        assert cache.hits == 0 and cache.misses == cells

        warm_cache = ResultCache(cache.directory)
        warm = self._grid(warm_cache)
        assert warm_cache.hits == cells and warm_cache.misses == 0
        for name in cold:
            assert np.allclose(
                cold[name].times_to_target,
                warm[name].times_to_target,
                equal_nan=True,
            )
            assert cold[name].mean_round_times == warm[name].mean_round_times

    def test_single_evicted_cell_recomputes_exactly_once(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        self._grid(cache)
        # The runner resolves the FedCA default config before keying, so
        # the externally computed key must use the same effective value.
        key = cache.key(
            CFG,
            "fedca",
            rounds=3,
            stop_at_target=True,
            seed=self.SEEDS[-1],
            dynamic=True,
            fedca_config=FedCAConfig(profile_every=CFG.fedca_profile_every),
        )
        os.remove(cache.path_for(key))
        rerun = ResultCache(cache.directory)
        self._grid(rerun)
        assert rerun.misses == 1
        assert rerun.hits == len(self.SCHEMES) * len(self.SEEDS) - 1

    def test_hit_miss_counters_surface_in_metrics(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        rec = TraceRecorder()
        _run("fedavg", rounds=2, recorder=rec, cache=cache)
        assert rec.counters["repro_result_cache_misses_total"] == 1
        assert "repro_result_cache_hits_total" not in rec.counters
        _run("fedavg", rounds=2, recorder=rec, cache=cache)
        assert rec.counters["repro_result_cache_hits_total"] == 1
        rec.close()

    def test_cached_result_round_trips_fields(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        first = _run("fedavg", rounds=2, cache=cache)
        second = _run("fedavg", rounds=2, cache=cache)
        assert cache.hits == 1
        assert history_to_json(second.history) == history_to_json(first.history)
        assert second.scheme == first.scheme
        assert second.target_accuracy == first.target_accuracy

    def test_cohort_engine_keys_its_own_cells(self, tmp_path):
        # serial and parallel:N are bitwise-equal by construction (a worker's
        # stacked programs never pad) and share a cell; the cohort engine
        # pads a client whose shard is smaller than a batch, which BLAS may
        # round differently, so it is neither served their history nor
        # serves them its own.
        cache = ResultCache(str(tmp_path / "cache"))
        serial = history_to_json(_run("fedca", rounds=3, cache=cache).history)
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
        cohort = _run("fedca", rounds=3, cache=cache, executor="cohort:4")
        assert (cache.hits, cache.misses, len(cache)) == (0, 2, 2)
        # Every shard here holds a batch: nobody is padded, same bytes.
        assert history_to_json(cohort.history) == serial
        hit = _run("fedca", rounds=3, cache=cache, executor="parallel:2")
        assert (cache.hits, cache.misses, len(cache)) == (1, 2, 2)
        own = _run("fedca", rounds=3, executor="parallel:2")
        assert history_to_json(hit.history) == serial
        assert history_to_json(own.history) == serial
        # The default cohort size is filled in: "cohort" is "cohort:32".
        _run("fedca", rounds=3, cache=cache, executor="cohort")
        _run("fedca", rounds=3, cache=cache, executor="cohort:32")
        assert (cache.hits, cache.misses, len(cache)) == (2, 3, 3)

    def test_hit_is_byte_identical_to_its_miss(self, tmp_path):
        # Twelve clients: sorted as strings, ids 10 and 11 would jump ahead
        # of 2, and every client-event dict would be reordered.
        cfg = dataclasses.replace(CFG, num_clients=12)
        cache = ResultCache(str(tmp_path / "cache"))
        runs = [
            run_scheme(cfg, "fedca", rounds=3, stop_at_target=False, seed=3,
                       cache=cache)
            for _ in range(2)
        ]
        assert (cache.hits, cache.misses) == (1, 1)
        miss, hit = (history_to_json(r.history) for r in runs)
        assert hit == miss

    def test_key_sensitivity(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        base = dict(
            rounds=3, stop_at_target=True, seed=0, dynamic=True, fedca_config=None
        )
        k = cache.key(CFG, "fedavg", **base)
        assert cache.key(CFG, "fedavg", **base) == k  # deterministic
        assert cache.key(CFG, "fedca", **base) != k
        assert cache.key(CFG, "fedavg", **{**base, "seed": 1}) != k
        assert cache.key(CFG, "fedavg", **{**base, "rounds": 4}) != k
        other_cfg = dataclasses.replace(CFG, lr=CFG.lr * 2)
        assert cache.key(other_cfg, "fedavg", **base) != k

    def test_unreadable_cell_counts_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _run("fedavg", rounds=2, cache=cache)
        key = cache.key(
            CFG, "fedavg", rounds=2, stop_at_target=False, seed=3,
            dynamic=True, fedca_config=None,
        )
        with open(cache.path_for(key), "w") as fh:
            fh.write('{"torn')
        fresh = ResultCache(cache.directory)
        result = _run("fedavg", rounds=2, cache=fresh)
        assert fresh.misses == 1 and fresh.hits == 0
        assert result.history.num_rounds == 2


class TestMultiseedFormatting:
    def test_empty_summaries_title(self):
        # Regression: used to render "Multi-seed comparison over seeds {}".
        table = format_multiseed({})
        assert "{}" not in table
        assert "no results" in table


class TestCLIPersistence:
    def test_resume_without_checkpoint_dir_errors(self):
        from repro.cli import main

        assert main(
            ["run", "--workload", "cnn", "--scheme", "fedavg", "--resume",
             "--log-level", "error"]
        ) == 2

    def test_resume_missing_checkpoints_fails_fast(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            ["run", "--workload", "cnn", "--scheme", "fedavg", "--resume",
             "--checkpoint-dir", str(tmp_path / "nope"), "--log-level", "error"]
        )
        assert rc == 2
        out = capsys.readouterr()
        assert "cannot resume" in out.out + out.err

    def test_resume_past_the_end_of_the_trace_exits_2(self, tmp_path, capsys):
        # A trace shorter than the checkpoint's offset is refused before a
        # byte is written, instead of being padded with NULs up to it.
        from repro.cli import main

        trace = tmp_path / "t.jsonl"
        common = [
            "run", "--workload", "cnn", "--scheme", "fedavg",
            "--no-target-stop", "--log-level", "error",
            "--checkpoint-dir", str(tmp_path / "ck"), "--trace-file", str(trace),
        ]
        assert main([*common, "--rounds", "2", "--checkpoint-every", "1"]) == 0
        trace.write_bytes(b"")
        assert main([*common, "--rounds", "3", "--resume"]) == 2
        assert trace.read_bytes() == b""
        out = capsys.readouterr()
        assert f"cannot resume the trace {trace}: it holds 0 bytes" in out.out + out.err

    @pytest.mark.parametrize("damage", ["bit-flip", "old-version", "other-seed"])
    def test_resume_from_an_unusable_checkpoint_exits_2(self, tmp_path, capsys, damage):
        # A damaged, other-version or other-configuration checkpoint is a
        # clean refusal naming the problem, not a traceback.
        from repro.cli import main

        ckdir = tmp_path / "ck"
        common = [
            "run", "--workload", "cnn", "--scheme", "fedavg", "--rounds", "3",
            "--no-target-stop", "--log-level", "error", "--checkpoint-dir", str(ckdir),
        ]
        assert main([*common, "--checkpoint-every", "2"]) == 0
        payload = ckdir / "round-000002.ckpt"
        manifest = ckdir / "round-000002.ckpt.manifest.json"
        if damage == "bit-flip":
            data = bytearray(payload.read_bytes())
            data[len(data) // 2] ^= 0x01
            payload.write_bytes(bytes(data))
            expected = "integrity"
        elif damage == "old-version":
            meta = json.loads(manifest.read_text())
            manifest.write_text(json.dumps({**meta, "version": 3}))
            expected = "version 3; this build reads version 4"
        else:
            common += ["--seed", "4"]
            expected = "mismatched: seed"
        assert main([*common, "--resume"]) == 2
        out = capsys.readouterr()
        assert "cannot resume" in out.out + out.err
        assert expected in out.out + out.err
