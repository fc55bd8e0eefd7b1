"""Manifest + durable rebalance: no set is ever lost on a resize.

The PR-3 bug these tests pin down: restarting a durable data dir with
a different ``--shards`` silently remapped ~1/(N+1) of the names to
shards whose storage never heard of them, so those sets recovered
empty.  Now the manifest makes startup refuse the mismatch, and
``rebalance`` migrates the shard files with one atomic commit point.

The resize acceptance drill and the crash-point drills are parametrized
over every storage backend (``storage_backend`` in ``conftest.py``);
tests that perform journal file surgery stay journal-only (SQLite's
twins live in test_storage_backends.py).

Written against plain ``asyncio.run`` so the suite does not depend on a
pytest-asyncio plugin being installed.
"""

from __future__ import annotations

import asyncio
import json
import random

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterStore,
    HashRing,
    ManifestError,
    RebalanceAborted,
    TopologyMismatchError,
    load_manifest,
    open_cluster,
    rebalance,
)
from repro.cluster.manifest import (
    ClusterManifest,
    load_or_init,
    manifest_path,
    shard_dirname,
    write_manifest,
)


def _cluster(shards, data_dir=None, **overrides):
    return open_cluster(data_dir, ClusterConfig(shards=shards, **overrides))


def _populate(data_dir, shards, sets, storage="journal"):
    """Create a durable cluster dir holding ``sets`` (name -> values)."""

    async def inner():
        async with _cluster(shards, data_dir, storage=storage) as store:
            for name, values in sets.items():
                await store.create(name, values)
                # a couple of diffs so the shards hold real apply records
                # and versions exceed 0
                await store.apply_diff(name, add=[max(values) + 7])
                await store.apply_diff(name, remove=[min(values)])
            return (
                {n: store.get(n) for n in store.names()},
                {n: store.version(n) for n in store.names()},
            )

    return asyncio.run(inner())


def _recovered(data_dir, shards, storage="journal"):
    async def inner():
        async with _cluster(shards, data_dir, storage=storage) as store:
            return (
                {n: store.get(n) for n in store.names()},
                {n: store.version(n) for n in store.names()},
            )

    return asyncio.run(inner())


def _random_sets(seed, n_sets=14):
    rng = random.Random(seed)
    return {
        f"tenant-{i}/s{rng.randrange(1000)}": set(
            rng.sample(range(1, 1 << 20), rng.randint(1, 40))
        )
        for i in range(n_sets)
    }


class TestManifest:
    def test_fresh_dir_gets_a_manifest(self, tmp_path):
        _populate(tmp_path, 2, {"a": {1, 2}})
        manifest = load_manifest(tmp_path)
        assert manifest is not None
        assert (manifest.shards, manifest.epoch) == (2, 0)
        assert manifest.shard_epochs == [0, 0]

    def test_mismatch_refuses_with_actionable_error(self, tmp_path):
        _populate(tmp_path, 2, {"a": {1, 2}})

        async def inner():
            with pytest.raises(TopologyMismatchError) as excinfo:
                await _cluster(5, tmp_path).start()
            message = str(excinfo.value)
            assert "2 shards" in message and "5 shards" in message
            assert "repro rebalance" in message

        asyncio.run(inner())

    @pytest.mark.parametrize("requested", [3, 2])
    @pytest.mark.parametrize("entry", ["start", "rebalance"])
    def test_shard_dirs_without_manifest_refuse(
        self, tmp_path, entry, requested
    ):
        """Shard directories but no manifest: start and rebalance each
        refuse, whether or not the shard count matches, through the API
        and the CLI, and write nothing — never a fresh manifest over
        existing shard files."""
        from repro.cli import main

        _populate(tmp_path, 3, {"a": {1}, "b": {2}})
        manifest_path(tmp_path).unlink()

        def files():
            return {
                path.relative_to(tmp_path): path.read_bytes()
                for path in sorted(tmp_path.rglob("*")) if path.is_file()
            }

        before = files()
        if entry == "start":
            async def start():
                with pytest.raises(ManifestError, match="no manifest.json"):
                    await _cluster(requested, tmp_path).start()

            asyncio.run(start())
            command = "serve"
        else:
            with pytest.raises(ManifestError, match="no manifest.json"):
                rebalance(tmp_path, requested)
            command = "rebalance"
        assert not manifest_path(tmp_path).exists()
        assert files() == before
        assert main([
            command, "--data-dir", str(tmp_path), "--shards", str(requested),
        ]) == 2
        assert not manifest_path(tmp_path).exists()
        assert files() == before

    def test_corrupt_manifest_is_a_clear_error(self, tmp_path):
        _populate(tmp_path, 2, {"a": {1}})
        manifest_path(tmp_path).write_text("{not json")

        async def inner():
            with pytest.raises(ManifestError):
                await _cluster(2, tmp_path).start()

        asyncio.run(inner())

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        manifest = ClusterManifest(shards=4, vnodes=16, epoch=3)
        write_manifest(tmp_path, manifest)
        assert load_manifest(tmp_path).to_dict() == manifest.to_dict()
        assert not (tmp_path / "manifest.json.tmp").exists()

    def test_shard_epochs_must_match_shards(self):
        with pytest.raises(ManifestError):
            ClusterManifest(shards=3, vnodes=8, epoch=1, shard_epochs=[1])

    def test_empty_dir_initializes(self, tmp_path):
        manifest = load_or_init(tmp_path / "new", 4, 32)
        assert manifest.shards == 4
        assert load_manifest(tmp_path / "new").vnodes == 32


class TestRebalanceProperty:
    @pytest.mark.parametrize("old_n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("new_n", [1, 2, 3, 4, 5])
    def test_every_resize_recovers_every_set_bit_for_bit(
        self, tmp_path, old_n, new_n, storage_backend
    ):
        """The acceptance drill: random populations, all N -> M resizes,
        on every storage backend, nothing lost, contents and versions
        identical after restart."""
        sets = _random_sets(seed=1000 * old_n + new_n)
        expected, versions = _populate(
            tmp_path, old_n, sets, storage=storage_backend
        )
        result = rebalance(tmp_path, new_n)
        assert result.changed == (old_n != new_n)
        assert result.new_storage == storage_backend   # backend kept
        recovered, recovered_versions = _recovered(
            tmp_path, new_n, storage=storage_backend
        )
        assert recovered == expected
        assert recovered_versions == versions

    def test_chained_resizes_preserve_everything(
        self, tmp_path, storage_backend
    ):
        sets = _random_sets(seed=77)
        expected, versions = _populate(
            tmp_path, 2, sets, storage=storage_backend
        )
        for step, target in enumerate([4, 3, 5, 1, 2]):
            rebalance(tmp_path, target)
            recovered, recovered_versions = _recovered(
                tmp_path, target, storage=storage_backend
            )
            assert recovered == expected, f"step {step} -> {target}"
            assert recovered_versions == versions
        assert load_manifest(tmp_path).epoch == 5

    def test_unmoved_shards_keep_their_files_untouched(self, tmp_path):
        # craft a resize in which some shard neither gains nor loses a
        # set: that shard's files must stay byte-identical at epoch 0
        sets = _random_sets(seed=9, n_sets=30)
        _populate(tmp_path, 4, sets)
        result = rebalance(tmp_path, 5)
        manifest = load_manifest(tmp_path)
        untouched = [
            shard for shard in range(4)
            if shard not in result.rewritten_shards
        ]
        assert untouched, "pick a seed where some shard is unaffected"
        for shard in untouched:
            assert manifest.shard_epoch(shard) == 0
            assert (tmp_path / shard_dirname(shard) / "journal.log").exists()

    def test_misplaced_set_is_counted_and_rehomed(self, tmp_path):
        """A set planted on a shard the ring never routed it to (file
        surgery) is reported via ``healed`` and moved to its true target
        when the target differs from where it sits."""
        from repro.cluster import encode_create

        _populate(tmp_path, 2, _random_sets(seed=21, n_sets=6))
        old_ring = HashRing(range(2))
        new_ring = HashRing(range(3))
        # pick a stray name whose wrong shard is not its 3-shard target,
        # so the rebalance must physically move it
        for i in range(100):
            stray = f"stray-{i}"
            wrong = 1 - old_ring.lookup(stray)
            if new_ring.lookup(stray) != wrong:
                break
        with open(tmp_path / shard_dirname(wrong) / "journal.log", "ab") as fh:
            fh.write(encode_create(stray, {7, 8}, version=2))

        result = rebalance(tmp_path, 3)
        assert result.healed == 1
        assert result.moved[stray] == (wrong, new_ring.lookup(stray))
        values, versions = _recovered(tmp_path, 3)
        assert values[stray] == {7, 8}
        assert versions[stray] == 2

    def test_rerun_after_completion_is_a_no_op(
        self, tmp_path, storage_backend
    ):
        _populate(tmp_path, 2, _random_sets(seed=5), storage=storage_backend)
        first = rebalance(tmp_path, 4)
        second = rebalance(tmp_path, 4)
        assert first.changed and not second.changed
        assert load_manifest(tmp_path).epoch == first.new_epoch

    def test_minimal_movement(self, tmp_path):
        """The point of the ring: growing 4 -> 5 moves roughly 1/5 of
        the sets, and the physical plan equals the ring's diff."""
        sets = _random_sets(seed=3, n_sets=60)
        _populate(tmp_path, 4, sets)
        planned = HashRing(range(4)).diff(HashRing(range(5)), sets)
        result = rebalance(tmp_path, 5)
        assert result.moved == planned
        assert result.healed == 0
        assert 0 < result.moved_count < len(sets) / 2


class TestCrashMidRebalance:
    def test_crash_before_commit_leaves_old_epoch_valid(
        self, tmp_path, storage_backend
    ):
        sets = _random_sets(seed=42)
        expected, versions = _populate(
            tmp_path, 2, sets, storage=storage_backend
        )
        with pytest.raises(RebalanceAborted):
            rebalance(tmp_path, 4, crash_at="after-stage")
        # the commit never happened: the old topology recovers cleanly
        assert load_manifest(tmp_path).shards == 2
        recovered, recovered_versions = _recovered(
            tmp_path, 2, storage=storage_backend
        )
        assert recovered == expected and recovered_versions == versions
        # ... and the new one still refuses
        async def inner():
            with pytest.raises(TopologyMismatchError):
                await _cluster(4, tmp_path).start()

        asyncio.run(inner())
        # rerunning completes the migration over the stale staged files
        assert rebalance(tmp_path, 4).changed
        recovered, recovered_versions = _recovered(
            tmp_path, 4, storage=storage_backend
        )
        assert recovered == expected and recovered_versions == versions

    def test_crash_after_commit_recovers_under_new_epoch(
        self, tmp_path, storage_backend
    ):
        sets = _random_sets(seed=43)
        expected, versions = _populate(
            tmp_path, 2, sets, storage=storage_backend
        )
        with pytest.raises(RebalanceAborted):
            rebalance(tmp_path, 4, crash_at="after-commit")
        # committed: the new topology is live even though the sweep of
        # stale old-epoch files never ran
        assert load_manifest(tmp_path).shards == 4
        recovered, recovered_versions = _recovered(
            tmp_path, 4, storage=storage_backend
        )
        assert recovered == expected and recovered_versions == versions
        # a later no-op run sweeps the leftovers
        rebalance(tmp_path, 4)
        for shard in range(4):
            directory = tmp_path / shard_dirname(shard)
            manifest = load_manifest(tmp_path)
            if manifest.shard_epoch(shard) > 0:
                assert not (directory / "snapshot.bin").exists()
                assert not (directory / "journal.log").exists()
                assert not (directory / "store.sqlite").exists()

    def test_sigkilled_rebalance_subprocess_old_epoch_recovers(self, tmp_path):
        """A literal kill -9 mid-rebalance (not just an exception)."""
        import os
        import subprocess
        import sys
        import textwrap
        import time
        from pathlib import Path

        sets = _random_sets(seed=44)
        expected, versions = _populate(tmp_path, 2, sets)
        # run a rebalance that SIGSTOPs itself right before the commit
        # point, then kill -9 it — the strongest possible interruption
        script = textwrap.dedent(
            """
            import importlib, os, signal, sys
            reb = importlib.import_module("repro.cluster.rebalance")
            real = reb.write_manifest

            def stall(*args, **kwargs):
                os.kill(os.getpid(), signal.SIGSTOP)   # parent kills us here
                return real(*args, **kwargs)

            reb.write_manifest = stall
            reb.rebalance(sys.argv[1], 4)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path)], env=env
        )
        try:
            # wait for the child to stop itself at the commit point
            for _ in range(500):
                try:
                    _, status = os.waitpid(
                        proc.pid, os.WUNTRACED | os.WNOHANG
                    )
                except ChildProcessError:
                    pytest.fail("rebalance child died before the commit point")
                if status and os.WIFSTOPPED(status):
                    break
                if status and (os.WIFEXITED(status) or os.WIFSIGNALED(status)):
                    pytest.fail(f"rebalance child exited early: {status}")
                time.sleep(0.02)
            else:
                pytest.fail("rebalance child never reached the commit point")
        finally:
            proc.kill()
            proc.wait()
        assert load_manifest(tmp_path).shards == 2      # commit never landed
        recovered, recovered_versions = _recovered(tmp_path, 2)
        assert recovered == expected and recovered_versions == versions


class TestLiveResize:
    def test_in_memory_resize_moves_nothing_off_process(self):
        async def inner():
            async with _cluster(2) as store:
                names = [f"s{i}" for i in range(10)]
                for i, name in enumerate(names):
                    await store.create(name, {i, i + 100})
                before = {n: store.get(n) for n in names}
                summary = await store.resize(4)
                assert summary["changed"] and summary["new_shards"] == 4
                assert store.n_shards == 4 and len(store.ring) == 4
                assert {n: store.get(n) for n in names} == before
                # the store still serves mutations after the swap
                assert await store.apply_diff(names[0], add=[999]) == 1

        asyncio.run(inner())

    def test_durable_resize_survives_restart(self, tmp_path, storage_backend):
        async def inner():
            async with _cluster(
                2, tmp_path, storage=storage_backend
            ) as store:
                for i in range(8):
                    await store.create(f"s{i}", {i, i * 7 + 1})
                summary = await store.resize(3)
                assert summary["rebalance"]["new_epoch"] == 1
                await store.apply_diff("s0", add=[12345])   # post-resize write
            # a cold restart at the new topology sees everything,
            # including the post-resize mutation
            async with _cluster(3, tmp_path, storage=storage_backend) as again:
                assert again.get("s0") == {0, 1, 12345}
                assert len(again.names()) == 8

        asyncio.run(inner())

    def test_resize_to_same_count_is_a_no_op(self, tmp_path):
        async def inner():
            async with _cluster(2, tmp_path) as store:
                await store.create("s", {1})
                summary = await store.resize(2)
                assert not summary["changed"]
                assert store.cluster_stats()["resizes"] == 0

        asyncio.run(inner())

    def test_server_resize_reshapes_admission(self, tmp_path):
        from repro.cluster import AdmissionController
        from repro.service import ReconciliationServer

        async def inner():
            store = _cluster(2, tmp_path)
            admission = AdmissionController(shards=2, max_sessions=4)
            async with store:
                server = ReconciliationServer(store, admission=admission)
                async with server:
                    summary = await server.resize_store(4)
                assert summary["new_shards"] == 4
                assert admission.shards == 4
                assert len(admission.stats()["per_shard"]) == 4
                # the resize is on the metrics record
                snapshot = server.metrics.snapshot(
                    cluster_stats=store.cluster_stats()
                )
                assert snapshot["resizes"][0]["new_shards"] == 4
                assert snapshot["cluster"]["resizes"] == 1

        asyncio.run(inner())

    def test_admission_release_of_removed_shard_is_ignored(self):
        from repro.cluster import AdmissionController

        admission = AdmissionController(shards=4, max_sessions=2)
        assert admission.try_admit(3) is None     # admitted on shard 3
        admission.resize(2)                       # shard 3 disappears
        admission.release(3)                      # session ends: no crash
        assert admission.stats()["per_shard"][0]["active"] == 0

    def test_admission_stale_shard_id_is_shed_not_crashed(self):
        """A multi-pass connection re-admits with the shard id it
        captured at HELLO; after a shrink that id may be gone — it must
        be shed (client reconnects and re-routes), not IndexError."""
        from repro.cluster import AdmissionController

        admission = AdmissionController(shards=4, max_sessions=2)
        admission.resize(2)
        assert admission.try_admit(3) == admission.retry_after_s
        # ... and the shed is visible to operators, not silent
        assert admission.total_shed == 1
        assert admission.stats()["shed_stale_shard"] == 1

    def test_admission_shrink_then_grow_never_goes_negative(self):
        from repro.cluster import AdmissionController

        admission = AdmissionController(shards=4, max_sessions=2)
        assert admission.try_admit(3) is None
        admission.resize(2)
        admission.resize(4)           # shard 3 exists again, cold
        admission.release(3)          # stale release from the old epoch
        assert admission.stats()["per_shard"][3]["active"] == 0
        # the fresh shard's cap is intact: two admits fill it, a third
        # is shed
        assert admission.try_admit(3) is None
        assert admission.try_admit(3) is None
        assert admission.try_admit(3) is not None

    def test_admission_stale_release_cannot_raise_a_live_shards_cap(self):
        """A release from a shard id's *previous* life (removed by a
        shrink, re-created by a grow) must not decrement the new shard's
        live count — that would quietly admit one session over the cap."""
        from repro.cluster import AdmissionController

        admission = AdmissionController(shards=4, max_sessions=2)
        stale_token = admission.incarnation(3)
        assert admission.try_admit(3) is None
        admission.resize(2)
        admission.resize(4)                    # shard 3 re-born, cold
        assert admission.try_admit(3) is None  # fill the new shard's cap
        assert admission.try_admit(3) is None
        admission.release(3, stale_token)      # the old life's release
        assert admission.try_admit(3) is not None   # cap NOT raised
        admission.release(3, admission.incarnation(3))  # a live release
        assert admission.try_admit(3) is None

    def test_admission_decode_slot_survives_shrink_while_held(self):
        from repro.cluster import AdmissionController

        async def inner():
            admission = AdmissionController(shards=4, max_decode_queue=2)
            async with admission.decode_slot(3):
                admission.resize(2)   # shard 3 vanishes mid-decode
            # exiting the slot must not IndexError or corrupt counts
            assert len(admission.stats()["per_shard"]) == 2

        asyncio.run(inner())

    def test_mutations_during_resize_wait_and_reroute(self, tmp_path):
        """A mutation racing a live resize parks behind the resize gate
        and completes through the new ring instead of dying with a
        'ClusterStore is closing' error."""

        async def inner():
            async with _cluster(2, tmp_path) as store:
                names = [f"s{i}" for i in range(6)]
                for i, name in enumerate(names):
                    await store.create(name, {i})
                results = await asyncio.gather(
                    store.resize(4),
                    store.apply_diff(names[0], add=[777]),
                    store.create("born-mid-resize", {42}),
                )
                assert results[0]["new_shards"] == 4
                assert 777 in store.get(names[0])
                assert store.get("born-mid-resize") == {42}
            # ... and both racing mutations are durable under the new
            # topology
            async with _cluster(4, tmp_path) as again:
                assert 777 in again.get(names[0])
                assert again.get("born-mid-resize") == {42}

        asyncio.run(inner())

    def test_resize_refuses_while_a_close_is_draining(self, tmp_path):
        """The mirror race: a resize starting after close() began must
        not restart workers behind the closer's back — the caller was
        promised a closed store."""
        from repro.errors import ReproError

        async def inner():
            store = _cluster(2, tmp_path)
            await store.start()
            await store.create("s", {1})
            closing = asyncio.create_task(store.close())
            await asyncio.sleep(0)        # close is now draining
            with pytest.raises(ReproError):
                await store.resize(4)
            await closing
            assert store._started is False
            assert all(not sh.worker.alive for sh in store._shards)
            assert asyncio.all_tasks() == {asyncio.current_task()}

        asyncio.run(inner())

    def test_resize_metrics_are_bounded(self, tmp_path):
        """The metrics record must not carry the per-set moved-name map
        (it would be re-serialized into every heartbeat); scalar counts
        and epochs suffice."""
        from repro.service.metrics import ServiceMetrics

        async def inner():
            async with _cluster(2, tmp_path) as store:
                for i in range(8):
                    await store.create(f"s{i}", {i})
                metrics = ServiceMetrics()
                metrics.record_resize(await store.resize(4))
                [event] = metrics.snapshot()["resizes"]
                assert event["moved"] > 0
                assert "moved" not in event["rebalance"]
                assert event["rebalance"]["moved_count"] == event["moved"]

        asyncio.run(inner())

    def test_close_racing_a_resize_waits_it_out(self, tmp_path):
        """close() during an in-flight resize must not return while the
        resize is about to restart workers and reopen journals — it
        waits the resize out, then closes the swapped store."""

        async def inner():
            store = _cluster(2, tmp_path)
            await store.start()
            for i in range(6):
                await store.create(f"s{i}", {i})
            resizing = asyncio.create_task(store.resize(4))
            await asyncio.sleep(0)        # let resize set its gate
            await store.close()           # must wait, then really close
            assert (await resizing)["changed"]
            assert store._started is False
            assert all(not sh.worker.alive for sh in store._shards)
            assert asyncio.all_tasks() == {asyncio.current_task()}
            # the closed store restarts cleanly at the new topology
            await store.start()
            assert store.n_shards == 4
            assert len(store.names()) == 6
            await store.close()

        asyncio.run(inner())

    def test_failed_resize_rolls_back_to_a_working_store(self, tmp_path):
        """If the move plan blows up (disk full, corrupt shard), the
        store must reopen under the old layout instead of staying closed
        until a process restart."""
        import repro.cluster.router as router_mod

        async def inner(monkeypatch):
            async with _cluster(2, tmp_path) as store:
                await store.create("s", {1, 2})

                def exploding(*args, **kwargs):
                    raise OSError("no space left on device")

                monkeypatch.setattr(router_mod, "rebalance", exploding)
                with pytest.raises(OSError):
                    await store.resize(4)
                monkeypatch.undo()
                # still the old topology, still serving mutations
                assert store.n_shards == 2
                assert await store.apply_diff("s", add=[3]) == 1
                # and a later resize attempt succeeds
                summary = await store.resize(4)
                assert summary["changed"]
                assert store.get("s") == {1, 2, 3}

        monkeypatch = pytest.MonkeyPatch()
        try:
            asyncio.run(inner(monkeypatch))
        finally:
            monkeypatch.undo()


class TestRebalanceCLI:
    def test_rebalance_command_migrates_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        sets = _random_sets(seed=11)
        expected, versions = _populate(tmp_path, 2, sets)
        code = main([
            "rebalance", "--data-dir", str(tmp_path), "--shards", "4",
            "--json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["changed"] is True
        assert out["old_shards"] == 2 and out["new_shards"] == 4
        assert out["moved_count"] == len(out["moved"]) > 0
        recovered, recovered_versions = _recovered(tmp_path, 4)
        assert recovered == expected and recovered_versions == versions

    def test_rebalance_noop_reports_nothing_to_do(self, tmp_path, capsys):
        from repro.cli import main

        _populate(tmp_path, 2, {"a": {1, 2, 3}})
        code = main(["rebalance", "--data-dir", str(tmp_path), "--shards", "2"])
        assert code == 0
        assert "nothing to do" in capsys.readouterr().err

    def test_rebalance_bad_shards_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main([
            "rebalance", "--data-dir", str(tmp_path), "--shards", "0",
        ]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_rebalance_bad_vnodes_is_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        _populate(tmp_path, 2, {"a": {1}})
        assert main([
            "rebalance", "--data-dir", str(tmp_path), "--shards", "2",
            "--vnodes", "0",
        ]) == 2
        assert "--vnodes" in capsys.readouterr().err

    def test_rebalance_nonexistent_dir_is_an_error(self, tmp_path, capsys):
        """A typo'd --data-dir must not be mkdir'd into a fresh 'valid'
        cluster while the real data sits untouched elsewhere."""
        from repro.cli import main

        missing = tmp_path / "no-such-dir"
        assert main([
            "rebalance", "--data-dir", str(missing), "--shards", "4",
        ]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not missing.exists()

    def test_replay_shard_does_not_create_missing_directories(self, tmp_path):
        from repro.cluster import replay_shard

        missing = tmp_path / "shard-07"
        store, stats = replay_shard(missing)
        assert store.names() == []
        assert stats["recovered_sets"] == 0
        assert not missing.exists()

    def test_serve_mismatched_shards_fails_fast(self, tmp_path, capsys):
        from repro.cli import main

        _populate(tmp_path, 2, {"a": {1, 2, 3}})
        code = main([
            "serve", "--data-dir", str(tmp_path), "--shards", "3",
            "--port", "0",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot serve" in err and "rebalance" in err

    def test_serve_rebalance_flag_requires_data_dir(self, capsys):
        from repro.cli import main

        assert main(["serve", "--rebalance", "--shards", "2"]) == 2
        assert "--data-dir" in capsys.readouterr().err

    def test_serve_rebalance_requires_explicit_shards(self, tmp_path, capsys):
        """Forgetting --shards must not let the default of 1 silently
        rewrite a sharded cluster down to a single shard."""
        from repro.cli import main

        _populate(tmp_path, 4, {"a": {1, 2}})
        assert main([
            "serve", "--data-dir", str(tmp_path), "--rebalance",
        ]) == 2
        assert "explicit --shards" in capsys.readouterr().err
        assert load_manifest(tmp_path).shards == 4    # untouched

    def test_serve_rebalance_on_fresh_dir_boots(self, tmp_path):
        """An always-pass---rebalance deploy script must work on first
        boot: a data dir that does not exist yet has nothing to migrate
        and must be initialized by startup, not rejected."""
        import os
        import subprocess
        import sys
        import time
        from pathlib import Path

        data = tmp_path / "data"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--shards", "2", "--data-dir", str(data), "--rebalance",
            ],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 20
            while time.time() < deadline:
                if proc.poll() is not None:
                    pytest.fail(
                        f"serve --rebalance exited rc={proc.returncode} "
                        f"on a fresh data dir"
                    )
                if (data / "manifest.json").exists():
                    break            # booted past the rebalance guard
                time.sleep(0.05)
            else:
                pytest.fail("server never initialized the data dir")
        finally:
            proc.kill()
            proc.wait()
        assert load_manifest(data).shards == 2

    def test_rebalance_cli_normalizes_custom_vnodes(self, tmp_path):
        """A layout committed with custom vnodes (API-created) would
        make `repro serve` fail forever while the suggested remediation
        was a no-op; the CLI's default target is the layout serve runs."""
        from repro.cli import main

        async def populate():
            async with _cluster(2, tmp_path, vnodes=64) as store:
                await store.create("s", {1, 2, 3})
                return store.get("s")

        expected = asyncio.run(populate())
        assert load_manifest(tmp_path).vnodes == 64
        assert main([
            "rebalance", "--data-dir", str(tmp_path), "--shards", "2",
        ]) == 0
        assert load_manifest(tmp_path).vnodes == 128
        values, _ = _recovered(tmp_path, 2)    # default-vnodes store: serves
        assert values["s"] == expected
