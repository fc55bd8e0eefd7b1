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

    @pytest.mark.parametrize(
        "key", ["storage", "replicas", "primary_replica", "cursors"]
    )
    def test_current_format_requires_every_field(self, tmp_path, key):
        """Format 3 defaults nothing: a manifest missing a field is
        malformed and refused at start, not read with a guessed value."""
        _populate(tmp_path, 2, {"a": {1, 2}, "b": {3}})
        path = manifest_path(tmp_path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match=f"malformed manifest: '{key}'"):
            load_manifest(tmp_path)
        with pytest.raises(ManifestError, match=key):
            asyncio.run(_cluster(2, tmp_path).start())
        assert json.loads(path.read_text()) == doc

    @pytest.mark.parametrize("old_format", [1, 2])
    def test_old_manifest_format_is_refused(
        self, tmp_path, capsys, old_format
    ):
        """Only the current manifest format is read.  A format-1 (no
        ``storage``) or format-2 (no replication fields) manifest raises
        ManifestError naming its format, and ``repro serve`` and
        ``repro rebalance`` exit 2 and write nothing."""
        from repro.cli import main

        _populate(tmp_path, 2, {"a": {1, 2}, "b": {3}})
        path = manifest_path(tmp_path)
        doc = json.loads(path.read_text())
        doc["format"] = old_format
        for key in ("replicas", "primary_replica", "cursors"):
            del doc[key]
        if old_format == 1:
            del doc["storage"]
        path.write_text(json.dumps(doc))

        def files():
            return {
                p.relative_to(tmp_path): p.read_bytes()
                for p in sorted(tmp_path.rglob("*")) if p.is_file()
            }

        before = files()
        with pytest.raises(ManifestError, match=f"format {old_format}"):
            load_manifest(tmp_path)
        for command in ("serve", "rebalance"):
            assert main([
                command, "--data-dir", str(tmp_path), "--shards", "2",
            ]) == 2
            assert f"format {old_format}" in capsys.readouterr().err
        assert files() == before


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

    def test_noop_rebalance_writes_nothing(self, tmp_path, storage_backend):
        """A rebalance to the committed layout touches no file: the
        manifest keeps its inode (no rewrite), and every shard file its
        bytes and mtime."""
        _populate(tmp_path, 3, _random_sets(seed=8), storage=storage_backend)

        def files():
            return {
                p.relative_to(tmp_path): (
                    p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns,
                )
                for p in sorted(tmp_path.rglob("*")) if p.is_file()
            }

        before = files()
        result = rebalance(tmp_path, 3)
        assert not result.changed
        assert files() == before

    def test_writes_after_rebalance_persist_at_the_new_epoch(
        self, tmp_path, storage_backend
    ):
        """Resizing is close, rebalance, reopen: the reopened store
        takes writes into the rewritten shards' new-epoch files, and a
        later restart replays them."""
        sets = _random_sets(seed=13)
        expected, versions = _populate(
            tmp_path, 2, sets, storage=storage_backend
        )
        result = rebalance(tmp_path, 3)
        assert result.new_epoch == 1 and result.rewritten_shards

        async def write():
            async with _cluster(3, tmp_path, storage=storage_backend) as store:
                for name in expected:
                    assert await store.apply_diff(name, add=[1 << 21]) == 1

        asyncio.run(write())
        recovered, recovered_versions = _recovered(
            tmp_path, 3, storage=storage_backend
        )
        assert recovered == {
            name: values | {1 << 21} for name, values in expected.items()
        }
        assert recovered_versions == {
            name: version + 1 for name, version in versions.items()
        }
        manifest = load_manifest(tmp_path)
        assert manifest.epoch == 1
        assert all(
            manifest.shard_epoch(shard) == 1
            for shard in result.rewritten_shards
        )

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
