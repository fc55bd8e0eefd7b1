"""Subprocess shard executors: equivalence with inline, crash drills.

Durable tests are parametrized over every storage backend
(``make_cluster`` in ``conftest.py``): the SIGKILL drill, startup-crash
fail-fast, and resize preservation must hold identically whether the
child persists to journal files or a SQLite store.

Written against plain ``asyncio.run`` so the suite does not depend on a
pytest-asyncio plugin being installed.  Worker children are real spawned
processes — tests that start a proc-mode store pay ~a second per start,
so each test packs several assertions around one cluster lifetime.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import (
    EXECUTORS,
    ClusterConfig,
    ClusterStore,
    WorkerUnavailableError,
    open_cluster,
)
from repro.errors import ReproError
from repro.service import ReconciliationServer, ServerBusy, sync_with_server


def _cluster(shards: int, data_dir=None, **overrides) -> ClusterStore:
    """A config-built cluster for executor tests that have no storage
    dimension (in-memory); durable tests use the ``make_cluster``
    fixture."""
    return open_cluster(data_dir, ClusterConfig(shards=shards, **overrides))


def _state(store: ClusterStore) -> dict:
    return {
        name: (frozenset(store.get(name)), store.version(name))
        for name in store.names()
    }


def _mutation_script(seed: int, names: int = 10, steps: int = 60):
    """A deterministic random mutation sequence (create / apply mixes)."""
    rng = random.Random(seed)
    script = []
    for i in range(names):
        script.append(("create", f"set-{i}", rng.sample(range(1, 5000), 20)))
    for _ in range(steps):
        name = f"set-{rng.randrange(names)}"
        add = rng.sample(range(1, 5000), rng.randrange(0, 6))
        remove = rng.sample(range(1, 5000), rng.randrange(0, 3))
        script.append(("apply", name, add, remove))
    return script


async def _run_script(store: ClusterStore, script) -> dict:
    async with store:
        for step in script:
            if step[0] == "create":
                await store.create(step[1], step[2])
            else:
                await store.apply_diff(step[1], add=step[2], remove=step[3])
        await store.flush()
        return _state(store)


class TestInlineProcEquivalence:
    def test_same_mutations_same_store(self, tmp_path, make_cluster):
        """The executor is an implementation detail: the identical
        mutation sequence must leave bit-for-bit identical contents and
        versions, live and after recovery — on every storage backend."""
        script = _mutation_script(seed=0xE9)
        inline_dir, proc_dir = tmp_path / "inline", tmp_path / "proc"

        inline_state = asyncio.run(
            _run_script(make_cluster(3, inline_dir), script)
        )
        proc_state = asyncio.run(
            _run_script(
                make_cluster(3, proc_dir, executor="subprocess"), script
            )
        )
        assert inline_state == proc_state
        assert len(inline_state) == 10

        # recovery equivalence: both data dirs recover (inline) to the
        # identical state — the proc shards persisted the same mutations
        async def recover(directory):
            async with make_cluster(3, directory) as store:
                return _state(store)

        assert asyncio.run(recover(inline_dir)) == inline_state
        assert asyncio.run(recover(proc_dir)) == inline_state

    def test_in_memory_proc_roundtrip_and_resize(self):
        """Proc executor without a data dir: mutations, reads, and the
        in-memory resize path (versioned RESTORE through the children)."""

        async def inner():
            async with _cluster(3, executor="subprocess") as store:
                for i in range(8):
                    await store.create(f"m{i}", range(i, i + 4))
                    await store.apply_diff(f"m{i}", add=[999])
                before = _state(store)
                summary = await store.resize(2)
                assert summary["changed"] and store.n_shards == 2
                assert _state(store) == before
                # post-resize children are authoritative again: apply
                # lands and reads see it (mirror updated on the ack)
                changed = await store.apply_diff("m0", add=[12345])
                assert changed == 1 and 12345 in store.get("m0")
                assert store.version("m0") == before["m0"][1] + 1

        asyncio.run(inner())

    def test_durable_proc_resize_preserves_state(self, tmp_path, make_cluster):
        async def inner():
            store = make_cluster(2, tmp_path, executor="subprocess")
            async with store:
                for i in range(6):
                    await store.create(f"s{i}", range(10 * i, 10 * i + 5))
                before = _state(store)
                summary = await store.resize(4)
                assert summary["changed"] and summary["moved"] >= 1
                assert _state(store) == before
            # and the committed epoch recovers under the new topology
            async with make_cluster(4, tmp_path) as check:
                assert _state(check) == before

        asyncio.run(inner())


class TestWorkerDecodeWindow:
    """A worker's coalescer learns from the server whether the session
    is the only open one (``lone``) and then skips its window."""

    def test_lone_session_skips_the_worker_window(self):
        a, b = set(range(1, 2000)), set(range(40, 2040))

        async def inner():
            async with _cluster(
                1, executor="subprocess", worker_window_s=30.0
            ) as store:
                await store.create("inv", b)
                async with ReconciliationServer(store) as server:
                    result = await asyncio.wait_for(
                        sync_with_server(
                            "127.0.0.1", server.port, a, set_name="inv",
                            seed=3,
                        ),
                        timeout=10.0,
                    )
                return result, store.cluster_stats()["per_shard"][0]

        result, shard = asyncio.run(inner())
        assert result.success and result.difference == a ^ b
        assert shard["coalescer"]["batches"] >= 1
        assert shard["coalescer"]["coalesced_batches"] == 0

    def test_two_concurrent_sessions_share_a_worker_batch(self):
        """Neither of two open connections is lone: identical pairs (same
        codec shape) synced at once meet in one worker window."""
        a, b = set(range(1, 2000)), set(range(40, 2040))

        async def inner():
            async with _cluster(
                1, executor="subprocess", worker_window_s=0.5
            ) as store:
                await store.create("s0", b)
                await store.create("s1", b)
                async with ReconciliationServer(store) as server:
                    results = await asyncio.gather(*[
                        sync_with_server(
                            "127.0.0.1", server.port, a, set_name=name,
                            seed=1,
                        )
                        for name in ("s0", "s1")
                    ])
                return results, store.cluster_stats()["per_shard"][0]

        results, shard = asyncio.run(inner())
        for result in results:
            assert result.success and result.difference == a ^ b
        assert shard["coalescer"]["coalesced_batches"] >= 1


    def test_lone_is_per_shard(self):
        """Two open sessions on different shards are each their shard's
        only one, so neither waits out its worker's window (30 s here:
        a wait would time the syncs out)."""
        a, b = set(range(1, 2000)), set(range(40, 2040))

        async def inner():
            async with _cluster(
                2, executor="subprocess", worker_window_s=30.0
            ) as store:
                names = {}
                for i in range(64):
                    names.setdefault(store.shard_for(f"s{i}"), f"s{i}")
                assert len(names) == 2
                for name in names.values():
                    await store.create(name, b)
                async with ReconciliationServer(store) as server:
                    results = await asyncio.wait_for(
                        asyncio.gather(*[
                            sync_with_server(
                                "127.0.0.1", server.port, a, set_name=name,
                                seed=1,
                            )
                            for name in names.values()
                        ]),
                        timeout=10.0,
                    )
                return results, store.cluster_stats()["per_shard"]

        results, shards = asyncio.run(inner())
        for result in results:
            assert result.success and result.difference == a ^ b
        for shard in shards:
            assert shard["coalescer"]["batches"] >= 1
            assert shard["coalescer"]["coalesced_batches"] == 0


class TestRemoteDecode:
    def test_decode_remote_matches_in_process_decode(self):
        """An array of deltas decoded on a shard worker comes back as
        the same packed result an in-process decode gives."""
        from repro.bch.codec import BCHCodec
        from repro.gf import field_for

        codec = BCHCodec(field_for(7), 5)
        rng = np.random.default_rng(7)
        groups = [
            rng.choice(np.arange(1, 128), size=k, replace=False)
            for k in (0, 2, 5, 9, 1, 3, 12)
        ]
        deltas = np.array([codec.sketch(v) for v in groups], dtype=np.int64)

        async def inner():
            async with _cluster(
                1, executor="subprocess", worker_window_s=0.0
            ) as store:
                return [
                    await store.decode_remote(0, codec, rows)
                    for rows in (deltas, deltas[:2], deltas[:0])
                ]

        for (got, share), rows in zip(
            asyncio.run(inner()), (deltas, deltas[:2], deltas[:0])
        ):
            want = codec.decode_many(rows)
            assert share >= 0.0
            for field_got, field_want in zip(got, want):
                assert np.array_equal(field_got, field_want)
        assert want.tolist() == []
        assert codec.decode_many(deltas).failed.tolist() == [
            False, False, False, True, False, False, True,
        ]


class TestResizeRollback:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_failed_restore_rolls_back_to_old_layout(
        self, monkeypatch, executor
    ):
        """A failure while repopulating the new layout's workers must
        tear the new workers down and reopen (and re-populate) the old
        layout — not leave the store half-swapped with every mutation
        failing (the rollback used to call start() while _started was
        still True, a silent no-op).  Both executors restore through
        the one mutation path."""

        async def inner():
            store = _cluster(3, executor=executor)
            async with store:
                for i in range(6):
                    await store.create(f"r{i}", range(i, i + 5))
                before = _state(store)

                real_submit = ClusterStore._submit
                calls = {"n": 0}

                async def flaky_submit(self, shard, op, args, trace=None):
                    if op == "restore":
                        calls["n"] += 1
                        if calls["n"] == 1:
                            raise WorkerUnavailableError(
                                "injected mid-restore"
                            )
                    return await real_submit(self, shard, op, args, trace)

                monkeypatch.setattr(ClusterStore, "_submit", flaky_submit)
                with pytest.raises(WorkerUnavailableError):
                    await store.resize(2)
                monkeypatch.setattr(ClusterStore, "_submit", real_submit)
                # the rollback re-populated the old layout through the
                # same path
                assert calls["n"] == 1 + len(before)

                # old topology, old contents, and a working write path
                assert store.n_shards == 3
                assert _state(store) == before
                assert all(
                    store.shard_available(i) for i in range(store.n_shards)
                )
                changed = await store.apply_diff("r0", add=[31337])
                assert changed == 1 and 31337 in store.get("r0")

        asyncio.run(inner())


class TestWorkerCrashDrill:
    def test_startup_crash_fails_fast_with_exit_code(
        self, tmp_path, make_cluster, corrupt_shard
    ):
        """A worker that dies during startup (corrupt shard base state)
        must fail start() promptly with the child's exit code — not
        burn the whole 60 s spawn timeout."""
        # a durable store lays the directories down, then we corrupt
        # every shard's base state so its recovery raises in the child
        async def seed():
            async with make_cluster(
                2, tmp_path, executor="subprocess"
            ) as store:
                for i in range(4):
                    await store.create(f"s{i}", [i])

        asyncio.run(seed())
        shard_dirs = sorted(tmp_path.glob("shard-*"))
        assert shard_dirs
        for shard_dir in shard_dirs:
            corrupt_shard(shard_dir)

        async def reopen():
            store = make_cluster(2, tmp_path, executor="subprocess")
            try:
                await store.start()
            finally:
                await store.close()

        start = time.monotonic()
        with pytest.raises(ReproError, match="exited with code"):
            asyncio.run(reopen())
        # fast failure: the child's death is noticed, not timed out
        assert time.monotonic() - start < 30.0

    def test_sigkill_retry_shed_restart_replay(
        self, tmp_path, make_cluster, fault_plan
    ):
        """SIGKILL one worker mid-load: in-flight work fails fast, new
        sessions are shed with RETRY while the shard is down, and the
        restarted worker recovers to the exact acked state (surfaced in
        cluster_stats as a worker restart) — on every backend."""
        plan = fault_plan(0)

        async def inner():
            a = set(range(1, 400))
            b = set(range(30, 430))
            store = make_cluster(
                2, tmp_path, executor="subprocess", restart_backoff_s=0.75
            )
            await store.start()
            try:
                await store.create("inv", b)
                async with ReconciliationServer(store) as server:
                    result = await sync_with_server(
                        "127.0.0.1", server.port, a, set_name="inv"
                    )
                    assert result.success
                    assert result.difference == a ^ b
                    union = a | b
                    assert store.get("inv") == union

                    shard_id = store.shard_for("inv")
                    stats = store.cluster_stats()["per_shard"][shard_id]
                    # SIGKILL-at-step: armed for the first pass of the
                    # post-sync point, no cleanup, no warning
                    plan.arm("after-first-sync",
                             plan.sigkill(stats["worker"]["pid"]))
                    assert plan.reached("after-first-sync")
                    # EOF propagation is near-immediate on loopback
                    for _ in range(100):
                        if not store.shard_available(shard_id):
                            break
                        await asyncio.sleep(0.05)
                    assert not store.shard_available(shard_id)

                    # mutations against the dead shard fail fast ...
                    with pytest.raises(WorkerUnavailableError):
                        await store.apply_diff("inv", add=[70001])
                    # ... and new sessions are shed with RETRY
                    with pytest.raises(ServerBusy) as shed:
                        await sync_with_server(
                            "127.0.0.1", server.port, a,
                            set_name="inv", retries=0,
                        )
                    assert shed.value.retry_after_s > 0
                    assert server.metrics.sessions_shed >= 1

                    # the supervisor heals the shard: recovered state is
                    # exactly what was acked before the kill
                    for _ in range(200):
                        if store.shard_available(shard_id):
                            break
                        await asyncio.sleep(0.1)
                    assert store.shard_available(shard_id)
                    cluster = store.cluster_stats()
                    assert cluster["worker_restarts"] == 1
                    per = cluster["per_shard"][shard_id]
                    assert per["worker"]["restarts"] == 1
                    assert per["worker"]["alive"]
                    assert store.get("inv") == union

                    retry = await sync_with_server(
                        "127.0.0.1", server.port, a, set_name="inv",
                        retries=3,
                    )
                    assert retry.success
                    assert retry.difference == union - a
            finally:
                await store.close()

        asyncio.run(inner())

    def test_close_reaps_worker_processes(self, tmp_path, make_cluster):
        """close() drains, closes the shard storage in the children, and
        reaps every worker process — no orphans, no stray tmp files."""

        async def inner():
            store = make_cluster(2, tmp_path, executor="subprocess")
            await store.start()
            await store.create("x", [1, 2, 3])
            handles = [shard.worker for shard in store._shards]
            pids = [handle.pid for handle in handles]
            await store.close()
            return handles, pids

        handles, pids = asyncio.run(inner())
        assert len(pids) == 2
        for handle in handles:
            assert not handle.alive
        for pid in pids:
            # a reaped child is gone: signal 0 must fail
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert list(tmp_path.rglob("*.tmp")) == []

        # storage was closed post-drain: the data recovers completely
        async def recover():
            async with make_cluster(2, tmp_path) as check:
                return check.get("x")

        assert asyncio.run(recover()) == {1, 2, 3}


class TestServeProcessSignals:
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_serve_shutdown_reaps_workers(self, tmp_path, sig):
        """``repro serve --workers proc`` on SIGINT/SIGTERM: exits 0,
        reaps its worker subprocesses, closes journals (no tmp files),
        and the final metrics snapshot reaches stderr.  Journal-only
        here; the CI cluster-smoke matrix drives ``--storage sqlite``
        through the same serve path."""
        bob = tmp_path / "bob.txt"
        bob.write_text("".join(f"{v}\n" for v in range(1, 120)))
        data_dir = tmp_path / "data"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--shards", "2", "--workers", "proc",
                "--data-dir", str(data_dir), "--set", f"inv={bob}",
            ],
            stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            deadline = time.monotonic() + 120
            # the banner line appears once workers are up and serving
            line = ""
            while time.monotonic() < deadline:
                line = proc.stderr.readline()
                if line.startswith("# serving on"):
                    break
            assert line.startswith("# serving on"), line
            assert "workers=proc" in line
            proc.send_signal(sig)
            stderr = proc.stderr.read()
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        assert rc == 0, stderr
        # the shutdown metrics dump carries the worker pids: all reaped
        snapshot = json.loads(stderr[stderr.index("{"):])
        workers = [
            entry["worker"] for entry in snapshot["cluster"]["per_shard"]
        ]
        assert len(workers) == 2
        for worker in workers:
            assert worker["pid"] is not None
            with pytest.raises(ProcessLookupError):
                os.kill(worker["pid"], 0)
        assert list(data_dir.rglob("*.tmp")) == []

        # journals survived the signal: a fresh inline recovery sees bob
        async def recover():
            async with _cluster(2, data_dir) as check:
                return check.get("inv")

        assert asyncio.run(recover()) == set(range(1, 120))
