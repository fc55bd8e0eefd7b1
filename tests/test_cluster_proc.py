"""Subprocess shard executors: equivalence with inline, crash drills.

Durable tests are parametrized over every storage backend
(``make_cluster`` in ``conftest.py``): equivalence, the SIGKILL drill
and startup-crash fail-fast must hold identically whether the child
persists to journal files or a SQLite store.

Written against plain ``asyncio.run`` so the suite does not depend on a
pytest-asyncio plugin being installed.  Worker children are real
processes — a proc-mode store pays a few tenths of a second of CPU per
worker start, so each test packs several assertions around one cluster
lifetime.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import proc
from repro.cluster.config import ClusterConfig, open_cluster
from repro.cluster.proc import WorkerUnavailableError, spawn_worker
from repro.cluster.rebalance import rebalance
from repro.cluster.router import ClusterStore
from repro.cluster.storage import backend_class
from repro.errors import ReproError
from repro.service.client import sync_with_server
from repro.service.server import ReconciliationServer
from repro.service.wire import ServerBusy


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

    def test_in_memory_proc_roundtrip(self):
        """Proc executor without a data dir: mutations and reads."""

        async def inner():
            async with _cluster(3, executor="subprocess") as store:
                for i in range(8):
                    await store.create(f"m{i}", range(i, i + 4))
                    await store.apply_diff(f"m{i}", add=[999])
                before = _state(store)
                # the children are authoritative: an apply lands and
                # reads see it (mirror updated on the ack)
                changed = await store.apply_diff("m0", add=[12345])
                assert changed == 1 and 12345 in store.get("m0")
                assert store.version("m0") == before["m0"][1] + 1

        asyncio.run(inner())

    def test_durable_proc_rebalance_preserves_state(
        self, tmp_path, make_cluster
    ):
        """Worker children write the same shard files as inline shards,
        so the offline rebalance between a close and the next start
        resizes a proc-served directory: the new layout's children
        serve every set at its version and take new writes."""

        async def inner():
            async with make_cluster(
                2, tmp_path, executor="subprocess"
            ) as store:
                for i in range(6):
                    await store.create(f"s{i}", range(10 * i, 10 * i + 5))
                    await store.apply_diff(f"s{i}", add=[1000 + i])
                before = _state(store)
            result = rebalance(tmp_path, 4)
            assert result.changed and result.moved_count >= 1
            async with make_cluster(
                4, tmp_path, executor="subprocess"
            ) as store:
                assert _state(store) == before
                assert await store.apply_diff("s0", add=[4242]) == 1
            # and the children persisted that write at the new epoch
            async with make_cluster(4, tmp_path) as check:
                assert 4242 in check.get("s0")
                assert check.version("s0") == before["s0"][1] + 1

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

    @pytest.mark.parametrize("log_json", [False, True])
    def test_a_worker_that_cannot_open_its_shard_logs_one_line(
        self, tmp_path, capfd, monkeypatch, storage_backend, corrupt_shard,
        log_json,
    ):
        """The child logs one ``repro.cluster`` error naming its shard,
        role and error (JSON under ``--log-json``) and exits 1 — no
        traceback on the server's stderr, and the spawn still fails with
        the child's exit code."""
        shard_dir = tmp_path / "shard-00"
        backend_class(storage_backend).stage(shard_dir, [("s", [1, 2], 0)])
        corrupt_shard(shard_dir)
        monkeypatch.setattr(proc, "logging_config", lambda: ("info", log_json))
        capfd.readouterr()

        async def spawn():
            await spawn_worker(
                3, shard_dir, 0, None, storage=storage_backend,
                role="follower-02",
            )

        with pytest.raises(ReproError, match="exited with code 1 before"):
            asyncio.run(spawn())
        err = capfd.readouterr().err
        assert "Traceback" not in err
        [line] = err.splitlines()
        if log_json:
            event = json.loads(line)
            assert (event["level"], event["component"]) == ("ERROR", "cluster")
            assert (event["shard"], event["role"]) == (3, "follower-02")
            message = event["msg"]
        else:
            assert " ERROR   cluster: " in line
            message = line
        assert "shard 3 follower-02 worker cannot open its shard" in message
        assert "CorruptError: " in message

    def test_sigkill_retry_shed_restart_replay(
        self, tmp_path, make_cluster, fault_plan, monkeypatch
    ):
        """SIGKILL one worker mid-load: in-flight work fails fast, new
        sessions are shed with RETRY while the shard is down, and the
        restarted worker recovers to the exact acked state (surfaced in
        cluster_stats as a worker restart) — on every backend."""
        plan = fault_plan(0)
        # a backoff long enough to probe the dead shard before it heals
        monkeypatch.setattr("repro.cluster.router.RESTART_BACKOFF_S", 0.75)

        async def inner():
            a = set(range(1, 400))
            b = set(range(30, 430))
            store = make_cluster(2, tmp_path, executor="subprocess")
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

    def test_a_worker_that_dies_while_its_siblings_spawn_is_restarted(
        self, monkeypatch
    ):
        """A worker child that reports READY and dies while another
        shard's worker is still spawning heals like any later death:
        start() installs every handle, then restarts the dead one."""
        monkeypatch.setattr("repro.cluster.router.RESTART_BACKOFF_S", 0.1)
        killed = []

        async def racing_spawn(shard_id, *args, **kwargs):
            if shard_id == 1:
                await asyncio.sleep(0.6)
            handle = await spawn_worker(shard_id, *args, **kwargs)
            if shard_id == 0 and not killed:
                os.kill(handle.pid, signal.SIGKILL)
                killed.append(handle.pid)
            return handle

        monkeypatch.setattr("repro.cluster.router.spawn_worker", racing_spawn)

        async def inner():
            errors = []
            asyncio.get_running_loop().set_exception_handler(
                lambda _loop, context: errors.append(context)
            )
            async with _cluster(2, executor="subprocess") as store:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and not (
                    store.shard_available(0) and store._shards[0].restarts
                ):
                    await asyncio.sleep(0.05)
                healed = (store.shard_available(0), store._shards[0].restarts)
            gc.collect()    # a failed restart task reports when collected
            return healed, errors

        (available, restarts), errors = asyncio.run(inner())
        assert killed
        assert available and restarts == 1
        assert errors == []

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


class TestWorkerStats:
    def test_a_compaction_reaches_the_parent_without_another_mutation(
        self, tmp_path, make_cluster
    ):
        """A worker child compacts after acking the batch that made the
        compaction due, then sends its counters unsolicited: one
        10^4-element create (an ~80 KB record, past the 64 KiB
        threshold) shows as a compaction in cluster_stats with no
        further mutation — on every backend."""
        log_key = {"journal": "journal_bytes", "sqlite": "wal_bytes"}[
            make_cluster.storage
        ]

        async def inner():
            async with make_cluster(
                1, tmp_path, executor="subprocess"
            ) as store:
                await store.create("big", range(1, 10_001))
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    stats = store.cluster_stats()["per_shard"][0]
                    if stats["compactions"] >= 1:
                        break
                    await asyncio.sleep(0.05)
                return stats

        stats = asyncio.run(inner())
        assert stats["compactions"] >= 1
        assert stats[log_key] == 0


def _argv(pid: int) -> list[bytes]:
    """A live process's command line, from /proc."""
    return Path(f"/proc/{pid}/cmdline").read_bytes().split(b"\0")[:-1]


def _src_env() -> dict:
    """This process's environment with the repo's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(Path(__file__).resolve().parents[1] / "src")
        + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def _running(pid: int) -> bool:
    """Is ``pid`` a live process (not gone, not a zombie)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _listening_socket_inodes() -> set[str]:
    """Inodes of this process's TCP sockets in state LISTEN."""
    ours = set()
    for fd in Path("/proc/self/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue   # closed meanwhile
        if target.startswith("socket:["):
            ours.add(target[len("socket:["):-1])
    listening = set()
    for table in ("tcp", "tcp6"):
        path = Path(f"/proc/self/net/{table}")
        if not path.exists():
            continue
        for row in path.read_text().splitlines()[1:]:
            fields = row.split()
            if fields[3] == "0A":     # TCP_LISTEN
                listening.add(fields[9])
    return ours & listening


def test_worker_module_imports_only_what_a_worker_runs():
    """A worker child imports :mod:`repro.cluster.proc`; that must not
    load the router, replication, rebalance, admission, the server, the
    client, the protocol sessions, or the §5.1 optimizer with its
    analysis tables and estimators (:mod:`repro.service.wire` gives a
    worker its framing alone), none of which a worker runs."""
    probe = (
        "import json, sys, repro.cluster.proc; "
        "print(json.dumps([m for m in sys.modules if m.startswith('repro')]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_src_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    loaded = set(json.loads(out.stdout))
    assert "repro.cluster.worker" in loaded
    unwanted = {
        "repro.cluster.router", "repro.cluster.replication",
        "repro.cluster.rebalance", "repro.cluster.admission",
        "repro.service.server", "repro.service.client",
        "repro.core.sessions", "repro.core.protocol",
    }
    assert loaded & unwanted == set()
    optimizer = {
        m for m in loaded
        if m == "repro.core.params"
        or m.startswith(("repro.analysis.", "repro.estimators."))
    }
    assert optimizer == set()


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestWorkerProcesses:
    def test_children_are_named_for_their_shard_and_role(self):
        """A worker's command line ends in its name, so ``ps`` tells
        primaries and followers apart."""

        async def inner():
            primary = await spawn_worker(2, None, 0, None)
            follower = await spawn_worker(2, None, 0, None, role="follower-01")
            try:
                return [_argv(handle.pid) for handle in (primary, follower)]
            finally:
                await primary.close()
                await follower.close()

        primary, follower = asyncio.run(inner())
        assert primary[0] == follower[0] == os.fsencode(sys.executable)
        assert primary[-1] == b"repro-shard-2"
        assert follower[-1] == b"repro-shard-2-follower-01"

    def test_a_proc_tree_is_only_its_workers(self):
        """A fresh interpreter running a 2-shard subprocess store has
        exactly the two worker children (no resource tracker or other
        helper process), found by a ppid scan of /proc as the ledger
        does it, and never loads :mod:`multiprocessing`.  With
        ResourceWarnings on (the children inherit ``PYTHONWARNINGS``),
        the lifetime prints none: each child closes both of its pipe
        transports."""
        probe = textwrap.dedent(
            """
            import asyncio, json, os, sys
            from pathlib import Path
            from repro.cluster.config import ClusterConfig, open_cluster

            def children():
                out = []
                for entry in Path("/proc").iterdir():
                    if not entry.name.isdigit():
                        continue
                    try:
                        stat = (entry / "stat").read_text()
                    except OSError:
                        continue   # gone meanwhile
                    fields = stat.rsplit(")", 1)[1].split()
                    if int(fields[1]) == os.getpid() and fields[0] != "Z":
                        out.append(int(entry.name))
                return sorted(out)

            async def main():
                config = ClusterConfig(shards=2, executor="subprocess")
                async with open_cluster(None, config) as store:
                    await store.create("s", [1, 2, 3])
                    workers = [shard.worker.pid for shard in store._shards]
                    return sorted(workers), children()

            workers, running = asyncio.run(main())
            print(json.dumps({
                "workers": workers,
                "children": running,
                "after_close": children(),
                "multiprocessing": sorted(
                    m for m in sys.modules if m.startswith("multiprocessing")
                ),
            }))
            """
        )
        env = {**_src_env(), "PYTHONWARNINGS": "always::ResourceWarning"}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        report = json.loads(out.stdout)
        assert len(report["workers"]) == 2
        assert report["children"] == report["workers"]
        assert report["after_close"] == []
        assert report["multiprocessing"] == []
        assert "ResourceWarning" not in out.stderr, out.stderr

    def test_a_proc_store_lifetime_leaks_no_socket(self):
        """A store spawns its workers concurrently, each over its own
        pipes: a 4-shard proc store's lifetime leaves no socket, pipe or
        process transport for the garbage collector to find."""

        async def lifetime():
            async with _cluster(4, executor="subprocess") as store:
                await store.create("s", [1, 2, 3])

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            asyncio.run(lifetime())
            gc.collect()
        leaks = [
            str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)
        ]
        assert leaks == []

    def test_a_proc_store_listens_on_no_port(self):
        """The RPC runs over each child's own stdin and stdout, so a
        proc store opens no TCP listener that another local process
        could dial."""

        async def lifetime():
            before = _listening_socket_inodes()
            async with _cluster(2, executor="subprocess") as store:
                await store.create("s", [1, 2, 3])
                return _listening_socket_inodes() - before

        assert asyncio.run(lifetime()) == set()

    def test_a_workers_stdout_is_the_servers_stderr(self):
        """A worker's fd 1 is the server's stderr, not the RPC pipe, so a
        stray print lands in the log instead of corrupting a frame; the
        RPC itself rides pipes."""

        async def inner():
            handle = await spawn_worker(0, None, 0, None)
            try:
                fds = Path(f"/proc/{handle.pid}/fd")
                stdout = os.stat(fds / "1")
                stdin = os.readlink(fds / "0")
                await handle.submit("create", ("s", [1, 2], 0))
                return stdout, stdin, handle.store.get("s")
            finally:
                await handle.close()

        stdout, stdin, contents = asyncio.run(inner())
        stderr = os.fstat(2)
        assert (stdout.st_dev, stdout.st_ino) == (stderr.st_dev, stderr.st_ino)
        assert stdin.startswith("pipe:")
        assert contents == {1, 2}

    def test_a_killed_server_leaves_no_orphans(self):
        """SIGKILL the process holding a 2-shard proc store: each worker
        sees EOF on its stdin and exits, so within 10 s neither worker
        is alive (gone, or a zombie awaiting its reaper)."""
        probe = textwrap.dedent(
            """
            import asyncio, json
            from repro.cluster.config import ClusterConfig, open_cluster

            async def main():
                config = ClusterConfig(shards=2, executor="subprocess")
                async with open_cluster(None, config) as store:
                    await store.create("s", [1, 2, 3])
                    pids = [shard.worker.pid for shard in store._shards]
                    print(json.dumps(pids), flush=True)
                    await asyncio.sleep(3600)

            asyncio.run(main())
            """
        )
        server = subprocess.Popen(
            [sys.executable, "-c", probe], env=_src_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        workers: list[int] = []
        try:
            workers = json.loads(server.stdout.readline())
            assert len(workers) == 2 and all(map(_running, workers))
            server.kill()
            server.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(_running, workers))
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


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
