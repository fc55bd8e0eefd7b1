"""Replication & failover: log shipping, quorum acks, promotion.

The tier's contract (ISSUE 10): **no quorum-acked mutation is ever
lost** — not across primary SIGKILLs, follower kills, dead primary
disks, or any seeded interleaving of those — and every replica of a
shard **converges bit-for-bit** once the dust settles, on both storage
backends and both executors.

Drills are driven by the seeded ``FaultPlan`` fixture (conftest): each
schedule replays exactly from its seed, so a failing interleaving is a
repro case, not a flake.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.config import EXECUTORS
from repro.cluster.manifest import load_manifest, replica_dir
from repro.cluster.proc import WorkerUnavailableError
from repro.cluster.rebalance import rebalance
from repro.cluster.replication import (
    QuorumTimeoutError,
    ReplicationError,
    elect_replica,
    quorum_size,
    read_cursor,
    write_cursor,
)
from repro.cluster.storage import backend_class, open_backend
from repro.errors import ReproError

async def _until(predicate, timeout=60.0, interval=0.05, what="condition"):
    """Poll ``predicate`` until truthy; fail loudly on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        await asyncio.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def _repl_stats(store, shard=0):
    return store.cluster_stats()["per_shard"][shard].get("replication") or {}


def _converged(store, shard=0):
    """Every follower live and caught up to the shipped sequence."""
    st = _repl_stats(store, shard)
    return bool(
        st
        and st["followers"]
        and all(f["alive"] and f["lag"] == 0 for f in st["followers"])
        and st["durable_seq"] >= st["seq"]
    )


def _replica_contents(storage, data_dir, shard, replicas, epoch=0):
    """The logical state of every replica dir: name -> (values, version)."""
    out = []
    for replica in range(replicas + 1):
        backend = open_backend(
            storage, replica_dir(data_dir, shard, replica),
            epoch=epoch, create=False,
        )
        try:
            entries = sorted(
                (name, tuple(sorted(values)), version)
                for name, values, version in backend.iter_sets()
            )
        finally:
            backend.close()
        out.append(entries)
    return out


# -- unit: cursors, quorum math, election --------------------------------------

class TestPrimitives:
    def test_quorum_size_is_majority_of_replica_set(self):
        # total = primary + R followers
        assert quorum_size(1) == 1
        assert quorum_size(2) == 2
        assert quorum_size(3) == 2
        assert quorum_size(4) == 3
        assert quorum_size(5) == 3

    def test_cursor_roundtrip_and_corruption(self, tmp_path):
        assert read_cursor(tmp_path) == -1        # missing: unknown
        write_cursor(tmp_path, 41)
        assert read_cursor(tmp_path) == 41
        write_cursor(tmp_path, 42, fsync=True)
        assert read_cursor(tmp_path) == 42
        (tmp_path / "repl-cursor.json").write_bytes(b"not json{")
        assert read_cursor(tmp_path) == -1        # corrupt: unknown

    def test_elect_replica_prefers_max_cursor_then_lowest(
        self, tmp_path, storage_backend
    ):
        for replica, seq in ((0, 3), (1, 7), (2, 7)):
            d = replica_dir(tmp_path, 0, replica)
            d.mkdir(parents=True)
            backend_class(storage_backend).stage(
                d, [("s", frozenset({1, replica}), 0)]
            )
            write_cursor(d, seq)
        elect = lambda **kw: elect_replica(
            tmp_path, 0, 0, storage_backend, 2, **kw
        )
        assert elect() == 1                         # max cursor, ties lowest
        assert elect(exclude=frozenset({1})) == 2   # same cursor, next up
        with pytest.raises(ReplicationError):
            elect_replica(tmp_path, 0, 0, storage_backend, 0,
                          exclude=frozenset({0}))


# -- inline executor -----------------------------------------------------------

class TestInlineReplication:
    def test_startup_election_recovers_from_dead_primary_disk(
        self, tmp_path, make_cluster, corrupt_shard
    ):
        """Cold start on a corrupt active replica: the most-advanced
        follower is elected offline and serves the acked data."""
        async def seed():
            async with make_cluster(
                1, tmp_path, replicas=1, replication="quorum"
            ) as store:
                await store.create("alpha", [1, 2, 3])
                await store.apply_diff("alpha", add=[10], remove=[2])
                await _until(lambda: _converged(store), what="convergence")

        asyncio.run(seed())
        corrupt_shard(replica_dir(tmp_path, 0, 0))

        async def reopen():
            async with make_cluster(
                1, tmp_path, replicas=1, replication="quorum"
            ) as store:
                assert store.get("alpha") == {1, 3, 10}
                await store.apply_diff("alpha", add=[99])
                await _until(lambda: _converged(store), what="convergence")

        asyncio.run(reopen())
        manifest = load_manifest(tmp_path)
        assert manifest.primary_replica == [1]
        assert manifest.cursors[0] >= 2

    def test_seeded_follower_kills_never_lose_acked_data(
        self, tmp_path, make_cluster, fault_plan
    ):
        """Property drill, inline: interleave quorum-acked mutation
        batches with seeded follower kills (forced re-bootstraps); every
        acked element must survive to a bit-for-bit converged replica
        set."""
        seeds = range(3)
        for seed in seeds:
            plan = fault_plan(seed)
            data_dir = tmp_path / f"run-{seed}"

            async def drill(plan=plan, data_dir=data_dir):
                acked = set()
                store = make_cluster(
                    1, data_dir, replicas=2, replication="quorum"
                )
                await store.start()
                try:
                    await store.create("s", [0])
                    acked.add(0)
                    base = 1
                    for batch in range(4):
                        # seeded choice: which follower(s) die this round
                        victims = [
                            f for f in store._shards[0].repl.followers
                            if plan.rng.integers(0, 3) == 0
                        ]
                        for follower in victims:
                            follower.mark_dead("injected kill")
                        values = list(range(base, base + 5))
                        base += 5
                        await store.apply_diff("s", add=values)
                        acked.update(values)
                    await _until(lambda: _converged(store),
                                 what="convergence")
                finally:
                    await store.close()
                return acked

            acked = asyncio.run(drill())
            contents = _replica_contents(
                make_cluster.storage, data_dir, 0, replicas=2
            )
            assert contents[0] == contents[1] == contents[2]
            (name, values, _version), = contents[0]
            assert name == "s" and acked <= set(values)


# -- offline rebalance of a replicated directory --------------------------------

class TestRebalanceReplicated:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_rebalance_after_a_promotion_keeps_every_acked_write(
        self, tmp_path, make_cluster, corrupt_shard, executor
    ):
        """Resize x replication: rebalancing a directory whose shard is
        served from a promoted follower rewrites that shard at its root
        and points every primary back at replica 0, with every set and
        version intact; the reopened cluster takes acked writes and each
        shard's replicas converge to the same contents."""
        config = dict(replicas=1, replication="quorum", executor=executor)
        names = [f"s{i}" for i in range(12)]

        def state(store):
            return {n: (store.get(n), store.version(n)) for n in store.names()}

        async def seed():
            async with make_cluster(1, tmp_path, **config) as store:
                for i, name in enumerate(names):
                    await store.create(name, [i + 1, i + 100])
                    await store.apply_diff(name, add=[i + 1000])
                await _until(lambda: _converged(store), what="convergence")

        asyncio.run(seed())
        corrupt_shard(replica_dir(tmp_path, 0, 0))

        async def promoted():
            async with make_cluster(1, tmp_path, **config) as store:
                assert load_manifest(tmp_path).primary_replica == [1]
                await store.apply_diff("s0", add=[4242])
                await _until(lambda: _converged(store), what="convergence")
                return state(store)

        before = asyncio.run(promoted())
        assert sorted(before) == sorted(names)
        # the demoted root fails again: the rebalance must read shard 0
        # from the promoted replica, not from the root it rewrites
        corrupt_shard(replica_dir(tmp_path, 0, 0))
        rebalance(tmp_path, 2)
        manifest = load_manifest(tmp_path)
        assert manifest.shards == 2
        assert manifest.primary_replica == [0, 0]

        async def reopened():
            async with make_cluster(2, tmp_path, **config) as store:
                assert state(store) == before
                await store.apply_diff("s1", add=[4343])
                for shard in range(2):
                    await _until(
                        lambda shard=shard: _converged(store, shard),
                        what=f"shard {shard} convergence",
                    )

        asyncio.run(reopened())
        manifest = load_manifest(tmp_path)
        for shard in range(2):
            primary, follower = _replica_contents(
                make_cluster.storage, tmp_path, shard, replicas=1,
                epoch=manifest.shard_epoch(shard),
            )
            assert primary == follower and primary


# -- subprocess executor -------------------------------------------------------

def _make_proc(make_cluster, data_dir, **overrides):
    overrides.setdefault("executor", "subprocess")
    overrides.setdefault("replicas", 2)
    overrides.setdefault("replication", "quorum")
    return make_cluster(1, data_dir, **overrides)


class TestProcFailover:
    @pytest.fixture(autouse=True)
    def _fast_respawns(self, monkeypatch):
        """Respawns and follower re-bootstraps back off 0.1 s instead of
        0.25 s, so a drill heals quickly; the promotion budget stays the
        default two failed respawns."""
        monkeypatch.setattr("repro.cluster.router.RESTART_BACKOFF_S", 0.1)
        monkeypatch.setattr(
            "repro.cluster.replication.FOLLOWER_BACKOFF_S", 0.1
        )

    def test_sigkill_plus_dead_disk_promotes_most_advanced_follower(
        self, tmp_path, make_cluster, corrupt_shard, fault_plan
    ):
        """The ISSUE's flagship drill: SIGKILL the primary worker, kill
        its disk, and the supervisor must fail the shard over to a
        follower with zero acked loss — then keep accepting writes."""
        plan = fault_plan(0)

        async def drill():
            store = _make_proc(make_cluster, tmp_path)
            await store.start()
            try:
                await store.create("alpha", [1, 2, 3])
                await store.apply_diff("alpha", add=[10, 11], remove=[2])
                await _until(lambda: _converged(store), what="convergence")
                acked = {1, 3, 10, 11}

                pid = store.cluster_stats()["per_shard"][0]["worker"]["pid"]
                plan.arm("post-ack", plan.sigkill(pid))
                assert plan.reached("post-ack")
                corrupt_shard(replica_dir(tmp_path, 0, 0))

                await _until(
                    lambda: _repl_stats(store).get("promotions", 0) >= 1
                    and store.shard_available(0),
                    what="promotion",
                )
                assert store.get("alpha") == acked
                await store.apply_diff("alpha", add=[99])
                await _until(lambda: _converged(store), what="re-convergence")
                st = _repl_stats(store)
                assert st["active_replica"] != 0
                assert st["quorum_ok"]
            finally:
                await store.close()

        asyncio.run(drill())
        manifest = load_manifest(tmp_path)
        assert manifest.primary_replica[0] != 0
        # the demoted dir re-bootstrapped as a follower: every replica
        # converged to the same logical contents, acked data included
        contents = _replica_contents(
            make_cluster.storage, tmp_path, 0, replicas=2
        )
        assert contents[0] == contents[1] == contents[2]
        (name, values, _version), = contents[0]
        assert name == "alpha" and {1, 3, 10, 11, 99} <= set(values)

    def test_empty_recovery_behind_followers_promotes_not_wipes(
        self, tmp_path, make_cluster
    ):
        """A wiped primary volume whose respawn 'succeeds' empty (the
        journal tolerates torn tails; a fresh sqlite file just opens)
        must promote instead of resyncing followers from nothing."""
        async def drill():
            store = _make_proc(make_cluster, tmp_path)
            await store.start()
            try:
                await store.create("alpha", [1, 2, 3])
                await _until(lambda: _converged(store), what="convergence")
                pid = store.cluster_stats()["per_shard"][0]["worker"]["pid"]
                os.kill(pid, signal.SIGKILL)
                # wipe the primary's volume outright: recovery finds
                # nothing and comes back empty, NOT corrupt
                primary = replica_dir(tmp_path, 0, 0)
                for path in primary.iterdir():
                    if path.is_file():
                        path.unlink()
                await _until(
                    lambda: _repl_stats(store).get("promotions", 0) >= 1
                    and store.shard_available(0),
                    what="promotion",
                )
                assert store.get("alpha") == {1, 2, 3}
            finally:
                await store.close()

        asyncio.run(drill())
        assert load_manifest(tmp_path).primary_replica[0] != 0

    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_failure_schedules_never_lose_acked_mutations(
        self, tmp_path, make_cluster, fault_plan, seed
    ):
        """Property drill, subprocess: a seeded schedule kills the
        primary worker, follower workers, or both, at crash points
        between and *during* mutation batches; whatever the
        interleaving, acked mutations survive and all three replica
        dirs converge bit-for-bit."""
        plan = fault_plan(seed)
        data_dir = tmp_path / f"run-{seed}"

        async def drill():
            acked: set[int] = set()
            attempted: set[int] = set()
            store = _make_proc(make_cluster, data_dir)
            await store.start()
            try:
                await store.create("s", [0])
                acked.add(0)
                base = 1
                for batch in range(4):
                    action = ("none", "primary", "follower", "both")[
                        int(plan.rng.integers(0, 4))
                    ]
                    values = list(range(base, base + 5))
                    base += 5
                    attempted.update(values)
                    mutation = asyncio.ensure_future(
                        store.apply_diff("s", add=values)
                    )
                    if action in ("primary", "both"):
                        pid = store.cluster_stats()["per_shard"][0][
                            "worker"]["pid"]
                        plan.arm(f"batch-{batch}", plan.sigkill(pid))
                        plan.reached(f"batch-{batch}")
                    if action in ("follower", "both"):
                        followers = store._shards[0].repl.followers
                        victim = followers[
                            int(plan.rng.integers(0, len(followers)))
                        ]
                        handle = victim.handle
                        if handle is not None and handle.alive:
                            os.kill(handle.pid, signal.SIGKILL)
                        else:
                            victim.mark_dead("injected kill")
                    try:
                        await mutation
                        acked.update(values)
                    except (WorkerUnavailableError, QuorumTimeoutError,
                            ReproError):
                        pass        # attempted, never acked
                    # heal before the next batch: worker respawned,
                    # followers re-bootstrapped and caught up
                    await _until(lambda: store.shard_available(0),
                                 what="worker respawn")
                    await _until(lambda: _converged(store),
                                 what="follower convergence")
                final = await _until(
                    lambda: store.get("s"), what="final read"
                )
            finally:
                await store.close()
            return acked, attempted, final

        acked, attempted, final = asyncio.run(drill())
        assert acked <= final <= attempted | {0}
        contents = _replica_contents(
            make_cluster.storage, data_dir, 0, replicas=2
        )
        assert contents[0] == contents[1] == contents[2]
        (name, values, _version), = contents[0]
        assert name == "s" and set(values) == final


# -- the start-up preload under SIGKILL ----------------------------------------

def _running_children(pid: int) -> list[int]:
    """Live (not zombie) child processes of ``pid``, from /proc."""
    out = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue     # exited meanwhile
        if int(fields[1]) == pid and fields[0] != "Z":
            out.append(int(stat.parent.name))
    return out


def _alive(pid: int) -> bool:
    """Is ``pid`` a live process (not gone, not a zombie)?"""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestPreloadCrashDrill:
    SETS = 64

    @pytest.mark.parametrize("workers", ["inline", "proc"])
    def test_a_killed_server_keeps_the_whole_preload_on_both_replicas(
        self, tmp_path, storage_backend, workers
    ):
        """``repro serve --fsync --replicas 1 --replication quorum`` with
        64 ``--set`` preloads, SIGKILLed as soon as it prints its banner:
        the preload is quorum-acked by then, so both replica directories
        hold every set bit for bit at version 0, and the follower's
        cursor covers all 64 creates."""
        rng = np.random.default_rng(25)
        sets = {}
        args = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--data-dir", str(tmp_path / "data"), "--fsync",
            "--replicas", "1", "--replication", "quorum",
            "--workers", workers, "--storage", storage_backend,
        ]
        for i in range(self.SETS):
            values = np.unique(rng.integers(1, 1 << 32, size=40 + i,
                                            dtype=np.uint64))
            path = tmp_path / f"p{i:02d}.txt"
            path.write_text("".join(f"{v}\n" for v in values.tolist()))
            sets[f"p{i:02d}"] = tuple(values.tolist())
            args += ["--set", f"p{i:02d}={path}"]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        server = subprocess.Popen(args, stderr=subprocess.PIPE, env=env,
                                  text=True)
        workers_pids: list[int] = []
        try:
            line = ""
            while not line.startswith("# serving on"):
                line = server.stderr.readline()
                assert line, "the server exited before its banner"
            workers_pids = _running_children(server.pid)
            server.kill()
            server.wait(timeout=30)
            # worker children see EOF on their stdin and exit
            deadline = time.monotonic() + 10
            while (any(map(_alive, workers_pids))
                   and time.monotonic() < deadline):
                time.sleep(0.05)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stderr.close()
        assert len(workers_pids) == (2 if workers == "proc" else 0)
        assert not any(_alive(pid) for pid in workers_pids)
        want = sorted((name, values, 0) for name, values in sets.items())
        for state in _replica_contents(storage_backend, tmp_path / "data",
                                       0, replicas=1):
            assert state == want
        assert read_cursor(replica_dir(tmp_path / "data", 0, 1)) >= self.SETS
