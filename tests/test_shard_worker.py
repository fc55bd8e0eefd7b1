"""The one shard worker, behind either executor's handle.

Every primary and follower is a :class:`~repro.cluster.worker.
ShardWorker`: in-process behind a ``LocalHandle`` (``inline``) or in a
child behind a ``WorkerHandle`` (``subprocess``).  These tests pin what
that single mutation path guarantees under both executors: followers
compact like primaries, a quorum wait never holds the shard's mutation
queue, and a replicated shard's replicas converge to the same versioned
state whichever executor ran them.

Written against plain ``asyncio.run`` so the suite does not depend on a
pytest-asyncio plugin being installed.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import time

import numpy as np
import pytest

from repro.cluster.config import EXECUTORS
from repro.cluster.manifest import replica_dir
from repro.cluster.proc import spawn_worker
from repro.cluster.replication import FollowerApplier
from repro.cluster.storage import backend_class, open_backend
from repro.cluster.worker import LocalHandle, ShardWorker
from repro.service.store import SetStore, UnknownSetError


async def _until(predicate, timeout=60.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        await asyncio.sleep(0.02)
    raise AssertionError(f"timed out waiting for {what}")


def _converged(store, shard=0):
    st = store.cluster_stats()["per_shard"][shard].get("replication") or {}
    return bool(
        st
        and st["followers"]
        and all(f["alive"] and f["lag"] == 0 for f in st["followers"])
        and st["durable_seq"] >= st["seq"]
    )


def _replica_state(storage, directory):
    """One replica directory's logical state, versions included."""
    backend = open_backend(storage, directory, create=False)
    try:
        return sorted(
            (name, tuple(int(v) for v in values), version)
            for name, values, version in backend.iter_sets()
        )
    finally:
        backend.close()


class TestFollowerCompaction:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_followers_compact_like_primaries(self, tmp_path, executor):
        """A follower applies through the same worker loop as a primary,
        so it compacts under the same rule: its journal stays bounded
        instead of growing with every shipped op.  The diffs journal
        ~126 KB, past the 64 KiB compaction threshold (worker children
        see the module default, so the test writes past it).  The
        count is read after the close: a compaction runs after its
        batch's acks, and a child's counters ride its acks and its
        CLOSE reply."""
        from repro.cluster.config import ClusterConfig, open_cluster

        async def inner():
            store = open_cluster(tmp_path, ClusterConfig(
                executor=executor, replicas=1, storage="journal",
            ))
            async with store:
                await store.create("s", range(1, 50))
                for i in range(300):
                    start = 1000 + 50 * i
                    await store.apply_diff("s", add=range(start, start + 50))
                await _until(lambda: _converged(store), what="convergence")
                handle = store._shards[0].repl.followers[0].applier.handle
            return handle.stats()["compactions"]

        assert asyncio.run(inner()) >= 1
        primary, follower = (
            replica_dir(tmp_path, 0, replica) for replica in (0, 1)
        )
        assert (follower / "snapshot.bin").stat().st_size > 0
        assert (
            (follower / "journal.log").stat().st_size
            <= (primary / "journal.log").stat().st_size
        )


class TestWorkerReady:
    def test_follower_ready_carries_no_state_dump(
        self, tmp_path, storage_backend
    ):
        """A primary's READY seeds its handle's read mirror with the
        recovered state; a follower child (role ``follower-KK``) recovers
        the same state but sends none of it — nothing reads a follower —
        and still applies shipped ops."""
        entries = [("a", [1, 2, 3], 4), ("b", [7], 0)]
        cls = backend_class(storage_backend)
        for name in ("primary", "follower-01"):
            (tmp_path / name).mkdir()
            cls.stage(tmp_path / name, entries)
        values = np.array([9], dtype=np.uint64)
        empty = np.array([], dtype=np.uint64)

        async def inner():
            primary = await spawn_worker(
                0, tmp_path / "primary", 0, None, storage=storage_backend
            )
            follower = await spawn_worker(
                0, tmp_path / "follower-01", 0, None,
                storage=storage_backend, role="follower-01",
            )
            try:
                mirrored = sorted(
                    (name, [int(v) for v in vals], version)
                    for name, vals, version in primary.store.items()
                )
                recovered = follower.stats()["recovered_sets"]
                changed = await follower.submit(
                    "apply", ("a", values, empty)
                )
                return mirrored, follower.store, recovered, changed
            finally:
                await primary.close()
                await follower.close()

        mirrored, follower_store, recovered, changed = asyncio.run(inner())
        assert mirrored == entries
        assert follower_store is None
        assert recovered == len(entries)
        assert changed == 1


class TestQuorumWaitOutsideTheLoop:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_stalled_quorum_wait_does_not_hold_the_shard(
        self, tmp_path, monkeypatch, executor
    ):
        """A mutation waiting for its quorum must not stop the shard's
        worker: a flush and a diff to another set on the same shard
        complete (the diff is applied and visible) while the first
        mutation's follower apply is stalled; both ack once the follower
        catches up."""
        from repro.cluster.config import ClusterConfig, open_cluster

        real_apply = FollowerApplier.apply

        async def inner():
            release = asyncio.Event()

            async def stalled_apply(self, op, args):
                await release.wait()
                await real_apply(self, op, args)

            store = open_cluster(tmp_path, ClusterConfig(
                executor=executor, replicas=1, replication="quorum",
            ))
            async with store:
                await store.create("a", [1])
                await store.create("b", [2])
                monkeypatch.setattr(FollowerApplier, "apply", stalled_apply)
                first = asyncio.ensure_future(
                    store.apply_diff("a", add=[10])
                )
                try:
                    await _until(lambda: 10 in store.get("a"), timeout=5.0,
                                 what="first diff applied")
                    # the follower stays stalled until release: any
                    # finite bound catches a shard loop held by the
                    # quorum wait
                    await asyncio.wait_for(store.flush(), 5.0)
                    second = asyncio.ensure_future(
                        store.apply_diff("b", add=[20])
                    )
                    await _until(lambda: 20 in store.get("b"), timeout=5.0,
                                 what="second diff applied")
                    # both still wait for the stalled follower
                    assert not first.done() and not second.done()
                finally:
                    # a failure must not leave close() waiting on the
                    # stalled follower forever
                    release.set()
                assert await asyncio.wait_for(first, 10.0) == 1
                assert await asyncio.wait_for(second, 10.0) == 1

        asyncio.run(inner())


def _script(seed: int, sets: int = 5, rounds: int = 8, per_round: int = 40):
    """Seeded rounds of concurrent applies across ``sets`` sets; a
    ``None`` step kills the follower right there, between applies that
    are already in flight and applies not yet submitted.  A diff moves
    ~60 elements, so the script journals ~157 KB and crosses the 64 KiB
    compaction threshold in its middle rounds."""
    rng = random.Random(seed)
    out = []
    for _ in range(rounds):
        batch = []
        for _ in range(per_round):
            name = f"s{rng.randrange(sets)}"
            add = rng.sample(range(1, 3000), rng.randrange(0, 80))
            remove = rng.sample(range(1, 3000), rng.randrange(0, 40))
            batch.append((name, add, remove))
        for _ in range(rng.randrange(3)):
            batch.insert(rng.randrange(per_round), None)
        out.append(batch)
    return out


class TestReplicatedEquivalence:
    """The replicated drill on every executor x backend: one seeded
    script of concurrent applies and follower kills must leave every
    replica directory with the same versioned state, and that state is
    the one a plain ``SetStore`` reaches by applying the script in
    order — so the executors agree with each other, too.  The primary
    compacts in the middle of the drill, while applies and kills are in
    flight: worker children once, under the 64 KiB default the script's
    diffs cross, and in-process workers, patched to a 4 KiB threshold,
    several times."""

    SEED = 0x5EED

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_replicas_match_under_concurrent_applies_and_kills(
        self, tmp_path, make_cluster, monkeypatch, executor
    ):
        monkeypatch.setattr("repro.cluster.storage.COMPACT_MIN_BYTES", 4096)
        script = _script(self.SEED)
        reference = SetStore()
        for i in range(5):
            reference.create(f"s{i}", [i])
        for batch in script:
            for step in batch:
                if step is not None:
                    name, add, remove = step
                    reference.apply_diff(name, add=add, remove=remove)

        async def drill():
            store = make_cluster(
                1, tmp_path, executor=executor, replicas=1,
                replication="quorum",
            )

            async def kill():
                # a forced re-bootstrap from the primary's read view
                store._shards[0].repl.followers[0].mark_dead("injected kill")

            def compactions():
                return store.cluster_stats()["per_shard"][0]["compactions"]

            async with store:
                for i in range(5):
                    await store.create(f"s{i}", [i])
                # the flush acks after any compaction the creates made due
                await store.flush()
                before = compactions()
                for batch in script:
                    await asyncio.gather(*[
                        kill() if step is None
                        else store.apply_diff(
                            step[0], add=step[1], remove=step[2]
                        )
                        for step in batch
                    ])
                await _until(lambda: _converged(store), what="convergence")
                await store.flush()
                return before, compactions()

        before, after = asyncio.run(drill())
        assert after > before, (before, after)
        want = sorted(
            (name, tuple(int(v) for v in values), version)
            for name, values, version in reference.items()
        )
        for replica in (0, 1):
            assert _replica_state(
                make_cluster.storage, replica_dir(tmp_path, 0, replica)
            ) == want, f"replica {replica}"


# -- group commit --------------------------------------------------------------

def _children(store) -> list[int]:
    """The worker-child pids of a 1-shard store's primary and followers
    (none under the inline executor)."""
    shard = store._shards[0]
    handles = [shard.worker]
    if shard.repl is not None:
        handles += [f.applier.handle for f in shard.repl.followers]
    return [h.pid for h in handles if hasattr(h, "pid")]


async def _in_one_batch(pids, coros) -> list:
    """Submit ``coros`` in one event-loop step and collect their
    outcomes.  An in-process worker takes the step's mutations as one
    batch by itself; a worker child is stopped meanwhile, so the frames
    wait in its pipe and it reads them all at once."""
    for pid in pids:
        os.kill(pid, signal.SIGSTOP)
    try:
        tasks = [asyncio.ensure_future(coro) for coro in coros]
        await asyncio.sleep(0)      # every task writes its frame
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGCONT)
    return await asyncio.gather(*tasks, return_exceptions=True)


def _storage_counts(handle) -> tuple[int, int]:
    stats = handle.stats()
    return stats["records_appended"], stats["commits"]


@pytest.mark.parametrize("executor", EXECUTORS)
class TestGroupCommit:
    """The shard worker commits every mutation queued behind the one it
    takes as one batch, on primaries and followers alike, under both
    executors and on both backends."""

    N = 24

    def _open(self, make_cluster, tmp_path, executor):
        return make_cluster(
            1, tmp_path, executor=executor, fsync=True, replicas=1,
            replication="quorum",
        )

    def test_mutations_queued_together_commit_once(
        self, tmp_path, make_cluster, monkeypatch, executor
    ):
        """N creates submitted in one step are N records in 1 commit on
        the primary and, in-process, on the follower, whose cursor is
        written once: one ``os.fsync`` of each journal.  A follower
        child stopped meanwhile gets the ops in at most two batches
        (the first is in flight while the rest queue), one cursor write
        each; a running child may read the second batch's frames as
        they arrive, so only fewer commits than records are certain."""
        fsyncs: list[str] = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(os.readlink(f"/proc/self/fd/{fd}"))
            return real_fsync(fd)

        async def inner():
            async with self._open(make_cluster, tmp_path, executor) as store:
                await store.create("seed", [1])     # followers caught up
                shard = store._shards[0]
                follower = shard.repl.followers[0]
                primary0 = _storage_counts(shard.worker)
                follower0 = _storage_counts(follower.applier.handle)
                seq0 = shard.repl.seq
                primary_pid = _children(store)[:1]
                follower_pids = _children(store)[1:]
                for pid in follower_pids:
                    os.kill(pid, signal.SIGSTOP)
                try:
                    monkeypatch.setattr(os, "fsync", counting_fsync)
                    creates = asyncio.ensure_future(_in_one_batch(
                        primary_pid,
                        [store.create(f"s{i:02d}", [i, i + 100])
                         for i in range(self.N)],
                    ))
                    await _until(lambda: shard.repl.seq == seq0 + self.N,
                                 what="every create shipped")
                finally:
                    for pid in follower_pids:
                        os.kill(pid, signal.SIGCONT)
                outcomes = await creates
                monkeypatch.setattr(os, "fsync", real_fsync)
                assert outcomes == [None] * self.N
                return (
                    primary0, _storage_counts(shard.worker),
                    follower0, _storage_counts(follower.applier.handle),
                )

        primary0, primary1, follower0, follower1 = asyncio.run(inner())
        assert primary1 == (primary0[0] + self.N, primary0[1] + 1)
        assert follower1[0] == follower0[0] + self.N
        primary_dir, follower_dir = (
            str(replica_dir(tmp_path, 0, replica)) for replica in (0, 1)
        )
        cursor_writes = fsyncs.count(f"{follower_dir}/repl-cursor.json.tmp")
        if executor == "inline":
            assert follower1[1] == follower0[1] + 1
            assert cursor_writes == 1
        else:
            assert follower1[1] - follower0[1] < self.N
            assert 1 <= cursor_writes <= 2
        if executor == "inline" and make_cluster.storage == "journal":
            assert fsyncs.count(f"{primary_dir}/journal.log") == 1
            assert fsyncs.count(f"{follower_dir}/journal.log") == 1

    def test_a_lone_mutation_is_a_batch_of_one(
        self, tmp_path, make_cluster, executor
    ):
        """K applies made one after another are K commits: the worker
        never waits for more work."""

        async def inner():
            async with self._open(make_cluster, tmp_path, executor) as store:
                await store.create("s", [1])
                shard = store._shards[0]
                follower = shard.repl.followers[0].applier
                before = (_storage_counts(shard.worker),
                          _storage_counts(follower.handle))
                for i in range(5):
                    assert await store.apply_diff("s", add=[10 + i]) == 1
                return before, (_storage_counts(shard.worker),
                                _storage_counts(follower.handle))

        before, after = asyncio.run(inner())
        for (records0, commits0), (records1, commits1) in zip(before, after):
            assert (records1, commits1) == (records0 + 5, commits0 + 5)

    def test_a_failed_commit_fails_its_whole_batch(
        self, tmp_path, make_cluster, executor
    ):
        """A set name that cannot be encoded fails the batch's commit
        when its record is written, after the record before it: every
        op of the batch fails with that error, nothing is persisted
        (SQLite rolls back the first record), the primary's read view
        and the follower are unchanged, and a retry succeeds."""
        names = ["a", "bad\udc80", "c"]

        async def inner():
            async with self._open(make_cluster, tmp_path, executor) as store:
                await store.create("seed", [1])
                shard = store._shards[0]
                seq0 = shard.repl.seq
                counts0 = _storage_counts(shard.worker)
                outcomes = await _in_one_batch(_children(store)[:1], [
                    # the router's own path, minus the ring lookup the
                    # bad name could not pass
                    store._submit(shard, "create", (name, [7], 0))
                    for name in names
                ])
                failed = (
                    store.names(), shard.repl.seq - seq0,
                    _storage_counts(shard.worker) == counts0,
                    _replica_state(make_cluster.storage,
                                   replica_dir(tmp_path, 0, 0)),
                )
                await asyncio.gather(store.create("a", [7]),
                                     store.create("c", [7]))
                await _until(lambda: _converged(store), what="convergence")
                return outcomes, failed, store.names()

        outcomes, failed, names_after = asyncio.run(inner())
        assert [type(o) for o in outcomes] == [UnicodeEncodeError] * 3
        assert len({str(o) for o in outcomes}) == 1
        assert failed == (["seed"], 0, True, [("seed", (1,), 0)])
        assert names_after == ["a", "c", "seed"]
        for replica in (0, 1):
            assert _replica_state(
                make_cluster.storage, replica_dir(tmp_path, 0, replica)
            ) == [("a", (7,), 0), ("c", (7,), 0), ("seed", (1,), 0)]

    def test_ops_validate_in_order_within_a_batch(
        self, tmp_path, make_cluster, executor
    ):
        """An apply to a set created earlier in its batch succeeds; an
        apply to an unknown set fails alone while the rest commit, as
        one commit."""

        async def inner():
            async with self._open(make_cluster, tmp_path, executor) as store:
                await store.create("seed", [1])
                shard = store._shards[0]
                counts0 = _storage_counts(shard.worker)
                outcomes = await _in_one_batch(_children(store)[:1], [
                    store.create("x", [1, 2]),
                    store.apply_diff("x", add=[3], remove=[1]),
                    store.apply_diff("ghost", add=[5]),
                    store.create("y", [9]),
                    store.apply_diff("x", add=[4]),
                ])
                counts1 = _storage_counts(shard.worker)
                await _until(lambda: _converged(store), what="convergence")
                return outcomes, counts0, counts1

        outcomes, counts0, counts1 = asyncio.run(inner())
        assert outcomes[:2] == [None, 2]
        assert isinstance(outcomes[2], UnknownSetError)
        assert outcomes[3:] == [None, 1]
        assert counts1 == (counts0[0] + 4, counts0[1] + 1)
        for replica in (0, 1):
            assert _replica_state(
                make_cluster.storage, replica_dir(tmp_path, 0, replica)
            ) == [("seed", (1,), 0), ("x", (2, 3, 4), 2), ("y", (9,), 0)]

    def test_acks_mirror_and_ships_follow_submission_order(
        self, tmp_path, make_cluster, executor
    ):
        """Within a batch each mutation is acked and shipped in
        submission order, in the step its effect is in the read view:
        N replacing creates of one set ship 0..N-1, the view at each
        ship holds the batch applied (in-process) or exactly that
        create (the proc mirror, updated ack by ack), and the follower
        ends at the last one."""
        shipped: list[tuple[int, set]] = []

        async def inner():
            async with self._open(make_cluster, tmp_path, executor) as store:
                await store.create("s", [1000])
                shard = store._shards[0]
                ship = shard.repl.ship

                def recording_ship(op, args):
                    shipped.append((int(args[1][0]), shard.store.get("s")))
                    return ship(op, args)

                shard.repl.ship = recording_ship
                outcomes = await _in_one_batch(
                    _children(store)[:1],
                    [store.create("s", [i]) for i in range(self.N)],
                )
                await _until(lambda: _converged(store), what="convergence")
                return outcomes

        assert asyncio.run(inner()) == [None] * self.N
        assert [i for i, _ in shipped] == list(range(self.N))
        if executor == "inline":
            assert all(view == {self.N - 1} for _, view in shipped)
        else:
            assert all(view == {i} for i, view in shipped)
        for replica in (0, 1):
            assert _replica_state(
                make_cluster.storage, replica_dir(tmp_path, 0, replica)
            ) == [("s", (self.N - 1,), 0)]

    def test_close_applies_every_queued_mutation(
        self, tmp_path, storage_backend, executor
    ):
        """A worker closed right after N submissions applies, acks and
        persists all of them."""

        async def inner():
            if executor == "inline":
                handle = LocalHandle(ShardWorker(storage_backend, tmp_path))
            else:
                handle = await spawn_worker(
                    0, tmp_path, 0, None, storage=storage_backend
                )
            futures = [
                handle.submit("create", (f"s{i:02d}", [i], 0))
                for i in range(self.N)
            ]
            await handle.close()
            return await asyncio.gather(*futures)

        assert asyncio.run(inner()) == [None] * self.N
        assert _replica_state(storage_backend, tmp_path) == [
            (f"s{i:02d}", (i,), 0) for i in range(self.N)
        ]
