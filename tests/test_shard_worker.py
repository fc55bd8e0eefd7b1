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
import random
import time

import numpy as np
import pytest

from repro.cluster.config import EXECUTORS
from repro.cluster.manifest import replica_dir
from repro.cluster.proc import spawn_worker
from repro.cluster.replication import FollowerApplier
from repro.cluster.storage import backend_class, open_backend
from repro.service.store import SetStore


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
        see the module default, so the test writes past it)."""
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
                follower = store._shards[0].repl.followers[0]
                return follower.applier.handle.stats()["compactions"]

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
