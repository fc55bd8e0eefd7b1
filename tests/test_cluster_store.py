"""ClusterStore: sharded routing, durable acks, crash recovery end-to-end.

Parametrized over every storage backend (``storage_backend`` /
``make_cluster`` fixtures in ``conftest.py``) — the backend is an
implementation detail, so every durability and recovery property here
must hold identically for the journal files and the SQLite store.

Written against plain ``asyncio.run`` so the suite does not depend on a
pytest-asyncio plugin being installed.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import EXECUTORS, ClusterConfig, ClusterStore, open_cluster
from repro.cluster.journal import encode_diff
from repro.service import ReconciliationServer, sync_with_server
from repro.service.store import UnknownSetError
from repro.workloads import SetPairGenerator

NAMES = [f"set-{i}" for i in range(12)]


def _cluster(shards: int, data_dir=None, **overrides) -> ClusterStore:
    """A config-built cluster for backend-agnostic (or memory-only)
    tests; backend-parametrized tests use the ``make_cluster`` fixture."""
    return open_cluster(data_dir, ClusterConfig(shards=shards, **overrides))


def _populate(store: ClusterStore) -> dict:
    """Fill the cluster and capture its live state *before* close —
    reads against a closed store are not part of the contract (the
    journal's in-memory copy incidentally serves them; SQLite's closed
    connection cannot)."""

    async def inner():
        async with store:
            for i, name in enumerate(NAMES):
                await store.create(name, range(10 * i + 1, 10 * i + 8))
                await store.apply_diff(name, add=[10_000 + i])
            return {
                "values": {n: store.get(n) for n in store.names()},
                "versions": {n: store.version(n) for n in store.names()},
                "stats": store.stats(),
            }

    return asyncio.run(inner())


class TestShardedSemantics:
    def test_sets_spread_across_shards(self, tmp_path, make_cluster):
        store = make_cluster(4, tmp_path)
        snap = _populate(store)
        shards = {store.shard_for(name) for name in NAMES}
        assert len(shards) > 1                  # really sharded
        assert set(snap["stats"]) == set(NAMES)
        for name in NAMES:
            assert snap["stats"][name]["shard"] == store.shard_for(name)

    def test_setstore_compatible_reads(self, tmp_path, make_cluster):
        async def inner():
            async with make_cluster(3, tmp_path) as store:
                for i, name in enumerate(NAMES):
                    await store.create(name, range(10 * i + 1, 10 * i + 8))
                    await store.apply_diff(name, add=[10_000 + i])
                assert store.names() == sorted(NAMES)
                assert "set-0" in store and "ghost" not in store
                assert store.size("set-0") == 8
                assert store.version("set-0") == 1   # one mutating apply
                assert 10_000 in store.get("set-0")

        asyncio.run(inner())

    def test_unknown_set_raises_through_worker(self, tmp_path, make_cluster):
        async def inner():
            async with make_cluster(2, tmp_path) as store:
                with pytest.raises(UnknownSetError):
                    await store.apply_diff("ghost", add=[1])
                with pytest.raises(UnknownSetError):
                    await store.snapshot("ghost", create_missing=False)

        asyncio.run(inner())

    def test_snapshot_create_missing_is_persisted(self, tmp_path, make_cluster):
        async def inner():
            async with make_cluster(2, tmp_path) as store:
                snap = await store.snapshot("fresh", create_missing=True)
                assert len(snap) == 0
            async with make_cluster(2, tmp_path) as store2:
                assert "fresh" in store2

        asyncio.run(inner())

    def test_memory_only_mode_needs_no_disk(self):
        async def inner():
            async with _cluster(2) as store:
                await store.create("s", {1, 2})
                assert await store.apply_diff("s", add=[3]) == 1
                assert store.get("s") == {1, 2, 3}

        asyncio.run(inner())


class TestRecovery:
    def test_cold_restart_recovers_bit_for_bit(self, tmp_path, make_cluster):
        store = make_cluster(4, tmp_path)
        snap = _populate(store)
        expected, versions = snap["values"], snap["versions"]

        async def restart():
            async with make_cluster(4, tmp_path) as again:
                return (
                    {n: again.get(n) for n in again.names()},
                    {n: again.version(n) for n in again.names()},
                )

        recovered, recovered_versions = asyncio.run(restart())
        assert recovered == expected
        assert recovered_versions == versions

    def test_killed_shard_mid_write_recovers_to_last_complete_record(
        self, tmp_path, fault_plan
    ):
        """The ISSUE's crash drill: torn journal tail, restart, reconcile.
        Journal-specific file surgery (SQLite's torn-WAL twin lives in
        test_storage_backends.py)."""
        store = _cluster(2, tmp_path)

        async def phase1():
            async with store:
                await store.create("crash", range(1, 500))
                await store.apply_diff("crash", add=[9001, 9002])

        asyncio.run(phase1())
        # simulate SIGKILL mid-append on the owning shard's journal: a
        # half-written record follows the last durable one
        shard_dir = tmp_path / f"shard-{store.shard_for('crash'):02d}"
        journal = shard_dir / "journal.log"
        fault_plan(0).torn_write(journal, encode_diff("crash", add=[9999]),
                                 cut=4)

        async def phase2():
            async with _cluster(2, tmp_path) as again:
                # recovered to the last complete record: the torn 9999 is
                # gone, everything acknowledged before it survives
                assert again.get("crash") == set(range(1, 500)) | {9001, 9002}
                shard = again.cluster_stats()["per_shard"][
                    again.shard_for("crash")
                ]
                assert shard["tail_error"] != ""
                # and a fresh reconcile against the recovered set converges
                pair = SetPairGenerator(universe_bits=32, seed=3).generate(
                    size_a=600, d=20
                )
                await again.create("fresh", pair.b)
                async with ReconciliationServer(again) as server:
                    result = await sync_with_server(
                        "127.0.0.1", server.port, pair.a,
                        set_name="fresh", seed=5,
                    )
                assert result.success
                assert result.difference == pair.difference
                assert again.get("fresh") == set(pair.a) | set(pair.b)

        asyncio.run(phase2())

    def test_resize_without_rebalance_refuses_to_start(
        self, tmp_path, make_cluster
    ):
        """Restarting with a different shard count used to silently
        remap ~1/(N+1) of the names to shards whose journals never heard
        of them — those sets recovered *empty*.  The manifest turns that
        silent data loss into a fail-fast refusal; a rebalance then makes
        the same restart recover every set bit-for-bit."""
        from repro.cluster import TopologyMismatchError, rebalance

        store = make_cluster(2, tmp_path)
        snap = _populate(store)
        grown = make_cluster(4, tmp_path)

        async def restart_mismatched():
            with pytest.raises(TopologyMismatchError, match="rebalance"):
                await grown.start()

        asyncio.run(restart_mismatched())

        result = rebalance(tmp_path, 4)          # keeps the committed backend
        assert result.changed and result.moved_count > 0
        assert result.new_storage == make_cluster.storage

        async def restart_rebalanced():
            async with make_cluster(4, tmp_path) as again:
                for name in NAMES:
                    assert again.get(name) == snap["values"][name]
                    assert again.version(name) == snap["versions"][name]

        asyncio.run(restart_rebalanced())


class TestCompactionUnderLoad:
    def test_auto_compaction_triggers_and_preserves_state(
        self, tmp_path, make_cluster, monkeypatch
    ):
        monkeypatch.setattr("repro.cluster.storage.COMPACT_MIN_BYTES", 256)
        monkeypatch.setattr("repro.cluster.storage.COMPACT_FACTOR", 1)
        store = make_cluster(1, tmp_path)

        async def inner():
            async with store:
                await store.create("s", range(1, 50))
                for i in range(40):
                    await store.apply_diff("s", add=[1000 + i])
                await store.flush()
                expected = store.get("s")
                expected_version = store.version("s")
            stats = store.cluster_stats()["per_shard"][0]
            assert stats["compactions"] >= 1
            async with make_cluster(1, tmp_path) as again:
                assert again.get("s") == expected
                assert again.version("s") == expected_version

        asyncio.run(inner())


class TestDurableFirstOrdering:
    def test_failed_durable_write_leaves_store_unmutated(
        self, tmp_path, make_cluster
    ):
        """Durability contract: nothing un-persisted ever becomes visible.
        If the durable write fails (disk full), the apply must error out
        *without* touching the live set — on every backend."""

        async def inner():
            async with make_cluster(1, tmp_path) as store:
                await store.create("s", {1, 2, 3})
                # the shard's storage, owned by its in-process worker
                storage = store._shards[0].worker.worker.storage
                original = storage.record_diff

                def exploding_record_diff(name, add=(), remove=()):
                    raise OSError("no space left on device")

                storage.record_diff = exploding_record_diff
                with pytest.raises(OSError):
                    await store.apply_diff("s", add=[999])
                # the rejected diff is not in the live set: later sessions
                # cannot be acked against state a restart would lose
                assert store.get("s") == {1, 2, 3}
                assert store.version("s") == 0
                storage.record_diff = original
                assert await store.apply_diff("s", add=[999]) == 1
            async with make_cluster(1, tmp_path) as again:
                assert again.get("s") == {1, 2, 3, 999}

        asyncio.run(inner())

    @pytest.mark.parametrize("via", ["create", "snapshot"])
    def test_failed_durable_create_leaves_store_unmutated(
        self, tmp_path, make_cluster, via
    ):
        """A create whose durable write fails — an explicit one, or the
        one a session's snapshot of a missing set makes — leaves both
        the replaced set and the missing one as they were."""

        async def inner():
            async with make_cluster(1, tmp_path) as store:
                await store.create("s", {1, 2, 3})
                await store.apply_diff("s", add=[4])
                storage = store._shards[0].worker.worker.storage

                def exploding_record_create(name, values, version=0):
                    raise OSError("no space left on device")

                storage.record_create = exploding_record_create
                with pytest.raises(OSError):
                    if via == "create":
                        await store.create("s", {7})
                    else:
                        await store.snapshot("fresh", create_missing=True)
                with pytest.raises(OSError):
                    await store.create("new", {8})
                assert store.names() == ["s"]
                assert store.get("s") == {1, 2, 3, 4}
                assert store.version("s") == 1
            async with make_cluster(1, tmp_path) as again:
                assert again.names() == ["s"]
                assert again.get("s") == {1, 2, 3, 4}
                assert again.version("s") == 1

        asyncio.run(inner())

    def test_first_diff_to_an_uncached_sqlite_set(self, tmp_path):
        """A SQLite set the LRU cache does not hold is loaded before its
        diff is written: the apply counts what the diff changed, and the
        version moves once, in memory and on disk alike."""
        from repro.cluster.sqlite import SqliteBackend
        from repro.cluster.storage import apply_mutation

        async def inner():
            backend = SqliteBackend(tmp_path)
            store = backend.open_store()
            await apply_mutation(
                store, backend, "create", ("s", [1, 2, 3], 5)
            )
            backend.close()
            backend = SqliteBackend(tmp_path)
            store = backend.open_store()           # an empty cache
            changed = await apply_mutation(
                store, backend, "apply", ("s", [3, 4, 5], [1, 9])
            )
            cache = store.cache_stats()
            version = store.version("s")
            backend.close()
            return changed, cache, version

        changed, cache, version = asyncio.run(inner())
        assert changed == 3                        # +4, +5, -1
        assert cache["resident"] == 1
        # the apply's one lookup is the fault that loaded the set
        assert (cache["faults"], cache["hits"]) == (1, 0)
        assert version == 6
        backend = SqliteBackend(tmp_path, create=False)
        assert [
            (name, sorted(int(v) for v in values), v)
            for name, values, v in backend.iter_sets()
        ] == [("s", [2, 3, 4, 5], 6)]
        backend.close()

    def test_one_cache_lookup_per_durable_sqlite_apply(self, tmp_path):
        """A durable apply looks its set up once, before the write, so
        the SQLite cache counters behind ``set_cache`` in /metrics count
        operations: N applies to a resident set are N hits."""
        from repro.cluster.sqlite import SqliteBackend
        from repro.cluster.storage import apply_mutation

        async def inner():
            backend = SqliteBackend(tmp_path)
            store = backend.open_store()
            await apply_mutation(store, backend, "create", ("s", [1], 0))
            for i in range(10):
                await apply_mutation(
                    store, backend, "apply", ("s", [100 + i], [])
                )
            backend.close()
            return store.cache_stats()

        cache = asyncio.run(inner())
        assert (cache["hits"], cache["faults"]) == (10, 0)


class TestCloseSemantics:
    def test_close_rejects_and_drains_instead_of_stranding(
        self, tmp_path, make_cluster
    ):
        from repro.errors import ReproError

        async def inner():
            store = make_cluster(1, tmp_path)
            await store.start()
            await store.create("s", {1})
            closing = asyncio.ensure_future(store.close())
            # submissions racing with close() must fail fast, not hang
            with pytest.raises(ReproError):
                await asyncio.wait_for(
                    store.apply_diff("s", add=[2]), timeout=1.0
                )
            await closing
            # and the store restarts cleanly afterwards
            await store.start()
            assert await store.apply_diff("s", add=[3]) == 1
            await store.close()

        asyncio.run(inner())

    def test_close_before_start_is_a_safe_no_op(self, tmp_path, make_cluster):
        async def inner():
            store = make_cluster(2, tmp_path)
            await store.close()          # never started: nothing to do
            await store.close()
            # and the store still starts and works normally afterwards
            async with store:
                await store.create("s", {1})
                assert store.get("s") == {1}

        asyncio.run(inner())

    def test_double_close_is_idempotent(self, tmp_path, make_cluster):
        async def inner():
            store = make_cluster(2, tmp_path)
            await store.start()
            await store.create("s", {1, 2})
            await store.close()
            await store.close()          # second close: no double-drain,
            await store.close()          # no double-closed storage handle
            await store.start()          # and restart still works
            assert await store.apply_diff("s", add=[3]) == 1
            await store.close()

        asyncio.run(inner())

    def test_concurrent_close_calls_await_one_drain(
        self, tmp_path, make_cluster
    ):
        """Two racing close() calls must not enqueue two stop sentinels
        (a stale sentinel would make the next start()'s worker exit
        immediately, stranding every future mutation)."""

        async def inner():
            store = make_cluster(2, tmp_path)
            await store.start()
            await store.create("s", {1})
            await asyncio.gather(store.close(), store.close(), store.close())
            await store.start()
            # the restarted workers must actually serve (a leaked stop
            # sentinel would hang this await forever)
            assert await asyncio.wait_for(
                store.apply_diff("s", add=[9]), timeout=5.0
            ) == 1
            await store.close()

        asyncio.run(inner())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_close_applies_mutations_accepted_before_it(
        self, tmp_path, make_cluster, executor
    ):
        """close() drains rather than drops: every mutation that got
        past the closing check resolves with its result, and the store
        reopens with all of them."""

        async def inner():
            store = make_cluster(2, tmp_path, executor=executor)
            await store.start()
            for i, name in enumerate(NAMES):
                await store.create(name, {i})
            pending = [
                asyncio.ensure_future(store.apply_diff(name, add=[100 + i]))
                for i, name in enumerate(NAMES)
            ]
            await asyncio.sleep(0)      # every diff is queued on a worker
            await store.close()
            assert await asyncio.wait_for(
                asyncio.gather(*pending), timeout=5.0
            ) == [1] * len(NAMES)
            async with make_cluster(2, tmp_path) as again:
                for i, name in enumerate(NAMES):
                    assert again.get(name) == {i, 100 + i}
                    assert again.version(name) == 1

        asyncio.run(inner())

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_memory_only_store_restarts_empty(self, executor):
        """Without a data dir nothing outlives close(): start() after
        close() serves an empty store whose versions begin again at 0."""

        async def inner():
            store = _cluster(2, executor=executor)
            async with store:
                await store.create("s", {1, 2})
                await store.apply_diff("s", add=[3])
            async with store:
                assert store.names() == []
                await store.create("s", {4})
                assert store.get("s") == {4}
                assert store.version("s") == 0

        asyncio.run(inner())

    def test_empty_diffs_are_not_persisted(self, tmp_path, make_cluster):
        async def inner():
            async with make_cluster(1, tmp_path) as store:
                await store.create("s", {1, 2})
                before = store.cluster_stats()["per_shard"][0]
                # a converged re-sync pass: empty push, nothing to log
                assert await store.apply_diff("s", add=[], remove=[]) == 0
                after = store.cluster_stats()["per_shard"][0]
                assert after["records_appended"] == before["records_appended"]
                assert after["applies"] == before["applies"] + 1

        asyncio.run(inner())


class TestStartFailureCleanup:
    def test_partial_recovery_failure_unwinds_started_shards(
        self, tmp_path, make_cluster, corrupt_shard
    ):
        from repro.cluster import StorageCorruptError

        # lay down two healthy shards, then corrupt shard 1's base state
        store = make_cluster(2, tmp_path)
        _populate(store)
        corrupt_shard(tmp_path / "shard-01")

        async def inner():
            broken = make_cluster(2, tmp_path)
            with pytest.raises(StorageCorruptError):
                await broken.start()
            # the shard that DID start must be fully unwound: no worker
            # installed, no worker task left to be destroyed at loop
            # teardown
            assert all(sh.worker is None for sh in broken._shards)
            assert asyncio.all_tasks() == {asyncio.current_task()}
            from repro.errors import ReproError
            with pytest.raises(ReproError):
                await broken.apply_diff("set-0", add=[1])

        asyncio.run(inner())
