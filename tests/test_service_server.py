"""End-to-end service tests: real sockets, concurrent sessions.

Written against plain ``asyncio.run`` so the suite does not depend on a
pytest-asyncio plugin being installed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.errors import SerializationError
from repro.service.client import ClientConnection, sync_with_server
from repro.service.server import ReconciliationServer
from repro.workloads import SetPairGenerator


def _pair(seed: int, size: int = 2000, d: int = 24):
    pair = SetPairGenerator(universe_bits=32, seed=seed).generate(
        size_a=size, d=d
    )
    return set(pair.a), set(pair.b), pair.difference


@pytest.fixture
def server_sketches(monkeypatch) -> list[int]:
    """Sizes of the sets the server's ToW estimators sketch, in call
    order (the client's estimator is left alone)."""
    import repro.service.server as server_mod

    calls: list[int] = []

    class SpyEstimator(server_mod.ToWEstimator):
        def sketch(self, values):
            calls.append(len(values))
            return super().sketch(values)

    monkeypatch.setattr(server_mod, "ToWEstimator", SpyEstimator)
    return calls


async def _until(condition, timeout: float = 5.0) -> None:
    """Poll ``condition`` on the running loop; fail after ``timeout``."""
    async def poll():
        while not condition():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout)


class TestSingleSession:
    def test_client_learns_difference_and_server_applies_push(
        self, memory_cluster
    ):
        set_a, set_b, expected = _pair(seed=11)

        async def scenario():
            async with (
                memory_cluster({"inv": set_b}) as store,
                ReconciliationServer(store) as server,
            ):
                result = await sync_with_server(
                    "127.0.0.1", server.port, set_a, set_name="inv", seed=5
                )
            return store, server, result

        store, server, result = asyncio.run(scenario())
        assert result.success
        assert result.difference == expected
        assert store.get("inv") == set_a | set_b
        assert result.extra["applied"] == len(set_a - set_b)
        assert result.rounds >= 1
        # paper accounting intact: estimator excludable, framing separate
        labels = result.channel.bytes_by_label()
        assert labels["estimator"] > 0
        assert result.channel.framing_bytes > 0
        snapshot = server.metrics.snapshot(store.stats())
        assert snapshot["sessions"] == {
            "started": 1, "completed": 1, "failed": 0, "shed": 0,
            "active": 0, "success_rate": 1.0,
        }
        assert snapshot["rounds_total"] == result.rounds
        assert snapshot["decode_s"] > 0
        json.dumps(snapshot)  # must be a plain-JSON document

    def test_one_way_sync_leaves_store_untouched(self, memory_cluster):
        set_a, set_b, expected = _pair(seed=21)

        async def scenario():
            async with (
                memory_cluster({"inv": set_b}) as store,
                ReconciliationServer(store) as server,
            ):
                result = await sync_with_server(
                    "127.0.0.1", server.port, set_a, set_name="inv",
                    seed=5, bidirectional=False,
                )
            return store, server, result

        store, server, result = asyncio.run(scenario())
        assert result.success and result.difference == expected
        assert store.get("inv") == set_b
        assert "applied" not in result.extra
        # a clean one-way session ends with an empty PUSH, not an EOF:
        # the server must count it as completed, not failed
        assert server.metrics.sessions_completed == 1
        assert server.metrics.sessions_failed == 0

    def test_port_probe_is_not_a_session(self, memory_cluster):
        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store) as server,
            ):
                # a health check: connect, close, send nothing
                _, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return server

        server = asyncio.run(scenario())
        assert server.metrics.sessions_started == 0
        assert server.metrics.sessions_failed == 0
        assert server.metrics.active_sessions == 0

    def test_poisonous_push_is_rejected_and_store_survives(
        self, memory_cluster
    ):
        import numpy as np

        from repro.service.wire import (
            FrameType, Hello, Push, encode_frame, read_frame,
        )

        async def scenario():
            async with (
                memory_cluster({"inv": {1, 2, 3}}) as store,
                ReconciliationServer(store) as server,
            ):
                # hand-roll a session that pushes out-of-universe elements
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame(
                    FrameType.HELLO,
                    Hello(set_name="inv", seed=1).serialize(),
                ))
                await writer.drain()
                await read_frame(reader)                  # WELCOME
                import struct

                from repro.estimators.tow import ToWEstimator
                from repro.utils.seeds import derive_seed

                est = ToWEstimator(128, derive_seed(1, "estimator"), "fast")
                sketch = est.sketch(np.empty(0, dtype=np.uint64))
                writer.write(encode_frame(
                    FrameType.ESTIMATE,
                    struct.pack("<I", 0) + est.serialize(sketch, 0),
                ))
                await writer.drain()
                await read_frame(reader)                  # PARAMS
                writer.write(encode_frame(
                    FrameType.PUSH,
                    Push(
                        success=True,
                        elements=np.array([0, 1 << 33], dtype=np.uint64),
                    ).serialize(),
                ))
                await writer.drain()
                ftype, _ = await read_frame(reader)
                assert ftype is FrameType.ERROR
                writer.close()
                await writer.wait_closed()
                # the set must be untouched and still syncable
                assert store.get("inv") == {1, 2, 3}
                result = await sync_with_server(
                    "127.0.0.1", server.port, {1, 2, 3, 4}, set_name="inv",
                    seed=2,
                )
                assert result.success

        asyncio.run(scenario())

    def test_oversized_estimator_request_is_rejected(self, memory_cluster):
        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store) as server,
            ):
                with pytest.raises(
                    (SerializationError, asyncio.IncompleteReadError,
                     ConnectionError)
                ):
                    await sync_with_server(
                        "127.0.0.1", server.port, {1, 2}, set_name="s",
                        n_sketches=5000,
                    )
                return server

        server = asyncio.run(scenario())
        assert server.metrics.sessions_failed == 1

    def test_truncated_estimate_fails_session_cleanly(self, memory_cluster):
        from repro.service.wire import (
            FrameType, Hello, encode_frame, read_frame,
        )

        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store) as server,
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame(
                    FrameType.HELLO,
                    Hello(set_name="s", seed=1).serialize(),
                ))
                await writer.drain()
                await read_frame(reader)                  # WELCOME
                writer.write(encode_frame(FrameType.ESTIMATE, b"\x01"))
                await writer.drain()
                ftype, _ = await read_frame(reader)
                assert ftype is FrameType.ERROR
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return server

        server = asyncio.run(scenario())
        assert server.metrics.sessions_failed == 1
        assert server.metrics.sessions_completed == 0

    def test_hostile_estimate_gets_error_frame_and_counts_failed(
        self, memory_cluster
    ):
        """An ESTIMATE declaring |A| = 2^32 - 1 with every sketch value at
        +|A| puts d_hat near 10^19 against a 3-element set.  The design d
        is clamped to |A| + |B|; the optimizer then rejects it with a
        ParameterError, which must end the session with an ERROR frame
        (not an unhandled exception) and leave the server serving."""
        import struct

        import numpy as np

        from repro.estimators.tow import ToWEstimator
        from repro.service.wire import (
            Error, FrameType, Hello, encode_frame, read_frame,
        )
        from repro.utils.seeds import derive_seed

        size_a = 2**32 - 1

        async def scenario():
            async with (
                memory_cluster({"inv": {1, 2, 3}}) as store,
                ReconciliationServer(store) as server,
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame(
                    FrameType.HELLO,
                    Hello(set_name="inv", seed=1).serialize(),
                ))
                await writer.drain()
                await read_frame(reader)                  # WELCOME
                est = ToWEstimator(128, derive_seed(1, "estimator"), "fast")
                sketch = np.full(128, size_a, dtype=np.int64)
                writer.write(encode_frame(
                    FrameType.ESTIMATE,
                    struct.pack("<I", size_a) + est.serialize(sketch, size_a),
                ))
                await writer.drain()
                ftype, payload = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                result = await sync_with_server(
                    "127.0.0.1", server.port, {1, 2, 3, 4}, set_name="inv",
                    seed=2,
                )
                return server, ftype, payload, result

        server, ftype, payload, result = asyncio.run(scenario())
        assert ftype is FrameType.ERROR
        # the optimizer saw the clamped design d = |A| + |B|
        assert f"d={size_a + 3}" in Error.deserialize(payload).message
        errors = [
            s["error"] for s in server.metrics.snapshot()["recent_sessions"]
        ]
        assert any(e.startswith("ParameterError") for e in errors)
        assert server.metrics.sessions_failed == 1
        assert result.success
        assert server.metrics.sessions_completed == 1

    def test_server_sketches_b_before_the_estimate(
        self, memory_cluster, server_sketches
    ):
        """Bob's ToW sketch runs once WELCOME is out, while the client is
        still to send its ESTIMATE, and the ESTIMATE reuses it."""
        set_a, set_b, expected = _pair(seed=13)

        async def scenario():
            async with (
                memory_cluster({"inv": set_b}) as store,
                ReconciliationServer(store) as server,
            ):
                # HELLO sent and WELCOME read; no ESTIMATE yet
                async with ClientConnection(
                    "127.0.0.1", server.port, set_name="inv", seed=4
                ) as conn:
                    await _until(lambda: server_sketches)
                    result = await conn.sync(set_a)
            return result

        result = asyncio.run(scenario())
        assert result.success and result.difference == expected
        assert server_sketches == [len(set_b)]

    def test_hello_then_eof_fails_and_releases_the_slot(
        self, memory_cluster, server_sketches
    ):
        """A client that hangs up after WELCOME costs one sketch, counts
        as failed and gives its admission slot back."""
        from repro.cluster.admission import AdmissionController
        from repro.service.wire import (
            FrameType, Hello, encode_frame, read_frame,
        )

        async def scenario():
            admission = AdmissionController(shards=1, max_sessions=1)
            async with (
                memory_cluster({"inv": {1, 2, 3}}) as store,
                ReconciliationServer(store, admission=admission) as server,
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame(
                    FrameType.HELLO,
                    Hello(set_name="inv", seed=1).serialize(),
                ))
                await writer.drain()
                ftype, _ = await read_frame(reader)
                assert ftype is FrameType.WELCOME
                writer.close()
                await writer.wait_closed()
                await _until(lambda: server.metrics.sessions_failed == 1)
                # a leaked slot would shed this one (max_sessions=1)
                result = await sync_with_server(
                    "127.0.0.1", server.port, {1, 2, 3, 4}, set_name="inv",
                    seed=2, retries=0,
                )
            return server, admission, result

        server, admission, result = asyncio.run(scenario())
        assert result.success
        assert server.metrics.sessions_failed == 1
        assert server.metrics.sessions_completed == 1
        assert admission.stats()["per_shard"][0]["active"] == 0
        assert server_sketches == [3, 3]

    def test_garbage_hello_fails_session_cleanly(self, memory_cluster):
        from repro.service.wire import FrameType, encode_frame, read_frame

        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store) as server,
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # HELLO frame whose payload is far too short for the format
                writer.write(encode_frame(FrameType.HELLO, b"\x01\x02"))
                await writer.drain()
                ftype, payload = await read_frame(reader)
                assert ftype is FrameType.ERROR
                writer.close()
                await writer.wait_closed()
                # the server, not the connection task, must survive: a
                # normal sync on the same server still works
                result = await sync_with_server(
                    "127.0.0.1", server.port, {1, 2, 3}, set_name="s",
                    seed=1,
                )
                assert result.success
                return server

        server = asyncio.run(scenario())
        assert server.metrics.sessions_failed == 1
        assert server.metrics.sessions_completed == 1

    def test_unknown_set_rejected_when_create_missing_off(
        self, memory_cluster
    ):
        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store, create_missing=False) as server,
            ):
                with pytest.raises(
                    (SerializationError, asyncio.IncompleteReadError,
                     ConnectionError)
                ):
                    await sync_with_server(
                        "127.0.0.1", server.port, {1, 2}, set_name="ghost"
                    )
                return server

        server = asyncio.run(scenario())
        assert server.metrics.sessions_failed == 1

    def test_sync_against_empty_autocreated_set(self, memory_cluster):
        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store) as server,
            ):
                result = await sync_with_server(
                    "127.0.0.1", server.port, {5, 6, 7}, set_name="new",
                    seed=1,
                )
            return store, result

        store, result = asyncio.run(scenario())
        assert result.success
        assert result.difference == frozenset({5, 6, 7})
        assert store.get("new") == {5, 6, 7}


class TestConcurrentSessions:
    N = 6

    def test_many_clients_distinct_sets(self, memory_cluster):
        pairs = [_pair(seed=100 + i, d=10) for i in range(self.N)]

        async def scenario():
            sets = {f"s{i}": set_b for i, (_, set_b, _) in enumerate(pairs)}
            async with (
                memory_cluster(sets) as store,
                ReconciliationServer(store) as server,
            ):
                results = await asyncio.gather(
                    *[
                        sync_with_server(
                            "127.0.0.1", server.port, pairs[i][0],
                            set_name=f"s{i}", seed=i + 1,
                        )
                        for i in range(self.N)
                    ]
                )
            return store, server, results

        store, server, results = asyncio.run(scenario())
        for i, result in enumerate(results):
            set_a, set_b, expected = pairs[i]
            assert result.success
            assert result.difference == expected
            assert store.get(f"s{i}") == set_a | set_b
        stats = server.coalescer.stats
        assert stats.submissions >= self.N
        # concurrency must actually have been coalesced into shared batches
        assert stats.coalesced_batches >= 1
        assert stats.max_sessions_per_batch >= 2
        assert server.metrics.sessions_completed == self.N

    def test_lone_session_skips_the_decode_window(self, memory_cluster):
        set_a, set_b, expected = _pair(seed=17)

        async def scenario():
            async with (
                memory_cluster({"inv": set_b}, worker_window_s=30.0) as store,
                ReconciliationServer(store) as server,
            ):
                result = await asyncio.wait_for(
                    sync_with_server(
                        "127.0.0.1", server.port, set_a, set_name="inv",
                        seed=3,
                    ),
                    timeout=10.0,
                )
            return server, result

        server, result = asyncio.run(scenario())
        assert result.success and result.difference == expected
        assert server.coalescer.stats.batches >= 1
        assert server.coalescer.stats.coalesced_batches == 0

    def test_two_concurrent_sessions_share_a_batch(self, memory_cluster):
        """Neither of two open connections is lone: identical pairs (same
        codec shape) synced at once meet in one window."""
        set_a, set_b, expected = _pair(seed=19, d=10)

        async def scenario():
            async with (
                memory_cluster(
                    {"s0": set_b, "s1": set_b}, worker_window_s=0.2
                ) as store,
                ReconciliationServer(store) as server,
            ):
                results = await asyncio.gather(*[
                    sync_with_server(
                        "127.0.0.1", server.port, set_a, set_name=name,
                        seed=1,
                    )
                    for name in ("s0", "s1")
                ])
            return server, results

        server, results = asyncio.run(scenario())
        for result in results:
            assert result.success and result.difference == expected
        assert server.coalescer.stats.coalesced_batches >= 1

    def test_two_clients_same_set_converge_after_second_pass(
        self, memory_cluster
    ):
        base = set(range(1, 1500))
        a1 = base | {100_001, 100_002}
        a2 = base | {200_001}

        async def scenario():
            async with (
                memory_cluster({"shared": base}) as store,
                ReconciliationServer(store) as server,
            ):
                # pass 1: both snapshot the same base concurrently
                await asyncio.gather(
                    sync_with_server("127.0.0.1", server.port, a1,
                                     set_name="shared", seed=1),
                    sync_with_server("127.0.0.1", server.port, a2,
                                     set_name="shared", seed=2),
                )
                union = base | a1 | a2
                assert store.get("shared") == union
                # pass 2: each client pulls what the other pushed
                r1, r2 = await asyncio.gather(
                    sync_with_server("127.0.0.1", server.port, a1,
                                     set_name="shared", seed=3),
                    sync_with_server("127.0.0.1", server.port, a2,
                                     set_name="shared", seed=4),
                )
                assert a1 | r1.difference == union
                assert a2 | r2.difference == union

        asyncio.run(scenario())

    def test_version_exposes_concurrent_races(self, memory_cluster):
        """The convergence signal: each racer sees the other's apply in
        the final store version, and a quiet second pass leaves it put."""
        base = set(range(1, 1200))
        a1 = base | {700_001}
        a2 = base | {800_001}

        async def scenario():
            async with (
                memory_cluster({"shared": base}) as store,
                ReconciliationServer(store) as server,
            ):
                r1, r2 = await asyncio.gather(
                    sync_with_server("127.0.0.1", server.port, a1,
                                     set_name="shared", seed=1),
                    sync_with_server("127.0.0.1", server.port, a2,
                                     set_name="shared", seed=2),
                )
                # both snapshotted version 0; two mutating applies landed
                assert r1.extra["snapshot_version"] == 0
                assert r2.extra["snapshot_version"] == 0
                assert max(
                    r1.extra["store_version"], r2.extra["store_version"]
                ) == 2
                # second pass: nothing left to push, version holds still
                r3 = await sync_with_server(
                    "127.0.0.1", server.port, a1 | r1.difference,
                    set_name="shared", seed=3,
                )
                assert r3.extra["applied"] == 0
                assert r3.extra["snapshot_version"] == 2
                assert r3.extra["store_version"] == 2
                assert store.version("shared") == 2

        asyncio.run(scenario())

    def test_per_session_fallback_still_converges(self, memory_cluster):
        set_a, set_b, expected = _pair(seed=31)

        async def scenario():
            async with (
                memory_cluster({"inv": set_b}, worker_window_s=0) as store,
                ReconciliationServer(store) as server,
            ):
                result = await sync_with_server(
                    "127.0.0.1", server.port, set_a, set_name="inv", seed=9
                )
                return server, result

        server, result = asyncio.run(scenario())
        assert result.success and result.difference == expected
        assert server.coalescer.stats.coalesced_batches == 0


class TestRepeatSync:
    """Long-lived connections: many reconciliation passes, one handshake."""

    def test_three_passes_reuse_one_connection(self, memory_cluster):
        base = set(range(1, 1000))

        async def scenario():
            async with (
                memory_cluster({"inv": base}) as store,
                ReconciliationServer(store) as server,
            ):
                async with ClientConnection(
                    "127.0.0.1", server.port, set_name="inv", seed=9
                ) as conn:
                    values = base | {500_001, 500_002}
                    r1 = await conn.sync(values)
                    assert r1.success
                    assert r1.extra["pass_no"] == 1
                    assert r1.extra["applied"] == 2
                    # a third party pushes between our passes
                    await sync_with_server(
                        "127.0.0.1", server.port, base | {600_001},
                        set_name="inv", seed=10,
                    )
                    r2 = await conn.sync(values)
                    assert r2.success
                    assert r2.extra["pass_no"] == 2
                    assert r2.difference == frozenset({600_001})
                    assert r2.extra["applied"] == 0
                    # pass 3 from the merged view: fully converged
                    r3 = await conn.sync(values | r2.difference)
                    assert r3.extra["pass_no"] == 3
                    assert r3.difference == frozenset()
                    assert (
                        r3.extra["snapshot_version"]
                        == r3.extra["store_version"]
                        == r2.extra["store_version"]
                    )
                    assert conn.passes == 3
                await asyncio.sleep(0.05)   # let the server see the EOF
                # the server saw ONE connection carrying three passes
                assert server.metrics.sessions_completed == 2  # conn + helper
                recent = server.metrics.snapshot()["recent_sessions"]
                multi = [s for s in recent if s["syncs"] == 3]
                assert len(multi) == 1
            return store

        store = asyncio.run(scenario())
        assert store.get("inv") == base | {500_001, 500_002, 600_001}

    def test_repeat_pass_resketches_only_a_moved_set(
        self, memory_cluster, server_sketches
    ):
        base = set(range(1, 1000))

        async def scenario():
            async with (
                memory_cluster({"inv": base}) as store,
                ReconciliationServer(store) as server,
            ):
                async with ClientConnection(
                    "127.0.0.1", server.port, set_name="inv", seed=5
                ) as conn:
                    r1 = await conn.sync(base)
                    r2 = await conn.sync(base)
                    assert server_sketches == [len(base)]
                    await store.apply_diff("inv", add=[5_000_001])
                    r3 = await conn.sync(base)
                    assert server_sketches == [len(base), len(base) + 1]
            return r1, r2, r3

        r1, r2, r3 = asyncio.run(scenario())
        assert r1.success and r2.success and r3.success
        assert r1.difference == r2.difference == frozenset()
        assert r3.difference == frozenset({5_000_001})

    def test_per_pass_byte_accounting_is_fresh(self, memory_cluster):
        base = set(range(1, 800))

        async def scenario():
            async with (
                memory_cluster({"inv": base}) as store,
                ReconciliationServer(store) as server,
            ):
                async with ClientConnection(
                    "127.0.0.1", server.port, set_name="inv", seed=3
                ) as conn:
                    r1 = await conn.sync(base | {91_001})
                    r2 = await conn.sync(base | {91_001})
                    # each result's channel covers only its own pass —
                    # totals must not accumulate across passes
                    assert r1.channel is not r2.channel
                    assert r2.total_bytes < r1.total_bytes * 3
                    for r in (r1, r2):
                        assert r.channel.bytes_by_label()["estimator"] > 0

        asyncio.run(scenario())

    def test_two_repeat_clients_converge_same_set(self, memory_cluster):
        """The ISSUE's convergence drill, on persistent connections."""
        base = set(range(1, 1500))
        a1 = base | {100_001, 100_002}
        a2 = base | {200_001}

        async def scenario():
            async with (
                memory_cluster({"shared": base}) as store,
                ReconciliationServer(store) as server,
            ):
                async with ClientConnection(
                    "127.0.0.1", server.port, set_name="shared", seed=1
                ) as c1, ClientConnection(
                    "127.0.0.1", server.port, set_name="shared", seed=2
                ) as c2:
                    view1, view2 = set(a1), set(a2)
                    rounds = 0
                    while True:
                        rounds += 1
                        r1, r2 = await asyncio.gather(
                            c1.sync(view1), c2.sync(view2)
                        )
                        view1 |= r1.difference
                        view2 |= r2.difference
                        if (
                            not r1.difference
                            and not r2.difference
                            and r1.extra["applied"] == 0
                            and r2.extra["applied"] == 0
                        ):
                            break
                        assert rounds < 5
                    union = base | a1 | a2
                    assert view1 == view2 == union
                    assert store.get("shared") == union
                    # exactly three passes: merge, pull the other's push,
                    # verify nothing moved
                    assert rounds == 3

        asyncio.run(scenario())
