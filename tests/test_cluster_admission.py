"""Admission control: caps, RETRY shedding, client backoff-and-retry."""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.cluster.admission import AdmissionController
from repro.service.client import sync_with_server
from repro.service.server import ReconciliationServer
from repro.service.wire import ServerBusy, retry_delay
from repro.workloads import SetPairGenerator


class TestController:
    def test_admit_until_cap_then_shed(self):
        adm = AdmissionController(shards=1, max_sessions=2, retry_after_s=0.1)
        assert adm.try_admit(0) is None
        assert adm.try_admit(0) is None
        hint = adm.try_admit(0)
        assert hint is not None and hint >= 0.1
        adm.release(0)
        assert adm.try_admit(0) is None
        stats = adm.stats()
        assert stats["shed_total"] == 1
        assert stats["per_shard"][0]["peak"] == 2

    def test_caps_are_per_shard(self):
        adm = AdmissionController(shards=2, max_sessions=1)
        assert adm.try_admit(0) is None
        assert adm.try_admit(1) is None      # other shard unaffected
        assert adm.try_admit(0) is not None

    def test_unlimited_by_default(self):
        adm = AdmissionController(shards=1)
        for _ in range(100):
            assert adm.try_admit(0) is None
        assert adm.total_shed == 0

    def test_decode_queue_backpressure(self):
        async def inner():
            adm = AdmissionController(shards=1, max_decode_queue=1)
            order = []

            async def job(tag, hold_s):
                async with adm.decode_slot(0):
                    order.append(tag)
                    await asyncio.sleep(hold_s)

            await asyncio.gather(job("a", 0.02), job("b", 0.0))
            assert order == ["a", "b"]       # b waited for a's slot
            assert adm.stats()["per_shard"][0]["decode_peak"] == 2

        asyncio.run(inner())

    def test_saturated_decode_queue_sheds_new_sessions(self):
        async def inner():
            adm = AdmissionController(
                shards=1, max_sessions=10, max_decode_queue=1
            )
            entered = asyncio.Event()
            release = asyncio.Event()

            async def hog():
                async with adm.decode_slot(0):
                    entered.set()
                    await release.wait()

            task = asyncio.create_task(hog())
            await entered.wait()
            assert adm.try_admit(0) is not None   # decode queue saturated
            release.set()
            await task

        asyncio.run(inner())

    def test_failed_decode_returns_its_slot(self):
        """A decode that raises inside its slot still frees it: the
        shard's queue count drops back, the next decode gets the slot at
        once, and new sessions are not shed as if the queue were full."""

        async def inner():
            adm = AdmissionController(shards=2, max_decode_queue=1)
            with pytest.raises(RuntimeError):
                async with adm.decode_slot(1):
                    raise RuntimeError("decode failed")
            assert adm.stats()["per_shard"][1]["decode_waiting"] == 0
            assert adm.try_admit(1) is None

            async def decode_again():
                async with adm.decode_slot(1):
                    return "decoded"

            assert await asyncio.wait_for(decode_again(), 1.0) == "decoded"

        asyncio.run(inner())

    def test_retry_delay_jitter_and_growth(self):
        rng = random.Random(7)
        delays = [retry_delay(0.05, attempt, rng) for attempt in range(4)]
        for attempt, delay in enumerate(delays):
            base = 0.05 * (2 ** attempt)
            assert 0.5 * base <= delay <= 1.5 * min(base, 2.0) + 1e-9
        assert delays[2] > delays[0]         # growth dominates jitter


class TestServerSheds:
    def _pair(self, seed):
        pair = SetPairGenerator(universe_bits=32, seed=seed).generate(
            size_a=900, d=12
        )
        return set(pair.a), set(pair.b), pair.difference

    def test_over_cap_session_gets_retry_frame(self, memory_cluster):
        set_a, set_b, _ = self._pair(seed=41)

        async def scenario():
            admission = AdmissionController(
                shards=1, max_sessions=1, retry_after_s=0.02
            )
            async with (
                memory_cluster({"inv": set_b}) as store,
                ReconciliationServer(store, admission=admission) as server,
            ):
                # occupy the only slot with a slow half-open session
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                from repro.service.wire import FrameType, Hello, encode_frame

                writer.write(encode_frame(
                    FrameType.HELLO,
                    Hello(set_name="inv", seed=1).serialize(),
                ))
                await writer.drain()
                await asyncio.sleep(0.05)    # let the server admit it
                with pytest.raises(ServerBusy) as excinfo:
                    await sync_with_server(
                        "127.0.0.1", server.port, set_a, set_name="inv",
                        seed=2, retries=0,
                    )
                assert excinfo.value.retry_after_s > 0
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return server, admission

        server, admission = asyncio.run(scenario())
        assert admission.total_shed == 1
        assert server.metrics.sessions_shed == 1
        # a shed session is neither a failure nor a completion
        assert server.metrics.sessions_failed == 1   # the hung-up holder
        assert server.metrics.sessions_completed == 0

    def test_client_retries_through_overload(self, memory_cluster):
        pairs = [self._pair(seed=50 + i) for i in range(4)]

        async def scenario():
            sets = {f"s{i}": set_b for i, (_, set_b, _) in enumerate(pairs)}
            admission = AdmissionController(
                shards=1, max_sessions=1, retry_after_s=0.01
            )
            async with (
                memory_cluster(sets) as store,
                ReconciliationServer(store, admission=admission) as server,
            ):
                results = await asyncio.gather(
                    *[
                        sync_with_server(
                            "127.0.0.1", server.port, pairs[i][0],
                            set_name=f"s{i}", seed=i + 1, retries=20,
                        )
                        for i in range(len(pairs))
                    ]
                )
            return store, admission, results

        store, admission, results = asyncio.run(scenario())
        for i, result in enumerate(results):
            set_a, set_b, expected = pairs[i]
            assert result.success
            assert result.difference == expected
            assert store.get(f"s{i}") == set_a | set_b
        # with one slot and four clients, shedding must actually have
        # happened — the fleet converged *through* RETRY, not around it
        assert admission.total_shed >= 1

    def test_shed_session_reported_in_metrics_snapshot(self, memory_cluster):
        async def scenario():
            admission = AdmissionController(shards=1, max_sessions=0)
            # cap of 0 means unlimited: nothing sheds
            async with (
                memory_cluster() as store,
                ReconciliationServer(store, admission=admission) as server,
            ):
                await sync_with_server(
                    "127.0.0.1", server.port, {1, 2, 3}, set_name="s"
                )
            return server

        server = asyncio.run(scenario())
        snap = server.metrics.snapshot()
        assert snap["sessions"]["shed"] == 0
        assert snap["sessions"]["completed"] == 1
        assert snap["by_shard"]["0"]["completed"] == 1


    def test_admission_must_match_the_store_shard_count(
        self, memory_cluster
    ):
        """Caps are kept per store shard, so a controller sized for
        another shard count is refused when the server is built."""
        async def scenario():
            async with memory_cluster(shards=2) as store:
                with pytest.raises(ValueError, match="store has 2"):
                    ReconciliationServer(
                        store, admission=AdmissionController(shards=3)
                    )
                server = ReconciliationServer(
                    store, admission=AdmissionController(shards=2)
                )
                assert server.admission.shards == store.n_shards

        asyncio.run(scenario())


class TestIdleConnectionsDoNotPinCapacity:
    def test_slot_released_between_passes_and_reacquired(
        self, memory_cluster
    ):
        from repro.service.client import ClientConnection

        base = set(range(1, 600))

        async def scenario():
            admission = AdmissionController(
                shards=1, max_sessions=1, retry_after_s=0.01
            )
            async with (
                memory_cluster({"a": base, "b": base}) as store,
                ReconciliationServer(store, admission=admission) as server,
            ):
                async with ClientConnection(
                    "127.0.0.1", server.port, set_name="a", seed=1
                ) as conn:
                    r1 = await conn.sync(base | {70_001})
                    assert r1.success
                    await asyncio.sleep(0.05)   # connection idles
                    # the single slot must be free for someone else even
                    # though the repeat connection is still open
                    other = await sync_with_server(
                        "127.0.0.1", server.port, base | {80_001},
                        set_name="b", seed=2, retries=0,
                    )
                    assert other.success
                    # and the idle connection re-admits for its next pass
                    r2 = await conn.sync(base | {70_001})
                    assert r2.success and r2.extra["applied"] == 0
            return admission

        admission = asyncio.run(scenario())
        assert admission.total_shed == 0
        # one slot served three passes of work, strictly one at a time
        assert admission.stats()["per_shard"][0]["peak"] == 1
        assert admission.stats()["per_shard"][0]["admitted"] == 3
