"""The decode coalescer must batch across sessions without changing results."""

from __future__ import annotations

import asyncio

import pytest

from repro.bch.codec import BCHCodec
from repro.gf import field_for
from repro.service.scheduler import DecodeCoalescer


@pytest.fixture(scope="module")
def codec() -> BCHCodec:
    return BCHCodec(field_for(7), t=5)


def _deltas(codec: BCHCodec, element_sets: list[list[int]]) -> list[list[int]]:
    return [codec.sketch(elements) for elements in element_sets]


ELEMENT_SETS = [[3, 77], [15], [9, 10, 11], []]
OVERFLOW = list(range(1, 10))  # > t elements: must decode to None


class TestCoalescedDecode:
    def test_concurrent_submissions_share_one_batch(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.01)
            jobs = [
                coalescer.decode(codec, _deltas(codec, [els, OVERFLOW]))
                for els in ELEMENT_SETS
            ]
            results = await asyncio.gather(*jobs)
            return coalescer, results

        coalescer, results = asyncio.run(scenario())
        for els, (decoded, share) in zip(ELEMENT_SETS, results):
            assert decoded == [sorted(els), None]
            assert share >= 0.0
        assert coalescer.stats.batches == 1
        assert coalescer.stats.coalesced_batches == 1
        assert coalescer.stats.max_sessions_per_batch == len(ELEMENT_SETS)
        assert coalescer.stats.groups == 2 * len(ELEMENT_SETS)

    def test_results_match_direct_decode(self, codec):
        deltas = _deltas(codec, ELEMENT_SETS + [OVERFLOW])
        direct = codec.decode_many(deltas)

        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.005)
            # split the same work across three "sessions"
            jobs = [
                coalescer.decode(codec, deltas[:2]),
                coalescer.decode(codec, deltas[2:4]),
                coalescer.decode(codec, deltas[4:]),
            ]
            parts = await asyncio.gather(*jobs)
            return [row for part, _ in parts for row in part]

        assert asyncio.run(scenario()) == direct

    def test_single_session_window_falls_back(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.001)
            decoded, _ = await coalescer.decode(
                codec, _deltas(codec, [[5, 6]])
            )
            return coalescer, decoded

        coalescer, decoded = asyncio.run(scenario())
        assert decoded == [[5, 6]]
        assert coalescer.stats.batches == 1
        assert coalescer.stats.coalesced_batches == 0
        assert coalescer.stats.max_sessions_per_batch == 1

    def test_disabled_coalescer_decodes_inline(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0)
            decoded, seconds = await coalescer.decode(
                codec, _deltas(codec, [[42]])
            )
            assert coalescer.stats.batches == 1
            return decoded, seconds

        decoded, seconds = asyncio.run(scenario())
        assert decoded == [[42]]
        assert seconds > 0.0

    def test_zero_window_never_merges_concurrent_sessions(self, codec):
        """``window_s=0`` is the coalescing off-switch: concurrent
        submissions each decode in a batch of their own."""
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0)
            jobs = [
                coalescer.decode(codec, _deltas(codec, [els, OVERFLOW]))
                for els in ELEMENT_SETS
            ]
            return coalescer, await asyncio.gather(*jobs)

        coalescer, results = asyncio.run(scenario())
        assert not coalescer.enabled
        assert DecodeCoalescer().enabled
        for els, (decoded, _) in zip(ELEMENT_SETS, results):
            assert decoded == [sorted(els), None]
        assert coalescer.stats.batches == len(ELEMENT_SETS)
        assert coalescer.stats.coalesced_batches == 0
        assert coalescer.stats.max_sessions_per_batch == 1

    def test_empty_submission_short_circuits(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer()
            return await coalescer.decode(codec, [])

        assert asyncio.run(scenario()) == ([], 0.0)

    def test_mixed_shapes_do_not_merge(self, codec):
        other = BCHCodec(field_for(8), t=5)

        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.01)
            (r1, _), (r2, _) = await asyncio.gather(
                coalescer.decode(codec, _deltas(codec, [[3, 4]])),
                coalescer.decode(other, _deltas(other, [[200, 201]])),
            )
            return coalescer, r1, r2

        coalescer, r1, r2 = asyncio.run(scenario())
        assert r1 == [[3, 4]]
        assert r2 == [[200, 201]]
        assert coalescer.stats.batches == 2
        assert coalescer.stats.coalesced_batches == 0

    def test_share_attribution_sums_to_batch_time(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.01)
            jobs = [
                coalescer.decode(codec, _deltas(codec, [els]))
                for els in ELEMENT_SETS
            ]
            results = await asyncio.gather(*jobs)
            return coalescer, sum(share for _, share in results)

        coalescer, total_share = asyncio.run(scenario())
        assert total_share == pytest.approx(coalescer.stats.decode_s)


class TestLoneSubmission:
    """``lone``: the submitter is the server's only open connection."""

    def test_lone_submission_decodes_without_a_window(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=30.0)
            decoded, _ = await asyncio.wait_for(
                coalescer.decode(codec, _deltas(codec, [[5, 6]]), lone=True),
                timeout=5.0,
            )
            return coalescer, decoded

        coalescer, decoded = asyncio.run(scenario())
        assert decoded == [[5, 6]]
        assert coalescer.stats.batches == 1
        assert coalescer.stats.coalesced_batches == 0

    def test_lone_submission_joins_an_open_window(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.05)
            first = asyncio.create_task(
                coalescer.decode(codec, _deltas(codec, [[3, 4]]))
            )
            await asyncio.sleep(0)   # the first submission opens the window
            lone = await coalescer.decode(
                codec, _deltas(codec, [[9]]), lone=True
            )
            return coalescer, await first, lone

        coalescer, (r1, _), (r2, _) = asyncio.run(scenario())
        assert (r1, r2) == ([[3, 4]], [[9]])
        assert coalescer.stats.batches == 1
        assert coalescer.stats.coalesced_batches == 1
