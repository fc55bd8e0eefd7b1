"""The decode coalescer must batch across sessions without changing results."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.bch.batch import Decoded
from repro.bch.codec import BCHCodec
from repro.gf import field_for
from repro.service.scheduler import DecodeCoalescer


@pytest.fixture(scope="module")
def codec() -> BCHCodec:
    return BCHCodec(field_for(7), t=5)


def _deltas(codec: BCHCodec, element_sets: list[list[int]]) -> np.ndarray:
    """A session's ``(groups, t)`` delta array, one row per element set."""
    return np.array(
        [codec.sketch(elements) for elements in element_sets], dtype=np.int64
    ).reshape(-1, codec.t)


def _same(got: Decoded, want: Decoded) -> bool:
    """Packed results equal field by field, shapes included."""
    return all(np.array_equal(a, b) for a, b in zip(got, want))


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
            assert decoded.tolist() == [sorted(els), None]
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
            return [part for part, _ in await asyncio.gather(*jobs)]

        parts = asyncio.run(scenario())
        for (start, stop), part in zip([(0, 2), (2, 4), (4, 5)], parts):
            assert _same(part, direct.slice(start, stop))
        assert [row for part in parts for row in part.tolist()] == (
            direct.tolist()
        )

    def test_two_sessions_merge_into_one_decode_many(self, codec, monkeypatch):
        """Two sessions' arrays reach the engine as one concatenated
        matrix, and each session gets back exactly its own rows."""
        first = _deltas(codec, [[3, 77], OVERFLOW, []])
        second = _deltas(codec, [[15], [9, 10, 11], OVERFLOW, [1, 2], [4]])
        calls: list[np.ndarray] = []
        decode_many = BCHCodec.decode_many

        def spy(self, sketches, **kw):
            calls.append(sketches)
            return decode_many(self, sketches, **kw)

        monkeypatch.setattr(BCHCodec, "decode_many", spy)

        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.01)
            return await asyncio.gather(
                coalescer.decode(codec, first), coalescer.decode(codec, second)
            )

        (got1, _), (got2, _) = asyncio.run(scenario())
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.concatenate([first, second]))
        assert _same(got1, decode_many(codec, first))
        assert _same(got2, decode_many(codec, second))
        assert got1.tolist() == [[3, 77], None, []]
        assert got2.tolist() == [[15], [9, 10, 11], None, [1, 2], [4]]

    def test_list_submissions_come_back_as_lists(self, codec):
        """Lists of sketches decode like ``BCHCodec.decode_many`` does
        them: merged into one batch, each returned as element lists."""
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.01)
            results = await asyncio.gather(
                coalescer.decode(codec, [codec.sketch([3, 77])]),
                coalescer.decode(codec, [codec.sketch(OVERFLOW)]),
                coalescer.decode(codec, []),
            )
            return coalescer, [decoded for decoded, _ in results]

        coalescer, results = asyncio.run(scenario())
        assert results == [[[3, 77]], [None], []]
        assert coalescer.stats.coalesced_batches == 1

    def test_single_session_window_falls_back(self, codec):
        async def scenario():
            coalescer = DecodeCoalescer(window_s=0.001)
            decoded, _ = await coalescer.decode(
                codec, _deltas(codec, [[5, 6]])
            )
            return coalescer, decoded

        coalescer, decoded = asyncio.run(scenario())
        assert decoded.tolist() == [[5, 6]]
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
        assert decoded.tolist() == [[42]]
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
            assert decoded.tolist() == [sorted(els), None]
        assert coalescer.stats.batches == len(ELEMENT_SETS)
        assert coalescer.stats.coalesced_batches == 0
        assert coalescer.stats.max_sessions_per_batch == 1

    def test_empty_submission_short_circuits(self, codec):
        """A ``(0, t)`` array returns at once, without a window (30 s
        here) and without a decode call."""
        async def scenario():
            coalescer = DecodeCoalescer(window_s=30.0)
            result = await asyncio.wait_for(
                coalescer.decode(codec, _deltas(codec, [])), timeout=5.0
            )
            return coalescer, result

        coalescer, (decoded, seconds) = asyncio.run(scenario())
        assert seconds == 0.0
        assert decoded.tolist() == []
        assert decoded.elements.shape == (0, codec.t)
        assert coalescer.stats.submissions == 1
        assert coalescer.stats.batches == 0

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
        assert r1.tolist() == [[3, 4]]
        assert r2.tolist() == [[200, 201]]
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
        assert decoded.tolist() == [[5, 6]]
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
        assert (r1.tolist(), r2.tolist()) == ([[3, 4]], [[9]])
        assert coalescer.stats.batches == 1
        assert coalescer.stats.coalesced_batches == 1
