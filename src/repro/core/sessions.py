"""Alice's and Bob's PBS state machines.

One *round* (§2.4, §3.3) is a single exchange:

1. Alice partitions each pending unit's working set into n bins with a
   fresh per-round hash, builds the parity bitmap, and sends its BCH
   sketch (:class:`~repro.core.messages.SketchMessage`).
2. Bob does the same over his (static) set, XORs the sketches, BCH-decodes the
   difference positions, and replies with positions + his bin XOR sums
   (+ the unit checksum on first contact); on a decoding failure he flags
   the unit, which both sides then split three ways (§3.2).
3. Alice recovers candidate elements (Procedure 1 per position), applies
   Procedure 3's sub-universe check plus the unit-membership constraints,
   folds survivors into her working set, and verifies the §2.2.3 checksum.
   Verified units retire; the rest continue into the next round.

Alice's working set evolves as ``A -> A xor D_hat_1 -> ...`` (§2.4); the
final per-unit difference is ``original xor working`` once the checksum
certifies ``working == B_u``, so fake elements that sneaked in are
automatically corrected by later rounds.

Both sides keep their pending-unit lists in lockstep: failed units are
deterministically replaced by their three split children; surviving OK
units continue iff Alice's continuation bit says the checksum still
mismatches.  No unit identities travel on the wire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.checksum import set_checksum
from repro.core.elements import element_array
from repro.core.messages import ReplyMessage, SketchMessage, UnitReply
from repro.core.params import PBSParams
from repro.core.partition import (
    bin_indices,
    bin_tables,
    group_indices,
    parity_positions,
    split_by_hash,
)
from repro.core.units import SPLIT_WAYS, MembershipConstraint, UnitId
from repro.errors import ParameterError, SerializationError
from repro.hashing.families import SaltedHash
from repro.utils.seeds import derive_seed


def _as_element_array(values, log_u: int) -> np.ndarray:
    """``values`` as an element array (:mod:`repro.core.elements`),
    checked against the universe ``[1, 2^log_u)``."""
    arr = element_array(values)
    if len(arr) and (int(arr[0]) < 1 or int(arr[-1]) >= (1 << log_u)):
        raise ParameterError(
            f"elements must be in [1, 2^{log_u}) — the all-zero element is "
            "excluded from the universe (§2.1)"
        )
    return arr


def _partition_by_group(arr: np.ndarray, salt: int, g: int) -> list[np.ndarray]:
    """Split an element array into its g group arrays (each still sorted)
    with one vectorized pass."""
    if len(arr) == 0:
        return [arr] * g
    gidx = group_indices(arr, salt, g)
    if g <= 1 << 16:
        gidx = gidx.astype(np.uint16)   # stable argsort is a radix sort
    sorted_arr = arr[np.argsort(gidx, kind="stable")]
    bounds = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(np.bincount(gidx, minlength=g), out=bounds[1:])
    return [sorted_arr[bounds[i] : bounds[i + 1]] for i in range(g)]


@dataclass
class _AliceUnit:
    uid: UnitId
    constraints: list[MembershipConstraint]
    original: np.ndarray
    working: np.ndarray
    b_checksum: int | None = None
    # per-round scratch (bin XOR table for candidate recovery)
    xors: np.ndarray | None = field(default=None, repr=False)


@dataclass
class _BobUnit:
    uid: UnitId
    constraints: list[MembershipConstraint]
    values: np.ndarray
    fresh: bool = True
    last_failed: bool = False
    split_salt: int = 0


@dataclass
class BobRoundWork:
    """Bob's encode output for one round, awaiting the BCH decode.

    Produced by :meth:`BobSession.begin_reply`; the (possibly externally
    batched) decode of :attr:`deltas` is handed back to
    :meth:`BobSession.finish_reply`.  Splitting the round this way lets a
    server coalesce decode work from many concurrent sessions into one
    cross-session ``decode_many`` call.
    """

    round_no: int
    deltas: list[list[int]]          #: per-unit XOR of Alice's and Bob's sketches
    xors_b: list[np.ndarray] = field(repr=False, default_factory=list)


class AliceSession:
    """Alice's side: holds A, learns A xor B.

    ``split_ways`` and ``membership_check`` exist for the ablation studies
    (§3.2's three-way-vs-two-way argument and Procedure 3's fake-element
    defense); production use keeps the defaults.
    """

    def __init__(
        self,
        values,
        params: PBSParams,
        seed: int,
        split_ways: int = SPLIT_WAYS,
        membership_check: bool = True,
        batch: bool = True,
    ) -> None:
        self.params = params
        self.seed = seed
        self.split_ways = split_ways
        self.membership_check = membership_check
        self.batch = batch
        self.encode_s = 0.0
        self.decode_s = 0.0
        #: elements of verified units per round (checksum-certified)
        self.resolved_by_round: dict[int, int] = {}
        #: candidate elements recovered per round — the empirical
        #: counterpart of the §5.3 "good balls" piecewise analysis
        self.recovered_by_round: dict[int, int] = {}
        arr = _as_element_array(values, params.log_u)
        group_salt = derive_seed(seed, "group")
        groups = _partition_by_group(arr, group_salt, params.g)
        self.pending: list[_AliceUnit] = [
            _AliceUnit(
                uid=UnitId(i),
                constraints=[MembershipConstraint(group_salt, params.g, i)],
                original=groups[i],
                working=groups[i],
            )
            for i in range(params.g)
        ]
        self._resolved_diffs: list[np.ndarray] = []
        self._next_mask: list[bool] = []
        self._round_salt: int = 0

    # -- round driver --------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.pending

    def build_sketch_message(self, round_no: int) -> SketchMessage:
        """Step 1: per-unit parity bitmaps and their BCH sketches.

        The sketches of all pending units are computed in one batched
        pass over a stacked position matrix (the scalar per-unit loop is
        kept behind ``batch=False`` for cross-checking).
        """
        start = time.perf_counter()
        params = self.params
        self._round_salt = derive_seed(self.seed, "bin", round_no)
        positions: list[np.ndarray] = []
        for unit in self.pending:
            idx = bin_indices(unit.working, self._round_salt, params.n)
            parity, xors = bin_tables(unit.working, idx, params.n)
            unit.xors = xors
            positions.append(parity_positions(parity))
        sketches = params.codec.sketch_many(positions, batch=self.batch)
        message = SketchMessage(
            round_no=round_no,
            continue_mask=self._next_mask,
            sketches=sketches,
        )
        self._next_mask = []
        self.encode_s += time.perf_counter() - start
        return message

    def handle_reply(self, reply: ReplyMessage, round_no: int) -> None:
        """Step 3: recover, verify, retire/split/continue units."""
        start = time.perf_counter()
        params = self.params
        if len(reply.replies) != len(self.pending):
            raise SerializationError(
                f"reply covers {len(reply.replies)} units, "
                f"{len(self.pending)} pending"
            )
        bin_hash = SaltedHash(self._round_salt)
        recovered = self._recover_batch(reply, bin_hash) if self.batch else None
        next_pending: list[_AliceUnit] = []
        mask: list[bool] = []
        for i, (unit, unit_reply) in enumerate(zip(self.pending, reply.replies)):
            if unit_reply.decode_failed:
                next_pending.extend(self._split(unit, round_no))
                continue
            if unit_reply.checksum is not None and unit.b_checksum is None:
                unit.b_checksum = unit_reply.checksum
            if unit.b_checksum is None:
                raise SerializationError(
                    f"no checksum ever received for unit {unit.uid.label()}"
                )
            if recovered is not None:
                candidates = recovered[i]
            else:
                candidates = self._recover(unit, unit_reply, bin_hash)
            if candidates:
                self.recovered_by_round[round_no] = (
                    self.recovered_by_round.get(round_no, 0) + len(candidates)
                )
                unit.working = np.setxor1d(
                    unit.working, element_array(candidates),
                    assume_unique=True,
                )
            if set_checksum(unit.working, params.log_u) == unit.b_checksum:
                diff = np.setxor1d(
                    unit.original, unit.working, assume_unique=True
                )
                self._resolved_diffs.append(diff)
                self.resolved_by_round[round_no] = (
                    self.resolved_by_round.get(round_no, 0) + len(diff)
                )
                mask.append(False)
            else:
                next_pending.append(unit)
                mask.append(True)
            unit.xors = None
        self.pending = next_pending
        self._next_mask = mask
        self.decode_s += time.perf_counter() - start

    # -- internals -------------------------------------------------------------
    def _recover(
        self, unit: _AliceUnit, unit_reply: UnitReply, bin_hash: SaltedHash
    ) -> set[int]:
        """Procedure 1 per position + Procedure 3 checks (§2.2.2, §2.3)."""
        params = self.params
        assert unit.xors is not None
        candidates: set[int] = set()
        for pos, bob_xor in zip(unit_reply.positions, unit_reply.xor_sums):
            if not 1 <= pos <= params.n:
                continue
            s = int(unit.xors[pos - 1]) ^ bob_xor
            if s == 0 or s >= (1 << params.log_u):
                continue  # exceptions; cannot be a real element
            if self.membership_check:
                if bin_hash.bucket(s, params.n) != pos - 1:
                    continue  # fake distinct element caught by Procedure 3
                if not all(c.accepts(s) for c in unit.constraints):
                    continue  # not in this unit's sub-universe
            candidates.add(s)
        return candidates

    def _recover_batch(
        self, reply: ReplyMessage, bin_hash: SaltedHash
    ) -> list[set[int]]:
        """Vectorized :meth:`_recover` across every unit of the round.

        Procedure 1 and Procedure 3's checks are data-parallel over the
        flattened (unit, position) pairs: one hash pass for the bin check
        and one per constraint level instead of a Python call per
        candidate.  Produces exactly the candidate sets of the scalar
        path.
        """
        params = self.params
        out: list[set[int]] = [set() for _ in reply.replies]
        uidx_parts: list[np.ndarray] = []
        pos_parts: list[np.ndarray] = []
        s_parts: list[np.ndarray] = []
        for i, (unit, unit_reply) in enumerate(zip(self.pending, reply.replies)):
            if unit_reply.decode_failed or not unit_reply.positions:
                continue
            pos = np.asarray(unit_reply.positions, dtype=np.int64)
            in_range = (pos >= 1) & (pos <= params.n)
            pos = pos[in_range]
            if not len(pos):
                continue
            xor_sums = np.asarray(unit_reply.xor_sums, dtype=np.uint64)[in_range]
            assert unit.xors is not None
            s_parts.append(unit.xors[pos - 1] ^ xor_sums)
            pos_parts.append(pos)
            uidx_parts.append(np.full(len(pos), i, dtype=np.int64))
        if not s_parts:
            return out
        uidx = np.concatenate(uidx_parts)
        pos = np.concatenate(pos_parts)
        s = np.concatenate(s_parts)
        keep = s != 0
        if params.log_u < 64:
            keep &= s < np.uint64(1 << params.log_u)
        if self.membership_check:
            # Procedure 3: the candidate must hash back into its bin ...
            keep &= bin_hash.bucket_vec(s, params.n) == pos - 1
            # ... and into its unit's sub-universe.  Level 0 is the group
            # partition, which shares (salt, g) across all units by
            # construction; only the expected branch varies.
            level0 = self.pending[0].constraints[0]
            branch = np.array(
                [u.constraints[0].branch for u in self.pending], dtype=np.int64
            )
            level0_bucket = SaltedHash(level0.salt).bucket_vec(s, level0.buckets)
            keep &= level0_bucket == branch[uidx]
            # Deeper levels exist only on split descendants; check those
            # units' candidate slices constraint by constraint.
            for i, unit in enumerate(self.pending):
                if len(unit.constraints) <= 1:
                    continue
                at_unit = uidx == i
                if not at_unit.any():
                    continue
                vals = s[at_unit]
                ok = np.ones(len(vals), dtype=bool)
                for constraint in unit.constraints[1:]:
                    ok &= constraint.accepts_vec(vals)
                keep[at_unit] &= ok
        for i, value in zip(uidx[keep], s[keep]):
            out[int(i)].add(int(value))
        return out

    def _split(self, unit: _AliceUnit, round_no: int) -> list[_AliceUnit]:
        """Three-way split after a BCH decoding failure (§3.2)."""
        ways = self.split_ways
        salt = derive_seed(self.seed, "split", unit.uid.group, unit.uid.path, round_no)
        working_parts = split_by_hash(unit.working, salt, ways)
        original_parts = split_by_hash(unit.original, salt, ways)
        children = []
        for b in range(ways):
            children.append(
                _AliceUnit(
                    uid=unit.uid.child(b),
                    constraints=unit.constraints
                    + [MembershipConstraint(salt, ways, b)],
                    original=original_parts[b],
                    working=working_parts[b],
                )
            )
        return children

    # -- results -----------------------------------------------------------------
    def difference(self) -> frozenset[int]:
        """Alice's current view of A xor B (exact iff :attr:`done`)."""
        parts = list(self._resolved_diffs)
        parts.extend(
            np.setxor1d(u.original, u.working, assume_unique=True)
            for u in self.pending
        )
        if not parts:
            return frozenset()
        return frozenset(int(v) for v in np.concatenate(parts))


class BobSession:
    """Bob's side: holds B, answers sketches."""

    def __init__(
        self,
        values,
        params: PBSParams,
        seed: int,
        split_ways: int = SPLIT_WAYS,
        batch: bool = True,
    ) -> None:
        self.params = params
        self.seed = seed
        self.split_ways = split_ways
        self.batch = batch
        self.encode_s = 0.0
        self.decode_s = 0.0
        arr = _as_element_array(values, params.log_u)
        group_salt = derive_seed(seed, "group")
        groups = _partition_by_group(arr, group_salt, params.g)
        self.pending: list[_BobUnit] = [
            _BobUnit(
                uid=UnitId(i),
                constraints=[MembershipConstraint(group_salt, params.g, i)],
                values=groups[i],
            )
            for i in range(params.g)
        ]

    def handle_sketch_message(self, message: SketchMessage) -> ReplyMessage:
        """Step 2: advance the pending list, decode every sketch.

        All pending units are sketched and BCH-decoded in one batched
        pass (stacked syndrome matrices); ``batch=False`` keeps the
        scalar per-unit loop as the cross-checking reference.
        """
        work = self.begin_reply(message)
        decode_start = time.perf_counter()
        decoded = self.params.codec.decode_many(work.deltas, batch=self.batch)
        self.decode_s += time.perf_counter() - decode_start
        return self.finish_reply(work, decoded)

    def begin_reply(self, message: SketchMessage) -> BobRoundWork:
        """Encode phase of one round: everything up to the BCH decode.

        Advances the pending list, sketches Bob's side, and XORs against
        Alice's sketches.  The returned :class:`BobRoundWork` carries the
        per-unit sketch deltas; decode them (``params.codec.decode_many``
        or a cross-session batch) and hand the result to
        :meth:`finish_reply`.
        """
        params = self.params
        self._advance_pending(message)
        if len(message.sketches) != len(self.pending):
            raise SerializationError(
                f"sketch message covers {len(message.sketches)} units, "
                f"{len(self.pending)} pending"
            )
        round_salt = derive_seed(self.seed, "bin", message.round_no)

        encode_start = time.perf_counter()
        positions_b: list[np.ndarray] = []
        xors_b: list[np.ndarray] = []
        for unit in self.pending:
            idx = bin_indices(unit.values, round_salt, params.n)
            parity, xors = bin_tables(unit.values, idx, params.n)
            positions_b.append(parity_positions(parity))
            xors_b.append(xors)
        sketches_b = params.codec.sketch_many(positions_b, batch=self.batch)
        self.encode_s += time.perf_counter() - encode_start

        decode_start = time.perf_counter()
        deltas = [
            params.codec.sketch_xor(alice_sketch, sketch_b)
            for alice_sketch, sketch_b in zip(message.sketches, sketches_b)
        ]
        self.decode_s += time.perf_counter() - decode_start
        return BobRoundWork(
            round_no=message.round_no, deltas=deltas, xors_b=xors_b
        )

    def finish_reply(
        self,
        work: BobRoundWork,
        decoded: list[list[int] | None],
        decode_seconds: float = 0.0,
    ) -> ReplyMessage:
        """Build the round's reply from externally decoded deltas.

        ``decoded`` must align with ``work.deltas`` (``None`` marks a
        decode failure, triggering the unit's three-way split next round);
        ``decode_seconds`` attributes this session's share of a coalesced
        decode batch to :attr:`decode_s`.
        """
        params = self.params
        self.decode_s += decode_seconds
        start = time.perf_counter()
        replies: list[UnitReply] = []
        for unit, xors, positions in zip(self.pending, work.xors_b, decoded):
            checksum = (
                set_checksum(unit.values, params.log_u) if unit.fresh else None
            )
            if positions is None:
                unit.last_failed = True
                unit.split_salt = derive_seed(
                    self.seed, "split", unit.uid.group, unit.uid.path,
                    work.round_no,
                )
                replies.append(
                    UnitReply(
                        decode_failed=True, positions=[], xor_sums=[],
                        checksum=None,
                    )
                )
            else:
                unit.fresh = False
                replies.append(
                    UnitReply(
                        decode_failed=False,
                        positions=positions,
                        xor_sums=[int(xors[p - 1]) for p in positions],
                        checksum=checksum,
                    )
                )
        self.decode_s += time.perf_counter() - start
        return ReplyMessage(round_no=work.round_no, replies=replies)

    def _advance_pending(self, message: SketchMessage) -> None:
        """Mirror Alice's pending-list evolution (splits + continuation mask)."""
        if message.round_no == 1:
            return
        mask = iter(message.continue_mask)
        next_pending: list[_BobUnit] = []
        for unit in self.pending:
            if unit.last_failed:
                next_pending.extend(self._split(unit))
                continue
            try:
                keep = next(mask)
            except StopIteration:
                raise SerializationError(
                    "continuation mask shorter than pending list"
                ) from None
            if keep:
                next_pending.append(unit)
        self.pending = next_pending

    def _split(self, unit: _BobUnit) -> list[_BobUnit]:
        ways = self.split_ways
        parts = split_by_hash(unit.values, unit.split_salt, ways)
        return [
            _BobUnit(
                uid=unit.uid.child(b),
                constraints=unit.constraints
                + [MembershipConstraint(unit.split_salt, ways, b)],
                values=parts[b],
            )
            for b in range(ways)
        ]
