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

Every pending unit of a round hashes with the same salt, so each step is
a fixed number of numpy passes over all pending units together
(:mod:`repro.core.partition`), not a pass per unit.  Bin XOR sums are
computed only where they are read: Bob's at the positions his decode
returns, Alice's at the positions Bob's reply names.

Alice's working set evolves as ``A -> A xor D_hat_1 -> ...`` (§2.4).  A
unit stores it as its original elements plus its *toggles*, the
candidates folded in so far (``working = original xor toggles``), and
keeps the working set's checksum incrementally, which is why §2.2.3
picks ``c(S)``.  Once the checksum certifies ``working == B_u`` the
toggles are the unit's difference; fake elements that sneaked in are
corrected by later rounds.

Both sides keep their pending-unit lists in lockstep: failed units are
deterministically replaced by their three split children; surviving OK
units continue iff Alice's continuation bit says the checksum still
mismatches.  No unit identities travel on the wire.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from repro.core.checksum import checksum_update, segment_checksums, set_checksum
from repro.core.elements import contains, element_array
from repro.core.messages import ReplyMessage, SketchMessage, UnitReply
from repro.core.params import PBSParams
from repro.core.partition import (
    bin_xors,
    group_indices,
    parity_rows,
    split_by_hash,
    unit_bin_keys,
)
from repro.core.units import SPLIT_WAYS, MembershipConstraint, UnitId
from repro.errors import ParameterError, SerializationError
from repro.hashing.families import SaltedHash, bucket_many
from repro.utils.seeds import derive_seed

_NONE = element_array(())
_NO_KEYS = np.empty(0, dtype=np.int64)
#: per-unit element counts of a round's concatenated elements
_Sizes = Union[np.ndarray, list[int]]


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


def _group_sorted(
    arr: np.ndarray, salt: int, g: int
) -> tuple[np.ndarray, np.ndarray]:
    """``arr`` reordered group by group (each group still sorted) and the
    ``g + 1`` group boundaries, with one vectorized pass."""
    bounds = np.zeros(g + 1, dtype=np.int64)
    if len(arr) == 0:
        return arr, bounds
    gidx = group_indices(arr, salt, g)
    if g <= 1 << 16:
        gidx = gidx.astype(np.uint16)   # stable argsort is a radix sort
    np.cumsum(np.bincount(gidx, minlength=g), out=bounds[1:])
    return arr[np.argsort(gidx, kind="stable")], bounds


def _partition_by_group(arr: np.ndarray, salt: int, g: int) -> list[np.ndarray]:
    """Split an element array into its g group arrays (each still sorted)."""
    grouped, bounds = _group_sorted(arr, salt, g)
    return [grouped[bounds[i] : bounds[i + 1]] for i in range(g)]


def _round_sketches(
    params: PBSParams, values: np.ndarray, sizes: _Sizes, salt: int
) -> tuple[np.ndarray, np.ndarray]:
    """One round's encode for all pending units: ``(keys, sketches)``.

    ``values`` holds the units' elements back to back, ``sizes[u]`` of
    them for unit u; ``keys`` are their :func:`unit_bin_keys` and
    ``sketches`` the ``(units, t)`` BCH sketches of the parity bitmaps.
    An element listed twice for one unit cancels, as in any parity
    bitmap or XOR sum.
    """
    keys = unit_bin_keys(values, sizes, salt, params.n)
    rows = parity_rows(keys, len(sizes), params.n)
    return keys, params.codec.sketch_rows(rows)


def _working_checksum(original: np.ndarray, toggles: np.ndarray, log_u: int) -> int:
    """``c(original xor toggles)`` without materializing the working set."""
    checksum = set_checksum(original, log_u)
    if len(toggles):
        removed = contains(original, toggles)
        checksum = checksum_update(checksum, toggles[~removed], +1, log_u)
        checksum = checksum_update(checksum, toggles[removed], -1, log_u)
    return checksum


@dataclass
class _AliceUnit:
    uid: UnitId
    constraints: list[MembershipConstraint]
    original: np.ndarray
    checksum: int                   #: c(working), kept incrementally
    #: candidates folded in so far, sorted: working = original xor toggles
    toggles: np.ndarray = field(default_factory=lambda: _NONE, repr=False)
    b_checksum: int | None = None

    @property
    def working(self) -> np.ndarray:
        """Alice's current view of Bob's unit."""
        if not len(self.toggles):
            return self.original
        return np.setxor1d(self.original, self.toggles, assume_unique=True)


@dataclass
class _BobUnit:
    uid: UnitId
    constraints: list[MembershipConstraint]
    values: np.ndarray
    checksum: int                   #: c(B_u), fixed from the unit's creation
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
    values: np.ndarray = field(repr=False)   #: the round's elements, unit by unit
    keys: np.ndarray = field(repr=False)     #: their ``unit * n + bin`` keys


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
    ) -> None:
        self.params = params
        self.seed = seed
        self.split_ways = split_ways
        self.membership_check = membership_check
        self.encode_s = 0.0
        self.decode_s = 0.0
        #: elements of verified units per round (checksum-certified)
        self.resolved_by_round: dict[int, int] = {}
        #: candidate elements recovered per round — the empirical
        #: counterpart of the §5.3 "good balls" piecewise analysis
        self.recovered_by_round: dict[int, int] = {}
        self._elements = _as_element_array(values, params.log_u)
        group_salt = derive_seed(seed, "group")
        grouped, bounds = _group_sorted(self._elements, group_salt, params.g)
        checksums = segment_checksums(grouped, bounds, params.log_u)
        self.pending: list[_AliceUnit] = [
            _AliceUnit(
                uid=UnitId(i),
                constraints=[MembershipConstraint(group_salt, params.g, i)],
                original=grouped[bounds[i] : bounds[i + 1]],
                checksum=checksums[i],
            )
            for i in range(params.g)
        ]
        #: the first round's elements: every group, back to back
        self._grouped: tuple[np.ndarray, _Sizes] | None = (
            grouped, np.diff(bounds)
        )
        self._resolved_diffs: list[np.ndarray] = []
        self._next_mask: list[bool] = []
        self._round_salt: int = 0
        self._round_values = _NONE
        self._round_keys = _NO_KEYS

    # -- round driver --------------------------------------------------------
    @property
    def done(self) -> bool:
        return not self.pending

    def build_sketch_message(self, round_no: int) -> SketchMessage:
        """Step 1: every pending unit's parity bitmap and BCH sketch, in
        one hash pass and one sketch pass over all of them."""
        start = time.perf_counter()
        self._round_salt = derive_seed(self.seed, "bin", round_no)
        values, sizes = self._round_elements()
        self._round_keys, sketches = _round_sketches(
            self.params, values, sizes, self._round_salt
        )
        self._round_values = values
        message = SketchMessage(
            round_no=round_no,
            continue_mask=self._next_mask,
            sketches=sketches.tolist(),
        )
        self._next_mask = []
        self.encode_s += time.perf_counter() - start
        return message

    def handle_reply(self, reply: ReplyMessage, round_no: int) -> None:
        """Step 3: recover, verify, retire/split/continue units."""
        start = time.perf_counter()
        if len(reply.replies) != len(self.pending):
            raise SerializationError(
                f"reply covers {len(reply.replies)} units, "
                f"{len(self.pending)} pending"
            )
        candidates, bounds, deltas = self._recover(reply)
        if len(candidates):
            self.recovered_by_round[round_no] = (
                self.recovered_by_round.get(round_no, 0) + len(candidates)
            )
        log_mask = (1 << self.params.log_u) - 1
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
            if bounds[i + 1] > bounds[i]:
                found = candidates[bounds[i] : bounds[i + 1]]
                unit.toggles = (
                    np.setxor1d(unit.toggles, found, assume_unique=True)
                    if len(unit.toggles) else found
                )
                unit.checksum = (unit.checksum + deltas[i]) & log_mask
            if unit.checksum == unit.b_checksum:
                self._resolved_diffs.append(unit.toggles)
                self.resolved_by_round[round_no] = (
                    self.resolved_by_round.get(round_no, 0) + len(unit.toggles)
                )
                mask.append(False)
            else:
                next_pending.append(unit)
                mask.append(True)
        self.pending = next_pending
        self._next_mask = mask
        self._grouped = None
        self._round_values, self._round_keys = _NONE, _NO_KEYS
        self.decode_s += time.perf_counter() - start

    # -- internals -------------------------------------------------------------
    def _round_elements(self) -> tuple[np.ndarray, _Sizes]:
        """The pending units' working sets back to back, each as its
        original elements followed by its toggles (a toggled-off element
        appears twice and cancels)."""
        if self._grouped is not None:
            return self._grouped
        parts = [p for u in self.pending for p in (u.original, u.toggles)]
        sizes = [len(u.original) + len(u.toggles) for u in self.pending]
        return (np.concatenate(parts) if parts else _NONE), sizes

    def _recover(
        self, reply: ReplyMessage
    ) -> tuple[np.ndarray, list[int], list[int]]:
        """Procedure 1 and Procedure 3's checks (§2.2.2, §2.3) for the
        whole round.

        Returns the candidates (unit by unit, each unit's sorted and
        distinct), the ``k + 1`` unit boundaries into them, and each
        pending unit's checksum change from folding its candidates into
        its working set (+ for an added element, - for a removed one).
        """
        params = self.params
        n, k = params.n, len(self.pending)
        units: list[int] = []
        positions: list[int] = []
        bob_xors: list[int] = []
        for i, unit_reply in enumerate(reply.replies):
            if unit_reply.decode_failed or not unit_reply.positions:
                continue
            if len(unit_reply.xor_sums) != len(unit_reply.positions):
                raise SerializationError(
                    f"{len(unit_reply.xor_sums)} XOR sums for "
                    f"{len(unit_reply.positions)} positions"
                )
            units.extend([i] * len(unit_reply.positions))
            positions.extend(unit_reply.positions)
            bob_xors.extend(unit_reply.xor_sums)
        if not units:
            return _NONE, [0] * (k + 1), [0] * k
        unit = np.array(units, dtype=np.int64)
        pos = np.array(positions, dtype=np.int64)
        in_range = (pos >= 1) & (pos <= n)
        unit, pos = unit[in_range], pos[in_range]
        s = bin_xors(
            self._round_values, self._round_keys, unit * n + pos - 1, k * n
        )
        s ^= np.array(bob_xors, dtype=np.uint64)[in_range]
        keep = s != 0
        if params.log_u < 64:
            keep &= s < np.uint64(1 << params.log_u)
        if self.membership_check:
            # Procedure 3: the candidate must hash back into its bin ...
            keep &= SaltedHash(self._round_salt).bucket_vec(s, n) == pos - 1
        unit, s = unit[keep], s[keep]
        # ... and into its unit's sub-universe.  Without the check an
        # outsider can get in, so this also decides below whether a
        # candidate is one of the unit's original elements.
        in_unit = self._in_unit(unit, s)
        if self.membership_check:
            unit, s, in_unit = unit[in_unit], s[in_unit], in_unit[in_unit]
        order = np.lexsort((s, unit))
        unit, s, in_unit = unit[order], s[order], in_unit[order]
        distinct = np.ones(len(s), dtype=bool)
        distinct[1:] = (unit[1:] != unit[:-1]) | (s[1:] != s[:-1])
        unit, s, in_unit = unit[distinct], s[distinct], in_unit[distinct]
        in_working = contains(self._elements, s) & in_unit
        if any(len(u.toggles) for u in self.pending):
            in_working ^= self._toggled(unit, s)
        bounds = np.searchsorted(unit, np.arange(k + 1))
        deltas = segment_checksums(
            np.where(in_working, -s, s), bounds, params.log_u
        )
        return s, bounds.tolist(), deltas

    def _in_unit(self, unit: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Does each candidate ``s`` hash into its unit's sub-universe?

        Level 0 is the group partition, which shares (salt, g) across all
        units by construction; only the expected branch varies.  Deeper
        levels exist only on split descendants; each level is one hash
        pass over the candidates of the units that have it.
        """
        if not len(s):
            return np.zeros(0, dtype=bool)
        level0 = self.pending[0].constraints[0]
        branch = np.array(
            [u.constraints[0].branch for u in self.pending], dtype=np.int64
        )
        ok = level0.hash.bucket_vec(s, level0.buckets) == branch[unit]
        depth = np.array([len(u.constraints) for u in self.pending])
        for level in range(1, int(depth.max())):
            deep = depth[unit] > level
            if not deep.any():
                continue
            owners = np.unique(unit[deep])
            which = np.searchsorted(owners, unit[deep])
            constraints = [self.pending[i].constraints[level] for i in owners.tolist()]
            ok[deep] &= bucket_many(
                s[deep], [c.hash for c in constraints], which,
                [c.buckets for c in constraints],
            ) == np.array([c.branch for c in constraints])[which]
        return ok

    def _toggled(self, unit: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Which ``(unit, s)`` candidates are already among that unit's
        toggles.  Both sides are distinct within a unit, so a match shows
        up as two equal neighbours once the pairs are sorted together."""
        sizes = [len(u.toggles) for u in self.pending]
        all_units = np.concatenate(
            [unit, np.repeat(np.arange(len(sizes)), sizes)]
        )
        all_values = np.concatenate([s] + [u.toggles for u in self.pending])
        order = np.lexsort((all_values, all_units))
        su, sv = all_units[order], all_values[order]
        same = (su[1:] == su[:-1]) & (sv[1:] == sv[:-1])
        hit = np.zeros(len(all_units), dtype=bool)
        hit[order[1:][same]] = True
        hit[order[:-1][same]] = True
        return hit[: len(s)]

    def _split(self, unit: _AliceUnit, round_no: int) -> list[_AliceUnit]:
        """Three-way split after a BCH decoding failure (§3.2)."""
        ways = self.split_ways
        salt = derive_seed(self.seed, "split", unit.uid.group, unit.uid.path, round_no)
        originals = split_by_hash(unit.original, salt, ways)
        toggles = split_by_hash(unit.toggles, salt, ways)
        return [
            _AliceUnit(
                uid=unit.uid.child(b),
                constraints=unit.constraints + [MembershipConstraint(salt, ways, b)],
                original=originals[b],
                toggles=toggles[b],
                checksum=_working_checksum(
                    originals[b], toggles[b], self.params.log_u
                ),
            )
            for b in range(ways)
        ]

    # -- results -----------------------------------------------------------------
    def difference(self) -> frozenset[int]:
        """Alice's current view of A xor B (exact iff :attr:`done`)."""
        parts = self._resolved_diffs + [u.toggles for u in self.pending]
        if not parts:
            return frozenset()
        return frozenset(np.concatenate(parts).tolist())


class BobSession:
    """Bob's side: holds B, answers sketches."""

    def __init__(
        self,
        values,
        params: PBSParams,
        seed: int,
        split_ways: int = SPLIT_WAYS,
    ) -> None:
        self.params = params
        self.seed = seed
        self.split_ways = split_ways
        self.encode_s = 0.0
        self.decode_s = 0.0
        arr = _as_element_array(values, params.log_u)
        group_salt = derive_seed(seed, "group")
        grouped, bounds = _group_sorted(arr, group_salt, params.g)
        checksums = segment_checksums(grouped, bounds, params.log_u)
        self.pending: list[_BobUnit] = [
            _BobUnit(
                uid=UnitId(i),
                constraints=[MembershipConstraint(group_salt, params.g, i)],
                values=grouped[bounds[i] : bounds[i + 1]],
                checksum=checksums[i],
            )
            for i in range(params.g)
        ]
        #: the first round's elements: every group, back to back
        self._grouped: tuple[np.ndarray, _Sizes] | None = (
            grouped, np.diff(bounds)
        )

    def handle_sketch_message(self, message: SketchMessage) -> ReplyMessage:
        """Step 2: advance the pending list, decode every sketch.

        All pending units are sketched and BCH-decoded in one batched
        pass (stacked syndrome matrices).
        """
        work = self.begin_reply(message)
        decode_start = time.perf_counter()
        decoded = self.params.codec.decode_many(work.deltas)
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
        k = len(self.pending)
        if len(message.sketches) != k:
            raise SerializationError(
                f"sketch message covers {len(message.sketches)} units, "
                f"{k} pending"
            )
        if any(len(sketch) != params.t for sketch in message.sketches):
            raise SerializationError(
                f"a sketch does not have {params.t} syndromes"
            )
        round_salt = derive_seed(self.seed, "bin", message.round_no)

        encode_start = time.perf_counter()
        values, sizes = self._round_elements()
        keys, sketches = _round_sketches(
            params, values, sizes, round_salt
        )
        self.encode_s += time.perf_counter() - encode_start

        decode_start = time.perf_counter()
        sketches ^= np.array(message.sketches, dtype=np.int64).reshape(k, params.t)
        self.decode_s += time.perf_counter() - decode_start
        return BobRoundWork(
            round_no=message.round_no, deltas=sketches.tolist(),
            values=values, keys=keys,
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
        n = self.params.n
        self.decode_s += decode_seconds
        start = time.perf_counter()
        wanted: list[int] = []
        for i, positions in enumerate(decoded):
            if positions:
                base = i * n - 1
                wanted.extend([base + p for p in positions])
        xors = (
            bin_xors(
                work.values, work.keys, np.array(wanted, dtype=np.int64),
                len(self.pending) * n,
            ).tolist()
            if wanted else []
        )
        replies: list[UnitReply] = []
        offset = 0
        for unit, positions in zip(self.pending, decoded):
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
                continue
            replies.append(
                UnitReply(
                    decode_failed=False,
                    positions=positions,
                    xor_sums=xors[offset : offset + len(positions)],
                    checksum=unit.checksum if unit.fresh else None,
                )
            )
            unit.fresh = False
            offset += len(positions)
        self.decode_s += time.perf_counter() - start
        return ReplyMessage(round_no=work.round_no, replies=replies)

    def _round_elements(self) -> tuple[np.ndarray, _Sizes]:
        """The pending units' elements back to back, and their counts."""
        if self._grouped is not None:
            return self._grouped
        parts = [u.values for u in self.pending]
        return (
            (np.concatenate(parts) if parts else _NONE),
            [len(p) for p in parts],
        )

    def _advance_pending(self, message: SketchMessage) -> None:
        """Mirror Alice's pending-list evolution (splits + continuation
        mask); the mask must have exactly one bit per unit that was not
        split."""
        if message.round_no == 1:
            return
        mask = message.continue_mask
        used = 0
        next_pending: list[_BobUnit] = []
        for unit in self.pending:
            if unit.last_failed:
                next_pending.extend(self._split(unit))
                continue
            if used == len(mask):
                raise SerializationError(
                    "continuation mask shorter than pending list"
                )
            if mask[used]:
                next_pending.append(unit)
            used += 1
        if used != len(mask):
            raise SerializationError(
                f"continuation mask has {len(mask)} bits for {used} units"
            )
        self.pending = next_pending
        self._grouped = None

    def _split(self, unit: _BobUnit) -> list[_BobUnit]:
        ways = self.split_ways
        parts = split_by_hash(unit.values, unit.split_salt, ways)
        return [
            _BobUnit(
                uid=unit.uid.child(b),
                constraints=unit.constraints
                + [MembershipConstraint(unit.split_salt, ways, b)],
                values=parts[b],
                checksum=set_checksum(parts[b], self.params.log_u),
            )
            for b in range(ways)
        ]
