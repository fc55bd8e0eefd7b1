"""Wire format of the per-round PBS messages.

Each round is one exchange:

* **Alice → Bob** (:class:`SketchMessage`): for rounds >= 2, a continuation
  bit per previously-OK unit (Bob cannot know which checksums failed on
  Alice's side — this is the minimal control information that the paper's
  description leaves implicit); then one BCH codeword (``t * m`` bits) per
  pending unit, in the shared canonical order.
* **Bob → Alice** (:class:`ReplyMessage`): per pending unit, a 1-bit
  decode-failed flag; on success the decoded difference-bit positions
  (``m`` bits each) and Bob's per-bin XOR sums (``log|U|`` bits each), and
  — only the first time a unit is answered — the unit checksum ``c(B_u)``
  (``log|U|`` bits).  This matches Formula (1)'s first-round accounting:
  ``t log n + delta_i log n + delta_i log|U| + log|U|`` per group pair.

Unit identities never travel on the wire: both sides evolve the same
ordered pending list (failed units are deterministically replaced by their
three split children; OK units continue iff Alice's continuation bit says
so).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SerializationError
from repro.utils.bitio import BitReader, BitWriter

_ROUND_BITS = 16
_COUNT_BITS = 32


@dataclass
class SketchMessage:
    """Alice's codewords for every pending unit (plus continuation mask)."""

    round_no: int
    continue_mask: list[bool]  #: one bit per previously-OK unit (empty in round 1)
    sketches: list[list[int]]  #: t syndromes of m bits each, canonical order

    def serialize(self, t: int, m: int) -> bytes:
        writer = BitWriter()
        writer.write(self.round_no, _ROUND_BITS)
        writer.write(len(self.continue_mask), _COUNT_BITS)
        for bit in self.continue_mask:
            writer.write(int(bit), 1)
        writer.write(len(self.sketches), _COUNT_BITS)
        for sketch in self.sketches:
            if len(sketch) != t:
                raise SerializationError(
                    f"sketch has {len(sketch)} syndromes, expected {t}"
                )
            for syndrome in sketch:
                writer.write(syndrome, m)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data: bytes, t: int, m: int) -> "SketchMessage":
        reader = BitReader(data)
        round_no = reader.read(_ROUND_BITS)
        mask = reader.read_array(reader.read(_COUNT_BITS), 1).astype(bool)
        n_units = reader.read(_COUNT_BITS)
        sketches = reader.read_array(n_units * t, m).reshape(n_units, t)
        return cls(
            round_no=round_no,
            continue_mask=mask.tolist(),
            sketches=sketches.tolist(),
        )


@dataclass
class UnitReply:
    """Bob's per-unit reply."""

    decode_failed: bool
    positions: list[int]      #: decoded difference-bit positions (1..n)
    xor_sums: list[int]       #: Bob's bin XOR sums, aligned with positions
    checksum: int | None      #: c(B_u), present only on the first reply


@dataclass
class ReplyMessage:
    """Bob's replies for every pending unit, canonical order."""

    round_no: int
    replies: list[UnitReply]

    def serialize(self, t: int, m: int, log_u: int) -> bytes:
        count_bits = max(1, t.bit_length())
        writer = BitWriter()
        writer.write(self.round_no, _ROUND_BITS)
        writer.write(len(self.replies), _COUNT_BITS)
        for reply in self.replies:
            writer.write(int(reply.checksum is not None), 1)
            if reply.checksum is not None:
                writer.write(reply.checksum, log_u)
            writer.write(int(reply.decode_failed), 1)
            if reply.decode_failed:
                continue
            if len(reply.positions) > t:
                raise SerializationError(
                    f"{len(reply.positions)} positions exceed capacity {t}"
                )
            writer.write(len(reply.positions), count_bits)
            for pos, xor_sum in zip(reply.positions, reply.xor_sums):
                writer.write(pos, m)
                writer.write(xor_sum, log_u)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data: bytes, t: int, m: int, log_u: int) -> "ReplyMessage":
        count_bits = max(1, t.bit_length())
        read = BitReader(data).read
        round_no = read(_ROUND_BITS)
        n_units = read(_COUNT_BITS)
        replies: list[UnitReply] = []
        for _ in range(n_units):
            checksum = read(log_u) if read(1) else None
            failed = bool(read(1))
            positions: list[int] = []
            xor_sums: list[int] = []
            if not failed:
                for _ in range(read(count_bits)):
                    positions.append(read(m))
                    xor_sums.append(read(log_u))
            replies.append(
                UnitReply(
                    decode_failed=failed,
                    positions=positions,
                    xor_sums=xor_sums,
                    checksum=checksum,
                )
            )
        return cls(round_no=round_no, replies=replies)
