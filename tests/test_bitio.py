"""Bit-level serialization: exact packing, round trips, error paths."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError
from repro.utils.bitio import BitReader, BitWriter


class _BigIntWriter:
    """Reference writer: the whole stream as one integer, shifted once
    per field (quadratic, but obviously right)."""

    def __init__(self) -> None:
        self.fields: list[tuple[int, int]] = []

    def write(self, value: int, width: int) -> None:
        self.fields.append((value, width))

    def getvalue(self) -> bytes:
        acc, bits = 0, 0
        for value, width in self.fields:
            acc = (acc << width) | value
            bits += width
        pad = (-bits) % 8
        return (acc << pad).to_bytes((bits + pad) // 8, "big")


class _BigIntReader:
    """Reference reader: shifts the whole message integer per field."""

    def __init__(self, data: bytes) -> None:
        self.total = 8 * len(data)
        self.pos = 0
        self.acc = int.from_bytes(data, "big") if data else 0

    def read(self, width: int) -> int:
        if self.pos + width > self.total:
            raise SerializationError("over-read")
        shift = self.total - self.pos - width
        self.pos += width
        return (self.acc >> shift) & ((1 << width) - 1)


#: (value, width) fields of width 0..64, all-ones values drawn often
_FIELDS = st.lists(
    st.integers(min_value=0, max_value=64).flatmap(
        lambda w: st.tuples(
            st.one_of(st.just((1 << w) - 1), st.integers(0, (1 << w) - 1)),
            st.just(w),
        )
    ),
    max_size=300,
)


class TestBitWriter:
    def test_empty_writer_produces_empty_bytes(self):
        assert BitWriter().getvalue() == b""

    def test_single_byte_value(self):
        w = BitWriter()
        w.write(0xAB, 8)
        assert w.getvalue() == b"\xab"

    def test_sub_byte_fields_pack_msb_first(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b01, 2)
        w.write(0b110, 3)
        assert w.getvalue() == bytes([0b10101110])

    def test_padding_to_byte_boundary_is_zero(self):
        w = BitWriter()
        w.write(0b1, 1)
        assert w.getvalue() == bytes([0b10000000])

    def test_bit_and_byte_lengths(self):
        w = BitWriter()
        w.write(3, 7)
        w.write(1, 2)
        assert w.bit_length == 9
        assert w.byte_length == 2

    def test_value_too_wide_rejected(self):
        w = BitWriter()
        with pytest.raises(SerializationError):
            w.write(4, 2)

    def test_negative_value_rejected(self):
        w = BitWriter()
        with pytest.raises(SerializationError):
            w.write(-1, 8)

    def test_negative_width_rejected(self):
        w = BitWriter()
        with pytest.raises(SerializationError):
            w.write(0, -1)

    def test_zero_width_zero_value_is_noop(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.bit_length == 0


class TestBitReader:
    def test_over_read_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(SerializationError):
            r.read(1)

    def test_bits_remaining_counts_down(self):
        r = BitReader(b"\x00\x00")
        assert r.bits_remaining == 16
        r.read(5)
        assert r.bits_remaining == 11

    def test_read_zero_width(self):
        r = BitReader(b"\x80")
        assert r.read(0) == 0
        assert r.read(1) == 1


@given(
    st.lists(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda w: st.tuples(st.integers(0, (1 << w) - 1), st.just(w))
        ),
        min_size=0,
        max_size=40,
    )
)
def test_roundtrip_any_field_sequence(fields):
    """Property: any (value, width) sequence round-trips exactly."""
    w = BitWriter()
    for value, width in fields:
        w.write(value, width)
    r = BitReader(w.getvalue())
    for value, width in fields:
        assert r.read(width) == value


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**32 - 1))
def test_two_field_roundtrip(a, b):
    w = BitWriter()
    w.write(a, 64)
    w.write(b, 32)
    r = BitReader(w.getvalue())
    assert (r.read(64), r.read(32)) == (a, b)


class TestAgainstBigIntReference:
    """The linear-time codec against the big-int one it replaced."""

    @given(_FIELDS, st.lists(st.integers(0, 64), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_same_bytes_same_reads_same_over_read(self, fields, extra):
        writer, reference = BitWriter(), _BigIntWriter()
        for value, width in fields:
            writer.write(value, width)
            reference.write(value, width)
        data = writer.getvalue()
        assert data == reference.getvalue()
        assert writer.byte_length == len(data)
        # read back the fields, then keep reading past the end: both
        # readers must agree on every value and fail on the same read
        reader, ref_reader = BitReader(data), _BigIntReader(data)
        for width in [w for _, w in fields] + extra + [64] * 3:
            try:
                want = ref_reader.read(width)
            except SerializationError:
                with pytest.raises(SerializationError):
                    reader.read(width)
                return
            assert reader.read(width) == want
        raise AssertionError("the reads never ran past the stream")

    def test_empty_stream(self):
        assert BitWriter().getvalue() == _BigIntWriter().getvalue() == b""
        reader = BitReader(b"")
        assert reader.read(0) == 0
        with pytest.raises(SerializationError):
            reader.read(1)

    def test_long_stream_crosses_flush_and_window_boundaries(self):
        fields = [((1 << w) - 1 if i % 3 else i % (1 << w), w)
                  for i, w in enumerate([1, 7, 64, 13, 33, 0, 5] * 500)]
        writer, reference = BitWriter(), _BigIntWriter()
        for value, width in fields:
            writer.write(value, width)
            reference.write(value, width)
        data = writer.getvalue()
        assert data == reference.getvalue()
        reader = BitReader(data)
        assert [reader.read(w) for _, w in fields] == [v for v, _ in fields]


class TestReadArray:
    @given(st.binary(max_size=64), st.integers(0, 16), st.integers(0, 40),
           st.integers(0, 64))
    @settings(max_examples=200, deadline=None)
    def test_matches_repeated_read(self, blob, skip, count, width):
        reader, reference = BitReader(blob), BitReader(blob)
        if skip > 8 * len(blob):
            return
        reader.read(skip)
        reference.read(skip)
        if count * width > reference.bits_remaining:
            with pytest.raises(SerializationError):
                reader.read_array(count, width)
            return
        got = reader.read_array(count, width)
        assert got.dtype == np.uint64
        assert got.tolist() == [reference.read(width) for _ in range(count)]
        assert reader.bits_remaining == reference.bits_remaining

    def test_rejects_over_wide_fields(self):
        with pytest.raises(SerializationError):
            BitReader(b"\xff" * 16).read_array(1, 65)
