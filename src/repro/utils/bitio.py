"""Bit-level serialization.

Protocol messages in this package are serialized to *tightly packed* bit
streams: a BCH codeword made of ``t`` syndromes over GF(2^m) occupies exactly
``t * m`` bits on the wire, matching the paper's communication accounting
(e.g. Formula (1): ``t log n + delta log n + delta log|U| + log|U|`` bits per
group pair).  :class:`BitWriter` and :class:`BitReader` implement that
packing on top of plain ``bytes``.

Bits are written most-significant-first within the stream, which makes the
encoding independent of host endianness and easy to eyeball in tests.

Both directions cost time linear in the stream length: the writer moves
whole bytes out of a bounded accumulator, and the reader extracts fields
from a bounded window of bytes around them, so no field costs a shift of
the whole message.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SerializationError

#: The writer's accumulator moves its whole bytes to the output once it
#: holds this many bits, so no write shifts a longer integer.
_FLUSH_BITS = 1024
#: Bytes the reader converts to an integer at a time (plus the field's own
#: length when a field is wider).
_WINDOW_BYTES = 128


class BitWriter:
    """Accumulates values of arbitrary bit widths into a byte string.

    >>> w = BitWriter()
    >>> w.write(0b101, 3)
    >>> w.write(0xFF, 8)
    >>> w.bit_length
    11
    >>> r = BitReader(w.getvalue())
    >>> (r.read(3), r.read(8))
    (5, 255)
    """

    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0        # the bits not yet moved to _out
        self._acc_bits = 0
        self._bits = 0

    @property
    def bit_length(self) -> int:
        """Number of bits written so far."""
        return self._bits

    @property
    def byte_length(self) -> int:
        """Number of bytes :meth:`getvalue` will return (ceil of bits/8)."""
        return (self._bits + 7) // 8

    def write(self, value: int, width: int) -> None:
        """Append ``value`` as a ``width``-bit big-endian field."""
        if width < 0:
            raise SerializationError(f"negative width {width}")
        if value < 0 or (width < value.bit_length()):
            raise SerializationError(
                f"value {value} does not fit in {width} bits"
            )
        self._acc = (self._acc << width) | value
        self._acc_bits += width
        self._bits += width
        if self._acc_bits >= _FLUSH_BITS:
            keep = self._acc_bits & 7
            self._out += (self._acc >> keep).to_bytes(self._acc_bits >> 3, "big")
            self._acc &= (1 << keep) - 1
            self._acc_bits = keep

    def write_uint(self, value: int, width: int) -> None:
        """Alias of :meth:`write`, for symmetry with :class:`BitReader`."""
        self.write(value, width)

    def getvalue(self) -> bytes:
        """Return the packed bytes, zero-padded to a byte boundary."""
        pad = (-self._acc_bits) % 8
        tail = (self._acc << pad).to_bytes((self._acc_bits + pad) // 8, "big")
        return bytes(self._out) + tail


class BitReader:
    """Reads back fields produced by :class:`BitWriter`.

    Raises :class:`~repro.errors.SerializationError` on over-read.
    """

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._total_bits = 8 * len(data)
        self._pos = 0
        self._window = 0      # the stream's bits before _window_end, as an int
        self._window_end = 0

    @property
    def bits_remaining(self) -> int:
        return self._total_bits - self._pos

    def _over_read(self, bits: int) -> SerializationError:
        return SerializationError(
            f"over-read: want {bits} bits, {self.bits_remaining} left"
        )

    def read(self, width: int) -> int:
        """Read the next ``width`` bits as an unsigned integer."""
        if width < 0:
            raise SerializationError(f"negative width {width}")
        end = self._pos + width
        if end > self._total_bits:
            raise self._over_read(width)
        self._pos = end
        if end > self._window_end:
            first = (end - width) >> 3
            last = min(len(self._data), first + _WINDOW_BYTES + (width >> 3) + 1)
            self._window = int.from_bytes(self._data[first:last], "big")
            self._window_end = last << 3
        return (self._window >> (self._window_end - end)) & ((1 << width) - 1)

    def read_array(self, count: int, width: int) -> np.ndarray:
        """The next ``count`` fields of ``width`` bits each (at most 64),
        as a ``uint64`` array — the values ``count`` calls of :meth:`read`
        would return.  Raises before reading anything if the stream is
        too short for all of them."""
        if not 0 <= width <= 64 or count < 0:
            raise SerializationError(
                f"cannot read {count} fields of {width} bits as an array"
            )
        start = self._pos
        if start + count * width > self._total_bits:
            raise self._over_read(count * width)
        self._pos += count * width
        out = np.zeros(count, dtype=np.uint64)
        if not count or not width:
            return out
        first, skip = start >> 3, start & 7
        span = (skip + count * width + 7) >> 3
        bits = np.unpackbits(
            np.frombuffer(self._data, dtype=np.uint8, count=span, offset=first)
        )
        lead = -width % 8        # left-pad every field to whole bytes
        fields = np.zeros((count, width + lead), dtype=np.uint8)
        fields[:, lead:] = bits[skip : skip + count * width].reshape(count, width)
        for column in np.packbits(fields, axis=1).T:
            out <<= np.uint64(8)
            out |= column
        return out
