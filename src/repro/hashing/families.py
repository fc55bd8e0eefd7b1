"""Salted uniform hash family with a vectorized bulk path.

PBS needs many mutually independent hash functions: one per reconciliation
round per group (§2.4), one for grouping (§3), several per IBF / Bloom
filter.  :class:`SaltedHash` models one member of the family; distinct salts
give (empirically) independent functions.

The mixer is splitmix64's finalizer, a well-studied 64-bit permutation with
full avalanche; salting XORs the key with the salt *and* adds a second salt
derivative so that related salts do not produce related functions.  The bulk
path operates on numpy ``uint64`` arrays and is the workhorse behind
partitioning millions of elements per experiment.
"""

from __future__ import annotations

import numpy as np

from repro.utils.seeds import derive_seed

_MASK64 = (1 << 64) - 1
_C1 = 0xBF58476D1CE4E5B9
_C2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer of a 64-bit integer (scalar reference)."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _C1) & _MASK64
    x ^= x >> 27
    x = (x * _C2) & _MASK64
    x ^= x >> 31
    return x


def _mix64_inplace(x: np.ndarray, tmp: np.ndarray) -> None:
    """:func:`mix64` over ``uint64`` array ``x`` in place; ``tmp`` is a work
    buffer of the same shape."""
    np.add(x, np.uint64(_GOLDEN), out=x)
    for shift, mult in ((30, _C1), (27, _C2)):
        np.right_shift(x, np.uint64(shift), out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.multiply(x, np.uint64(mult), out=x)
    np.right_shift(x, np.uint64(31), out=tmp)
    np.bitwise_xor(x, tmp, out=x)


def mix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a ``uint64`` array."""
    x = np.array(x, dtype=np.uint64)
    _mix64_inplace(x, np.empty_like(x))
    return x


#: Elements per tile of :func:`bit_balance`: a tile's work buffers and
#: the index copies ``np.bincount`` makes of its byte lanes stay in cache.
_TILE = 1 << 15

#: ``_BIT_TABLE[v, k]`` is bit k of the byte value v.
_BIT_TABLE = (np.arange(256)[:, None] >> np.arange(8)) & 1


def bit_balance(xs: np.ndarray, hashes) -> np.ndarray:
    """``sum_x (+1 if bit k of h(x) is set else -1)`` for every ``h`` in
    ``hashes`` and bit ``k < 64``.

    The Tug-of-War estimator's ±1 sums under the bit-sliced
    :class:`SaltedHash` family: 64 per member (int64, member-major, low
    bit first), bit-exact with ``(h.hash_vec(xs) >> k) & 1``.  One
    mixing pass per member runs in place over cache-sized tiles; each
    pass's 64 bits are counted with one ``np.bincount`` per byte lane,
    and a fixed 256 x 8 bit table turns the byte-value counts into bit
    counts.  The lanes are read little-endian, so every host computes
    the same sums.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    counts = np.zeros((len(hashes), 8, 256), dtype=np.int64)
    buf = np.empty(min(len(xs), _TILE), dtype=np.uint64)
    tmp = np.empty_like(buf)
    for lo in range(0, len(xs), _TILE):
        x = xs[lo : lo + _TILE]
        b, t = buf[: len(x)], tmp[: len(x)]
        for lane_counts, h in zip(counts, hashes):
            np.bitwise_xor(x, np.uint64(h.salt), out=b)
            np.multiply(b, np.uint64(h._salt2), out=b)
            _mix64_inplace(b, t)
            lanes = b.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
            for k in range(8):
                lane_counts[k] += np.bincount(lanes[:, k], minlength=256)
    ones = (counts @ _BIT_TABLE).reshape(-1)
    return 2 * ones - len(xs)


class SaltedHash:
    """One member of the salted hash family.

    >>> h1, h2 = SaltedHash(1), SaltedHash(2)
    >>> h1(42) != h2(42)
    True
    """

    __slots__ = ("salt", "_salt2")

    def __init__(self, salt: int) -> None:
        self.salt = salt & _MASK64
        # A second, derived salt is mixed in multiplicatively so that
        # functions with adjacent salts are unrelated.
        self._salt2 = derive_seed(self.salt, "salted-hash-2") | 1

    def __call__(self, x: int) -> int:
        """64-bit hash of integer key ``x``."""
        return mix64((x ^ self.salt) * self._salt2 & _MASK64)

    def hash_vec(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized 64-bit hashes of a ``uint64`` array of keys."""
        xs = np.asarray(xs, dtype=np.uint64)
        return mix64_vec((xs ^ np.uint64(self.salt)) * np.uint64(self._salt2))

    def bucket(self, x: int, n_buckets: int) -> int:
        """Hash ``x`` into ``[0, n_buckets)``."""
        return self(x) % n_buckets

    def bucket_vec(self, xs: np.ndarray, n_buckets: int) -> np.ndarray:
        """Vectorized :meth:`bucket`; returns ``int64`` bucket indices."""
        return (self.hash_vec(xs) % np.uint64(n_buckets)).astype(np.int64)

    def bit(self, x: int) -> int:
        """A single unbiased hash bit of ``x`` (the low bit)."""
        return self(x) & 1


def bucket_many(
    xs: np.ndarray, hashes: list[SaltedHash], which: np.ndarray, n_buckets
) -> np.ndarray:
    """``hashes[which[i]].bucket(xs[i], n_buckets[which[i]])`` for every i.

    One vectorized pass however many members are involved, bit-exact with
    :meth:`SaltedHash.bucket_vec` per member.
    """
    salt = np.array([h.salt for h in hashes], dtype=np.uint64)[which]
    salt2 = np.array([h._salt2 for h in hashes], dtype=np.uint64)[which]
    buckets = np.asarray(n_buckets, dtype=np.uint64)[which]
    xs = np.asarray(xs, dtype=np.uint64)
    return (mix64_vec((xs ^ salt) * salt2) % buckets).astype(np.int64)


def bucket_of(x: int, salt: int, n_buckets: int) -> int:
    """Convenience: one-off bucketing without constructing a family member."""
    return SaltedHash(salt).bucket(x, n_buckets)
