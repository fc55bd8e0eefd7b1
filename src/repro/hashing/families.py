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


def mix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a ``uint64`` array."""
    x = x.astype(np.uint64, copy=True)
    x += np.uint64(_GOLDEN)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_C1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_C2)
    x ^= x >> np.uint64(31)
    return x


#: Cells (members x elements) per tile of :func:`low_bit_balance`; the
#: two uint64 work buffers of one tile stay cache-resident.
_TILE_CELLS = 1 << 16


def low_bit_balance(xs: np.ndarray, hashes) -> np.ndarray:
    """``sum_x (+1 if h(x) is odd else -1)`` for each ``h`` in ``hashes``.

    The Tug-of-War estimator's ±1 sums under the :class:`SaltedHash`
    family (int64, one per member).  Bit-exact with ``h.hash_vec(xs) & 1``
    per member, but the mixing runs in place over cache-sized tiles of
    (members x elements) — a large set is hashed one member at a time,
    a small one many members per pass — and allocates nothing per
    member.
    """
    xs = np.asarray(xs, dtype=np.uint64)
    n = len(xs)
    out = np.full(len(hashes), -n, dtype=np.int64)
    if not n or not len(hashes):
        return out
    salt = np.array([h.salt for h in hashes], dtype=np.uint64)[:, None]
    salt2 = np.array([h._salt2 for h in hashes], dtype=np.uint64)[:, None]
    cols = min(n, _TILE_CELLS)
    rows = max(1, min(len(hashes), _TILE_CELLS // cols))
    buf = np.empty((rows, cols), dtype=np.uint64)
    tmp = np.empty_like(buf)
    golden, c1, c2 = np.uint64(_GOLDEN), np.uint64(_C1), np.uint64(_C2)
    for lo in range(0, n, cols):
        x = xs[lo : lo + cols]
        for first in range(0, len(hashes), rows):
            k = min(rows, len(hashes) - first)
            b, t = buf[:k, : len(x)], tmp[:k, : len(x)]
            np.bitwise_xor(x, salt[first : first + k], out=b)
            np.multiply(b, salt2[first : first + k], out=b)
            # mix64_vec, in place
            np.add(b, golden, out=b)
            np.right_shift(b, np.uint64(30), out=t)
            np.bitwise_xor(b, t, out=b)
            np.multiply(b, c1, out=b)
            np.right_shift(b, np.uint64(27), out=t)
            np.bitwise_xor(b, t, out=b)
            np.multiply(b, c2, out=b)
            np.right_shift(b, np.uint64(31), out=t)
            np.bitwise_xor(b, t, out=b)
            np.bitwise_and(b, np.uint64(1), out=b)
            out[first : first + k] += 2 * b.sum(axis=1, dtype=np.int64)
    return out


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
