"""Vectorized hash-partitioning and parity-bitmap construction.

Three consistent partitions appear in PBS:

* *groups* (§3): ``h'`` splits each set into g groups, fixed for the whole
  reconciliation;
* *bins* (§2.2.1): a per-round hash ``h_k`` splits a unit's elements into
  the n subsets whose cardinality parities form the parity bitmap;
* *split branches* (§3.2): a three-way hash splits a group that suffered a
  BCH decoding failure.

All paths operate on numpy ``uint64`` arrays.  A round's work is done for
all of its pending units at once: every unit hashes with the round's salt,
so one :func:`unit_bin_keys` pass keys every element by ``unit * n + bin``,
one :func:`parity_rows` call turns the keys into every unit's bitmap
positions, and :func:`bin_xors` computes the Procedure 1 XOR sums only for
the bins that are read.  :func:`bin_indices`, :func:`bin_tables` and
:func:`parity_positions` are the same computation for one unit; they are
the reference the round-wide path is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.families import SaltedHash


def group_indices(values: np.ndarray, salt: int, g: int) -> np.ndarray:
    """Group index in [0, g) for every element."""
    return SaltedHash(salt).bucket_vec(values, g)


def bin_indices(values: np.ndarray, salt: int, n: int) -> np.ndarray:
    """Bin index in [0, n) for every element (per-round hash)."""
    return SaltedHash(salt).bucket_vec(values, n)


def split_indices(values: np.ndarray, salt: int, ways: int = 3) -> np.ndarray:
    """Split-branch index in [0, ways) for every element (§3.2)."""
    return SaltedHash(salt).bucket_vec(values, ways)


def bin_tables(
    values: np.ndarray, idx: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-bin parity bitmap and XOR sums for one unit.

    Returns ``(parity, xors)`` with ``parity[i] = |bin i| mod 2`` (uint8)
    and ``xors[i]`` the XOR of the elements in bin i (uint64).
    """
    counts = np.bincount(idx, minlength=n)
    parity = (counts & 1).astype(np.uint8)
    xors = np.zeros(n, dtype=np.uint64)
    if len(values):
        np.bitwise_xor.at(xors, idx, values.astype(np.uint64))
    return parity, xors


def unit_bin_keys(
    values: np.ndarray, sizes: np.ndarray | list[int], salt: int, n: int
) -> np.ndarray:
    """``unit * n + bin`` (int64) for every element of consecutive units.

    ``values`` concatenates the units' elements and ``sizes`` gives each
    unit's share; the bins are :func:`bin_indices` ``(values, salt, n)``,
    computed in one hash pass for the whole round.
    """
    keys = SaltedHash(salt).hash_vec(values)
    np.remainder(keys, np.uint64(n), out=keys)
    keys = keys.view(np.int64)
    if len(sizes) > 1:
        keys += np.repeat(np.arange(0, len(sizes) * n, n), sizes)
    return keys


def parity_rows(keys: np.ndarray, units: int, n: int) -> np.ndarray:
    """Every unit's parity-bitmap positions from its :func:`unit_bin_keys`.

    Row u of the ``(units, L)`` int64 result holds unit u's
    :func:`parity_positions` in increasing order, zero-padded to the
    longest row (0 is not a field element, so the padding is inert for
    the BCH sketch).
    """
    parity = (np.bincount(keys, minlength=units * n) & 1).reshape(units, n)
    rows, cols = np.nonzero(parity)
    counts = np.bincount(rows, minlength=units)
    out = np.zeros((units, max(int(counts.max(initial=0)), 1)), dtype=np.int64)
    first = np.cumsum(counts) - counts
    out[rows, np.arange(len(rows)) - first[rows]] = cols + 1
    return out


def bin_xors(
    values: np.ndarray, keys: np.ndarray, wanted: np.ndarray, size: int
) -> np.ndarray:
    """XOR sum of the elements under each ``wanted`` key (uint64).

    ``keys`` are the elements' :func:`unit_bin_keys`, all below ``size``;
    the result aligns with ``wanted``.  Only the elements in wanted bins
    are accumulated, so a round never builds a full n-entry XOR table
    per unit.
    """
    hit = np.zeros(size, dtype=bool)
    hit[wanted] = True
    at = np.flatnonzero(np.take(hit, keys))
    # a repeated key accumulates into (and reads from) its last slot
    slot = np.empty(size, dtype=np.int64)
    slot[wanted] = np.arange(len(wanted))
    sums = np.zeros(len(wanted), dtype=np.uint64)
    np.bitwise_xor.at(sums, slot[keys[at]], values[at])
    return sums[slot[wanted]]


def parity_positions(parity: np.ndarray) -> np.ndarray:
    """Field-element encodings (1-based bin positions) of the set bits.

    Bin i (0-based) maps to the nonzero field element i + 1 of GF(2^m),
    so a parity bitmap of length n = 2^m - 1 injects into the field.
    """
    return np.nonzero(parity)[0].astype(np.int64) + 1


def split_by_hash(values: np.ndarray, salt: int, ways: int = 3) -> list[np.ndarray]:
    """Partition an element array into ``ways`` branches by hash value."""
    branch = split_indices(values, salt, ways)
    return [values[branch == b] for b in range(ways)]
