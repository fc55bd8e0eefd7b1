"""The set checksum ``c(S)`` of §2.2.3.

``c(S)`` is the sum of all elements, viewed as integers, modulo ``|U|``.
The paper picks this function because (a) '+' is a very different operation
from the XOR used in recovery, making false verifications nearly
uncorrelated with reconciliation errors, and (b) it is incrementally
computable.  Its length is ``log|U|`` bits — the same as one element.
"""

from __future__ import annotations

import numpy as np


def set_checksum(values: np.ndarray, log_u: int = 32) -> int:
    """``(sum of elements) mod 2^log_u`` over an array of elements.

    The accumulation wraps modulo 2^64, which is harmless because
    ``2^log_u`` divides ``2^64`` for every supported signature length.
    """
    if len(values) == 0:
        return 0
    total = int(np.asarray(values, dtype=np.uint64).sum(dtype=np.uint64))
    return total & ((1 << log_u) - 1)


def segment_checksums(
    values: np.ndarray, bounds: np.ndarray, log_u: int = 32
) -> list[int]:
    """:func:`set_checksum` of every segment ``values[bounds[i]:bounds[i+1]]``.

    One ``add.reduceat`` pass over ``values`` (``uint64``) for all
    segments; empty segments have checksum 0.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    sums = np.zeros(len(bounds) - 1, dtype=np.uint64)
    nonempty = bounds[1:] > bounds[:-1]
    if nonempty.any():
        # consecutive non-empty starts are strictly increasing, and the
        # empty segments between them add nothing
        sums[nonempty] = np.add.reduceat(values, bounds[:-1][nonempty])
    sums &= np.uint64((1 << log_u) - 1)
    return sums.tolist()


def checksum_update(
    checksum: int, toggled: np.ndarray, sign: int, log_u: int = 32
) -> int:
    """Incrementally add (+1) or remove (-1) elements from a checksum."""
    mask = (1 << log_u) - 1
    delta = (
        int(np.asarray(toggled, dtype=np.uint64).sum(dtype=np.uint64))
        if len(toggled)
        else 0
    )
    if sign >= 0:
        return (checksum + delta) & mask
    return (checksum - delta) & mask
