"""The in-memory representation of an element set.

Every set the protocol and the service hold in memory is one *element
array*: a sorted, distinct, read-only ``uint64`` numpy array.  The store
hands a set's array to a session by reference (a snapshot is the array
itself, not a copy), the Tug-of-War estimator and both PBS sessions take
it unchanged, and nothing downstream has to sort, dedupe or convert it
again.  Read-only is what makes sharing safe: a new version of a set is
always a new array, so a snapshot never changes under a session.

Sorting and a neighbour mask dedupe in O(n log n) without ``np.unique``
(which is an order of magnitude slower on ``uint64`` input).
"""

from __future__ import annotations

import numpy as np

_EMPTY = np.empty(0, dtype=np.uint64)
_EMPTY.flags.writeable = False


def element_array(values) -> np.ndarray:
    """``values`` as a sorted, distinct, read-only ``uint64`` array.

    An array that already has that form is returned as is (an O(n)
    check, no copy).  A strictly increasing ``uint64`` array that is
    still writeable is copied read-only without a sort; anything else is
    copied and sorted, so the caller may keep mutating its own buffer.
    Python ints must fit in 64 unsigned bits.

    >>> element_array([3, 1, 3, 2]).tolist()
    [1, 2, 3]
    """
    if isinstance(values, np.ndarray):
        if (
            values.dtype == np.uint64
            and values.ndim == 1
            and bool(np.all(values[1:] > values[:-1]))
        ):
            if not values.flags.writeable:
                return values
            arr = values.copy()
            arr.flags.writeable = False
            return arr
        if values.dtype.kind == "i" and len(values) and values.min() < 0:
            raise OverflowError("negative value in an element array")
        arr = values.astype(np.uint64)
    else:
        arr = np.array(
            values if isinstance(values, (list, tuple)) else list(values),
            dtype=np.uint64,
        )
    if not len(arr):
        return _EMPTY
    arr.sort()
    distinct = np.empty(len(arr), dtype=bool)
    distinct[0] = True
    np.not_equal(arr[1:], arr[:-1], out=distinct[1:])
    if not distinct.all():
        arr = arr[distinct]
    arr.flags.writeable = False
    return arr


def contains(arr: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Boolean mask: which ``keys`` (a ``uint64`` array) are in element
    array ``arr``.  O(k log n) — binary search, no scan of ``arr``."""
    if not len(arr):
        return np.zeros(len(keys), dtype=bool)
    idx = np.searchsorted(arr, keys)
    idx[idx == len(arr)] = 0
    return arr[idx] == keys


def merge(base: np.ndarray, add: np.ndarray, remove: np.ndarray) -> np.ndarray:
    """A new element array ``(base - remove) | add``.

    ``add`` must be an element array disjoint from ``base``, ``remove`` an
    element array contained in it — the shape of the store's overlay.
    Costs one pass over ``base``.
    """
    out = base
    if len(remove):
        out = np.delete(out, np.searchsorted(out, remove))
    if len(add):
        out = np.insert(out, np.searchsorted(out, add), add)
    if out is base:
        return base
    out.flags.writeable = False
    return out
