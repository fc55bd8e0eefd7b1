"""Transition matrix of the PBS Markov chain (§4, Appendix E).

State i = number of yet-unreconciled distinct elements ("bad balls") at the
start of a round; one round throws them uniformly into n bins and a ball is
"good" (reconciled) iff it lands alone.  ``M(i, j)`` is the probability
that throwing i balls leaves j of them bad.

Direct summation over occupancy configurations explodes combinatorially
(Appendix E quotes 2.47e12 atom states at j = 13), so the paper decomposes
each state j into sub-states (j, k) — j bad balls occupying exactly k bad
bins — and derives a recurrence by throwing the i-th ball "in slow motion":

  Mt(i, j, k) = (i-j+1)/n       * Mt(i-1, j-2, k-1)   # lands on a good ball
              + k/n             * Mt(i-1, j-1, k)     # lands in a bad bin
              + (1-(i-1-j+k)/n) * Mt(i-1, j, k)       # lands in an empty bin

with Mt(0, 0, 0) = 1.  The full (t+1)^3 table costs O(t^3) — trivial for
the t <= ~35 used anywhere in the paper — and is built once per n and
size (:data:`_TABLE_TS`), one array step per i, then sliced for every
smaller t.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.errors import ParameterError


#: Table sizes, smallest first; a t is sliced from the first that holds
#: it.  With delta = 5, t <= 17 covers §5.1's grid (t <= 3.5 * delta,
#: the one the server asks) and t <= 35 §5.2's (7 * delta), so each grid
#: builds one table per n, and the server never pays for the larger one.
_TABLE_TS = (17, 35)


@lru_cache(maxsize=64)
def _substate_table(n: int, i_max: int) -> np.ndarray:
    """The Mt(i, j, k) table for i, j, k in [0, i_max].

    Row i depends on row i - 1 only, so a table built for a larger i_max
    holds the smaller ones as its leading corner.  Each row is one
    vectorized step over (j, k); terms the recurrence skips (j < 2 or
    k < 1, a non-positive empty fraction) enter as +0.0, which leaves
    every sum bit-for-bit what the scalar recurrence computes.
    """
    size = i_max + 1
    table = np.zeros((size, size, size), dtype=np.float64)
    table[0, 0, 0] = 1.0
    j = np.arange(size)[:, None]
    k = np.arange(size)
    for i in range(1, size):
        prev, rows = table[i - 1], i + 1
        # the i-th ball lands on a good ball, in a bad bin, in an empty bin
        on_good = np.zeros((rows, size))
        on_good[2:, 1:] = (i - j[2:rows] + 1) / n * prev[: rows - 2, :-1]
        in_bad = np.zeros((rows, size))
        in_bad[1:] = k / n * prev[: rows - 1]
        empty_frac = np.maximum(1.0 - (i - 1 - j[:rows] + k) / n, 0.0)
        # j bad balls occupy k bad bins, each holding >= 2 of them, so
        # j = 1 and k > j // 2 stay 0 (their every term reads a 0)
        table[i, :rows] = on_good + in_bad + empty_frac * prev[:rows]
    return table


@lru_cache(maxsize=256)
def transition_matrix(n: int, t: int) -> np.ndarray:
    """The (t+1) x (t+1) transition matrix ``M`` for bitmap size n.

    ``M[i, j] = Pr[j balls remain bad | i balls thrown into n bins]``.
    Row sums are exactly 1 (the chain is honest on states 0..t because a
    round never *increases* the number of bad balls).
    """
    if t < 0:
        raise ParameterError(f"t must be >= 0, got {t}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    table = _substate_table(
        n, next((size for size in _TABLE_TS if t <= size), t)
    )
    # a contiguous (t+1)^3 copy sums in the same order as a table built
    # for t alone
    return np.ascontiguousarray(table[: t + 1, : t + 1, : t + 1]).sum(axis=2)


def chain_power(n: int, t: int, r: int) -> np.ndarray:
    """``M^r`` — r rounds of the chain."""
    return np.linalg.matrix_power(transition_matrix(n, t), r)
