"""Success probabilities: ``Pr[x ->r 0]``, alpha, and the rigorous bound.

Appendix F of the paper: with sets hash-partitioned into g groups, the
per-group difference counts are Binomial(d, 1/g) but *not* independent
(they sum to d).  The per-group success probability is estimated by

    alpha(n, t) = sum_x Pr[X = x] * Pr[x ->r 0],

and the overall probability that all g groups finish within r rounds is
rigorously lower-bounded by ``1 - 2 (1 - alpha^g)`` via the
negative-association argument (Corollary 5.11 of [29]).

Two models for the over-capacity case ``x > t`` are provided:

* ``split_model="none"`` — the paper's *stated* convention (Appendix D):
  ``Pr[x ->r 0] = 0`` for x > t.  Note that this convention cannot
  reproduce the paper's own Table 1: with d=1000, g=200, t=13 the Binomial
  tail P[X > 13] ≈ 6.7e-4 (a value §3.2 itself quotes) alone caps the
  bound at ≈ 0.75, far below the 0.991 the table reports for (127, 13).
* ``split_model="three-way"`` (default) — models what the protocol
  actually does on a BCH decoding failure (§3.2): the group is split into
  three sub-group-pairs, consuming the round, and each sub-pair must then
  reconcile within the remaining rounds (recursively).  This matches the
  implemented protocol and is validated against simulation in the test
  suite; it is mildly more optimistic than Table 1's entries.

See EXPERIMENTS.md for the full discrepancy discussion.

The split model is evaluated bottom-up as a table ``F_r[x]`` for
x = 0..X_MAX, its Multinomial(x; 1/3, 1/3, 1/3) convolutions as matrix
products.  A candidate grid's tables are stacked once, so scoring every
(n, t) for a new d is one product with the Binomial(d, 1/g) pmf.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.analysis.markov import chain_power
from repro.errors import ParameterError

#: Per-group difference counts beyond this value carry negligible Binomial
#: mass for every configuration the paper considers (delta <= 30); they are
#: pessimistically treated as failures.
_X_MAX = 96


def binom_pmf(d: int, p: float, k_max: int) -> np.ndarray:
    """``Pr[X = k]`` for X ~ Binomial(d, p) and k in [0, k_max].

    The recurrence ``pmf[k] = pmf[k-1] * (d-k+1)/k * p/(1-p)`` from
    ``pmf[0] = (1-p)^d``, summed in log space so neither end underflows;
    zero beyond d.  Its relative error against an exact pmf stays below
    1e-12, small enough that the §5.1 optimizer's near-ties resolve the
    same way (a log-gamma pmf, at ~3e-9, flipped three of them).
    """
    out = np.zeros(k_max + 1)
    if p >= 1.0:
        if d <= k_max:
            out[d] = 1.0
        return out
    k = np.arange(1, min(d, k_max) + 1)
    steps = np.log((d - k + 1) / k) + math.log(p / (1.0 - p))
    log_pmf = d * math.log1p(-p) + np.concatenate(([0.0], np.cumsum(steps)))
    out[: len(log_pmf)] = np.exp(log_pmf)
    return out


@lru_cache(maxsize=4)
def _binom_pmf_matrix(p_num: int, p_den: int) -> np.ndarray:
    """``B[x, k] = Binomial(x, p).pmf(k)`` for x, k in [0, X_MAX]."""
    return np.array(
        [binom_pmf(x, p_num / p_den, _X_MAX) for x in range(_X_MAX + 1)]
    )


#: Gather index of :func:`_reflected`: ``x - k``, or the appended 0.
_REFLECT = np.subtract.outer(np.arange(_X_MAX + 1), np.arange(_X_MAX + 1))
_REFLECT[_REFLECT < 0] = _X_MAX + 1


def _reflected(vec: np.ndarray) -> np.ndarray:
    """``R[x, k] = vec[x - k]`` for k <= x and 0 above the diagonal, so
    ``(B * vec * _reflected(other)).sum(axis=1)[x]`` is the convolution
    ``sum_k B[x, k] * vec[k] * other[x - k]``."""
    return np.append(vec, 0.0)[_REFLECT]


@lru_cache(maxsize=512)
def _success_table(n: int, t: int, r: int) -> np.ndarray:
    """``F[x] = Pr[x ->r 0]`` under the three-way-split model, x <= X_MAX."""
    size = _X_MAX + 1
    if r == 0:
        out = np.zeros(size)
        out[0] = 1.0
        return out
    prev = _success_table(n, t, r - 1)
    out = np.zeros(size)
    # In-capacity groups follow the Markov chain directly.
    powered = chain_power(n, t, r)
    top = min(t, _X_MAX)
    out[: top + 1] = powered[: top + 1, 0]
    out[0] = 1.0
    if r == 1:
        return out  # a split consumes the round; x > t cannot finish
    # Over-capacity groups split three ways, each sub-pair then has r - 1
    # rounds.  Multinomial(x; 1/3,1/3,1/3) factored as Binomial(x, 1/3)
    # then Binomial(x - x1, 1/2):
    #   inner[rem] = sum_{x2} B12[rem, x2] * prev[x2] * prev[rem - x2]
    #   out[x]     = sum_{x1} B13[x, x1] * prev[x1] * inner[x - x1]
    b13 = _binom_pmf_matrix(1, 3)
    b12 = _binom_pmf_matrix(1, 2)
    inner = (b12 * prev * _reflected(prev)).sum(axis=1)
    out[t + 1 :] = (b13 * prev * _reflected(inner))[t + 1 :].sum(axis=1)
    return out


def _model_table(n: int, t: int, r: int, split_model: str) -> np.ndarray:
    """``Pr[x ->r 0]`` for x in [0, X_MAX] under ``split_model``."""
    if split_model == "three-way":
        return _success_table(n, t, r)
    out = np.zeros(_X_MAX + 1)
    top = min(t, _X_MAX)
    out[: top + 1] = chain_power(n, t, r)[: top + 1, 0]
    out[0] = 1.0
    return out


def prob_reconcile_within(
    x: int, r: int, n: int, t: int, split_model: str = "three-way"
) -> float:
    """``Pr[x ->r 0]``: x differences fully reconciled within r rounds.

    For x <= t this is Formula (2) of the paper, ``(M^r)(x, 0)``; the
    ``split_model`` governs x > t (see module docstring).
    """
    if x < 0 or r < 0:
        raise ParameterError("x and r must be nonnegative")
    if x == 0:
        return 1.0
    if r == 0:
        return 0.0
    if split_model == "three-way":
        if x > _X_MAX:
            return 0.0
        return float(_success_table(n, t, r)[x])
    if split_model == "none":
        if x > t:
            return 0.0
        return float(chain_power(n, t, r)[x, 0])
    raise ParameterError(f"unknown split_model {split_model!r}")


@lru_cache(maxsize=1024)
def _group_pmf(d: int, g: int) -> np.ndarray:
    """``Pr[X = x]`` for X ~ Binomial(d, 1/g), x in [0, min(d, X_MAX)].

    Depends on (d, g) only, so calls for other round targets, models or
    grids share one vector; it is read-only because every caller gets
    the same one.
    """
    pmf = binom_pmf(d, 1.0 / g, min(d, _X_MAX))
    pmf.flags.writeable = False
    return pmf


@lru_cache(maxsize=64)
def _candidate_tables(
    n_candidates: tuple[int, ...],
    t_candidates: tuple[int, ...],
    r: int,
    split_model: str,
) -> np.ndarray:
    """One :func:`_model_table` row per (n, t), n outer, read-only."""
    rows = np.array([
        _model_table(n, t, r, split_model)
        for n in n_candidates
        for t in t_candidates
    ])
    rows.flags.writeable = False
    return rows


def _alphas(
    n_candidates: tuple[int, ...],
    t_candidates: tuple[int, ...],
    d: int,
    g: int,
    r: int,
    split_model: str,
) -> list[float]:
    """``alpha(n, t)`` of every (n, t), n outer: one product of the
    stacked success tables with the Binomial(d, 1/g) pmf."""
    pmf = _group_pmf(d, g)
    tables = _candidate_tables(
        tuple(n_candidates), tuple(t_candidates), r, split_model
    )
    return (tables[:, : len(pmf)] * pmf).sum(axis=1).tolist()


def group_success_probability(
    n: int, t: int, d: int, g: int, r: int, split_model: str = "three-way"
) -> float:
    """``alpha(n, t)``: per-group success probability, X ~ Binomial(d, 1/g)."""
    return _alphas((n,), (t,), d, g, r, split_model)[0]


def lower_bounds(
    n_candidates: tuple[int, ...],
    t_candidates: tuple[int, ...],
    d: int,
    g: int,
    r: int,
    split_model: str = "three-way",
) -> list[float]:
    """:func:`overall_lower_bound` of every (n, t), n outer, t inner."""
    # alpha^g with g in the hundreds: go through logs for stability.
    return [
        -1.0 if alpha <= 0.0
        else 1.0 - 2.0 * (1.0 - math.exp(g * math.log(alpha)))
        for alpha in _alphas(n_candidates, t_candidates, d, g, r, split_model)
    ]


def overall_lower_bound(
    n: int, t: int, d: int, g: int, r: int, split_model: str = "three-way"
) -> float:
    """Rigorous lower bound ``1 - 2(1 - alpha^g)`` on ``Pr[R <= r]``.

    May be negative for hopeless parameter choices; callers compare it
    against the target p0 directly, as the optimizer does.
    """
    return lower_bounds((n,), (t,), d, g, r, split_model)[0]
