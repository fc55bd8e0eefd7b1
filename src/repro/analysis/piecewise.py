"""Piecewise reconciliability analysis (§5.3, Appendix G).

How many of the d distinct elements does PBS reconcile in round 1, round 2,
...?  For one group with x initial differences,

    E[Z_1 + ... + Z_k | x] = sum_y (x - y) * Pr[x ->k y]
                           = x - E[remaining after k rounds],

and unconditioning over x ~ Binomial(d, 1/g) and differencing over k gives
the expected count reconciled in each round.  The paper's headline instance
(d = 1000, n = 127, t = 13) yields round proportions 0.962, 0.0380,
3.61e-4, 2.86e-6 — the basis of the claim that the first round carries
over 95% of the work (and hence of the communication).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.markov import transition_matrix
from repro.analysis.success import binom_pmf


def expected_cumulative_reconciled(
    x: int, k: int, n: int, t: int
) -> float:
    """``E[Z_1 + ... + Z_k | delta_1 = x]`` (Equation (6) of the paper)."""
    if x == 0:
        return 0.0
    powered = np.linalg.matrix_power(transition_matrix(n, t), k)
    ys = np.arange(t + 1)
    return float(((x - ys) * powered[x, : t + 1]).sum())


def expected_round_proportions(
    d: int, g: int, n: int, t: int, rounds: int = 4
) -> list[float]:
    """Expected fraction of the d elements reconciled in each round 1..rounds.

    Group differences above t are truncated (consistent with Appendix D's
    pessimistic convention); their Binomial mass is negligible for sane
    parameters.
    """
    pmf = binom_pmf(d, 1.0 / g, t)
    matrix = transition_matrix(n, t)
    xs = np.arange(t + 1, dtype=np.float64)

    cumulative: list[float] = []
    powered = np.eye(t + 1)
    for _ in range(rounds):
        powered = powered @ matrix
        remaining = powered[: t + 1, : t + 1] @ xs  # E[left after k | x]
        expected = float((pmf * (xs - remaining)).sum())  # E[reconciled by k]
        cumulative.append(expected)

    per_round = [cumulative[0]] + [
        cumulative[k] - cumulative[k - 1] for k in range(1, rounds)
    ]
    delta = d / g
    return [v / delta for v in per_round]
