"""Parameter optimization for PBS (§5.1, §5.2, Appendix H).

Find, among the practical bitmap sizes ``n in {63, 127, ..., 2047}`` and
capacities ``t in [ceil(1.5*delta), floor(3.5*delta)]``, the combination
minimizing the non-constant first-round overhead ``(t + delta) * log2(n+1)``
subject to the rigorous success-probability bound meeting the target p0.

The bound is computed under a configurable over-capacity model (see
:mod:`repro.analysis.success`): ``split_model="three-way"`` (default)
models the protocol's actual §3.2 recovery behaviour and certifies slightly
cheaper parameters than the paper's Table 1; ``split_model="none"`` is the
paper's stated truncation convention.  EXPERIMENTS.md quantifies the
difference; the protocol-level tests validate the default empirically.

For small round targets (r = 1, 2) the practical n grid is infeasible —
a single round must avoid *all* bin collisions, which needs n = Omega(d^2)
per group.  :func:`sweep_round_targets` therefore widens the grid; the
paper's §5.2 instance (d=1000, p0=0.99, r=1 → 591 bits/group) back-solves
to exactly (n = 2^19 - 1, t = 16), which the widened grid finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from repro.analysis.success import lower_bounds
from repro.errors import ParameterError

#: Practical bitmap sizes (§5.1): n = 2^m - 1 for m = 6..11.
DEFAULT_N_CANDIDATES: tuple[int, ...] = (63, 127, 255, 511, 1023, 2047)

#: Extended grid for small round targets (§5.2): m = 6..21.
WIDE_N_CANDIDATES: tuple[int, ...] = tuple((1 << m) - 1 for m in range(6, 22))


@dataclass(frozen=True)
class OptimalParams:
    """Result of the (n, t) optimization for one configuration."""

    n: int          #: parity-bitmap length (2^m - 1)
    t: int          #: BCH error-correction capacity per group
    m: int          #: log2(n + 1); bits per codeword symbol / position
    g: int          #: number of group pairs
    delta: int      #: average differences per group (d / g)
    r: int          #: target number of rounds
    p0: float       #: target success probability
    bound: float    #: achieved rigorous lower bound on Pr[R <= r]
    objective_bits: float  #: (t + delta) * m, the minimized objective

    def first_round_bits_per_group(self, log_u: int = 32) -> float:
        """Formula (1): full expected first-round bits for one group pair."""
        return self.objective_bits + self.delta * log_u + log_u

    def total_first_round_bits(self, log_u: int = 32) -> float:
        """First-round bits across all g group pairs."""
        return self.g * self.first_round_bits_per_group(log_u)


def groups_for(d: int, delta: int) -> int:
    """Number of groups ``g = d / delta`` (at least 1)."""
    return max(1, round(d / delta))


def default_t_candidates(delta: int) -> tuple[int, ...]:
    """The §3.1 capacity range: t in [ceil(1.5*delta), floor(3.5*delta)]."""
    return tuple(range(math.ceil(1.5 * delta), math.floor(3.5 * delta) + 1))


def optimize_params(
    d: int,
    delta: int = 5,
    r: int = 3,
    p0: float = 0.99,
    n_candidates: tuple[int, ...] = DEFAULT_N_CANDIDATES,
    t_candidates: tuple[int, ...] | None = None,
    split_model: str = "three-way",
) -> OptimalParams:
    """The §5.1 optimization: minimal overhead meeting ``Pr[R <= r] >= p0``.

    Raises :class:`ParameterError` when no candidate combination meets the
    target (callers should then raise r or widen the candidate grids).
    """
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    g = groups_for(d, delta)
    if t_candidates is None:
        t_candidates = default_t_candidates(delta)
    for n in n_candidates:
        m = (n + 1).bit_length() - 1
        if n != (1 << m) - 1:
            raise ParameterError(f"n={n} is not of the form 2^m - 1")
    bounds = lower_bounds(n_candidates, t_candidates, d, g, r, split_model)
    best: OptimalParams | None = None
    for (n, t), bound in zip(product(n_candidates, t_candidates), bounds):
        if bound < p0:
            continue
        m = (n + 1).bit_length() - 1
        objective = (t + delta) * m
        if (
            best is None
            or objective < best.objective_bits
            or (objective == best.objective_bits and bound > best.bound)
        ):
            best = OptimalParams(
                n=n, t=t, m=m, g=g, delta=delta, r=r, p0=p0,
                bound=bound, objective_bits=objective,
            )
    if best is None:
        raise ParameterError(
            f"no (n, t) combination meets p0={p0} for d={d}, delta={delta}, r={r}; "
            "increase r or widen the candidate grids"
        )
    return best


def lower_bound_grid(
    d: int,
    delta: int = 5,
    r: int = 3,
    n_candidates: tuple[int, ...] = DEFAULT_N_CANDIDATES,
    t_candidates: tuple[int, ...] | None = None,
    split_model: str = "three-way",
) -> dict[tuple[int, int], float]:
    """The Table-1 grid: lower-bound value for every (n, t) combination."""
    g = groups_for(d, delta)
    if t_candidates is None:
        t_candidates = default_t_candidates(delta)
    bounds = lower_bounds(n_candidates, t_candidates, d, g, r, split_model)
    return dict(zip(product(n_candidates, t_candidates), bounds))


def sweep_round_targets(
    d: int,
    delta: int = 5,
    p0: float = 0.99,
    r_values: tuple[int, ...] = (1, 2, 3, 4),
    split_model: str = "three-way",
) -> dict[int, OptimalParams]:
    """§5.2: optimal parameters (and overheads) for each target r.

    Searches the widened grid (n up to 2^21 - 1, t up to 7*delta) so that
    even r = 1 — which requires a collision-free single round and hence a
    very large bitmap — is feasible.  The paper's instance (d=1000,
    p0=0.99) yields per-group first-round overheads of 591 / 402 / 318 /
    288 bits for r = 1 / 2 / 3 / 4.
    """
    t_grid = tuple(range(math.ceil(1.5 * delta), 7 * delta + 1))
    out: dict[int, OptimalParams] = {}
    for r in r_values:
        out[r] = optimize_params(
            d,
            delta=delta,
            r=r,
            p0=p0,
            n_candidates=WIDE_N_CANDIDATES,
            t_candidates=t_grid,
            split_model=split_model,
        )
    return out
