"""Success-probability models, optimizer and piecewise analysis (§5, App. F-H)."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest

from repro.analysis.markov import chain_power
from repro.analysis.optimizer import (
    DEFAULT_N_CANDIDATES,
    OptimalParams,
    default_t_candidates,
    groups_for,
    lower_bound_grid,
    optimize_params,
    sweep_round_targets,
)
from repro.analysis.piecewise import (
    expected_cumulative_reconciled,
    expected_round_proportions,
)
from repro.analysis import success
from repro.analysis.success import (
    group_success_probability,
    overall_lower_bound,
    prob_reconcile_within,
)
from repro.errors import ParameterError


class TestProbReconcileWithin:
    def test_zero_differences_always_succeed(self):
        assert prob_reconcile_within(0, 0, 127, 13) == 1.0
        assert prob_reconcile_within(0, 3, 127, 13, "none") == 1.0

    def test_zero_rounds_fail_nonzero(self):
        assert prob_reconcile_within(3, 0, 127, 13) == 0.0

    def test_none_model_truncates_over_capacity(self):
        assert prob_reconcile_within(14, 3, 127, 13, "none") == 0.0

    def test_split_model_recovers_over_capacity(self):
        p = prob_reconcile_within(14, 3, 127, 13, "three-way")
        assert 0.9 < p < 1.0

    def test_split_needs_at_least_two_rounds(self):
        assert prob_reconcile_within(14, 1, 127, 13, "three-way") == 0.0

    def test_models_agree_in_capacity(self):
        for x in range(1, 14):
            assert prob_reconcile_within(x, 2, 127, 13, "none") == pytest.approx(
                prob_reconcile_within(x, 2, 127, 13, "three-way")
            )

    def test_monotone_in_rounds(self):
        ps = [prob_reconcile_within(10, r, 127, 13) for r in range(1, 5)]
        assert ps == sorted(ps)

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError):
            prob_reconcile_within(3, 2, 127, 13, "bogus")

    def test_negative_inputs_rejected(self):
        with pytest.raises(ParameterError):
            prob_reconcile_within(-1, 2, 127, 13)


class TestBound:
    def test_paper_tail_argument(self):
        """The §3.2 number: P[X > 13] ≈ 6.7e-4 for X ~ Binomial(1000, 1/200).
        This is what caps the truncation model's bound (see EXPERIMENTS.md)."""
        from scipy import stats

        tail = float(stats.binom.sf(13, 1000, 1 / 200))
        assert tail == pytest.approx(6.7e-4, rel=0.15)
        bound_none = overall_lower_bound(127, 13, 1000, 200, 3, "none")
        # alpha <= 1 - tail -> bound <= 1 - 2(1 - (1-tail)^200)
        cap = 1 - 2 * (1 - (1 - tail) ** 200)
        assert bound_none <= cap + 1e-6

    def test_split_model_is_more_optimistic(self):
        for n, t in ((127, 13), (255, 10), (63, 11)):
            assert overall_lower_bound(n, t, 1000, 200, 3, "three-way") >= (
                overall_lower_bound(n, t, 1000, 200, 3, "none")
            )

    def test_bound_monotone_in_n_and_t(self):
        grid = lower_bound_grid(1000, delta=5, r=3)
        for t in default_t_candidates(5):
            row = [grid[(n, t)] for n in (63, 127, 255, 511, 1023, 2047)]
            assert all(b >= a - 1e-9 for a, b in zip(row, row[1:]))
        for n in (63, 127, 255):
            col = [grid[(n, t)] for t in default_t_candidates(5)]
            assert all(b >= a - 1e-9 for a, b in zip(col, col[1:]))

    def test_alpha_close_to_one_for_good_params(self):
        alpha = group_success_probability(127, 13, 1000, 200, 3)
        assert alpha > 0.999

    def test_paper_feasibility_structure(self):
        """Table 1's qualitative structure: (63, t) never reaches 99%,
        (127, 13) and (255, 11) do."""
        assert overall_lower_bound(63, 17, 1000, 200, 3) < 0.99
        assert overall_lower_bound(127, 13, 1000, 200, 3) >= 0.99
        assert overall_lower_bound(255, 11, 1000, 200, 3) >= 0.99


class TestOptimizer:
    def test_groups_for(self):
        assert groups_for(1000, 5) == 200
        assert groups_for(3, 5) == 1
        assert groups_for(12, 5) == 2

    def test_default_t_range_matches_paper(self):
        """§3.1/§5.1: t in [1.5*delta, 3.5*delta] = 8..17 for delta=5."""
        assert default_t_candidates(5) == tuple(range(8, 18))

    def test_optimum_is_feasible_and_minimal(self):
        best = optimize_params(1000, delta=5, r=3, p0=0.99)
        assert best.bound >= 0.99
        grid = lower_bound_grid(1000, delta=5, r=3)
        for (n, t), bound in grid.items():
            if bound >= 0.99:
                m = (n + 1).bit_length() - 1
                assert best.objective_bits <= (t + 5) * m

    def test_none_model_pays_capacity_premium(self):
        """Under the literal truncation model the whole Binomial tail
        P[X > t] counts as failure, so feasibility at r=3 requires pushing
        t to the top of the grid (t = 17, tail ~5e-6) — a premium over the
        split-aware optimum (see EXPERIMENTS.md)."""
        literal = optimize_params(1000, delta=5, r=3, p0=0.99, split_model="none")
        split = optimize_params(1000, delta=5, r=3, p0=0.99, split_model="three-way")
        assert literal.t == 17
        assert literal.objective_bits > split.objective_bits

    def test_infeasible_raises(self):
        with pytest.raises(ParameterError):
            optimize_params(10**6, delta=5, r=1, p0=0.9999)

    def test_formula_one_accounting(self):
        best = optimize_params(1000)
        per_group = best.first_round_bits_per_group(32)
        assert per_group == best.objective_bits + 5 * 32 + 32
        assert best.total_first_round_bits(32) == best.g * per_group

    def test_sweep_round_targets_shape(self):
        """§5.2's qualitative claim: overhead drops sharply from r=1 to
        r=3, then only slightly to r=4 (r=3 is the sweet spot)."""
        sweep = sweep_round_targets(1000, delta=5, p0=0.99)
        bits = {r: p.first_round_bits_per_group(32) for r, p in sweep.items()}
        assert bits[1] > bits[2] > bits[3] >= bits[4]
        drop_12 = bits[1] - bits[2]
        drop_34 = bits[3] - bits[4]
        assert drop_12 > 3 * drop_34

    def test_sweep_r1_needs_giant_bitmap(self):
        """One round leaves no retry: n must be Omega(d^2)-ish per group."""
        sweep = sweep_round_targets(1000, delta=5, p0=0.99, r_values=(1,))
        assert sweep[1].n >= 2**15 - 1

    def test_immutable_result(self):
        best = optimize_params(100)
        assert isinstance(best, OptimalParams)
        with pytest.raises(AttributeError):
            best.n = 1  # frozen dataclass


class TestBinomialPmfMemo:
    """The optimizer's Binomial(d, 1/g) pmf is computed once per (d, g)."""

    D_GRID = (1, 2, 7, 40, 96, 97, 250, 1000, 1381, 4000, 25_000)

    @staticmethod
    def _results() -> list:
        out: list = []
        for split_model in ("three-way", "none"):
            for d in TestBinomialPmfMemo.D_GRID:
                try:
                    out.append(optimize_params(d, split_model=split_model))
                except ParameterError as exc:
                    out.append(str(exc))
                out.append(lower_bound_grid(d, split_model=split_model))
        return out

    def test_memo_changes_no_result(self, monkeypatch):
        cached = self._results()
        monkeypatch.setattr(
            success, "_group_pmf", success._group_pmf.__wrapped__
        )
        assert self._results() == cached

    def test_one_optimizer_call_computes_the_pmf_once(self):
        success._group_pmf.cache_clear()
        optimize_params(1234)
        info = success._group_pmf.cache_info()
        # one lookup in all: every candidate is scored from one product
        assert (info.misses, info.hits) == (1, 0)

    def test_shared_pmf_is_read_only(self):
        with pytest.raises(ValueError):
            success._group_pmf(100, 20)[0] = 1.0


class TestPiecewise:
    def test_paper_proportions_instance(self):
        """§5.3: with d=1000, g=200, (n, t) = (127, 13), the expected
        per-round reconciled proportions are 0.962, 0.0380, 3.61e-4,
        2.86e-6."""
        props = expected_round_proportions(1000, 200, 127, 13, rounds=4)
        assert props[0] == pytest.approx(0.962, abs=0.01)
        assert props[1] == pytest.approx(0.0380, rel=0.05)
        assert props[2] == pytest.approx(3.61e-4, rel=0.05)
        assert props[3] == pytest.approx(2.86e-6, rel=0.1)

    def test_proportions_sum_to_one_minus_tail(self):
        """The sum falls short of 1 only by the truncated Binomial tail
        mass E[X; X > t]/delta ~ 2e-3 (Appendix D's pessimistic convention)."""
        props = expected_round_proportions(1000, 200, 127, 13, rounds=8)
        assert sum(props) == pytest.approx(1.0, abs=5e-3)
        assert sum(props) < 1.0

    def test_first_round_dominates(self):
        """The >95% first-round claim that justifies Formula (1)."""
        props = expected_round_proportions(1000, 200, 127, 13, rounds=4)
        assert props[0] > 0.95

    def test_cumulative_conditional(self):
        # E[reconciled within k | x] increases with k and is bounded by x
        vals = [
            expected_cumulative_reconciled(10, k, 127, 13) for k in range(1, 5)
        ]
        assert vals == sorted(vals)
        assert vals[-1] <= 10.0
        assert vals[-1] == pytest.approx(10.0, abs=1e-3)

    def test_zero_differences(self):
        assert expected_cumulative_reconciled(0, 3, 127, 13) == 0.0


@lru_cache(maxsize=None)
def _loop_success_table(n: int, t: int, r: int) -> np.ndarray:
    """The three-way split recursion one sum per entry: the oracle of
    :func:`repro.analysis.success._success_table`."""
    size = success._X_MAX + 1
    out = np.zeros(size)
    if r == 0:
        out[0] = 1.0
        return out
    prev = _loop_success_table(n, t, r - 1)
    top = min(t, success._X_MAX)
    out[: top + 1] = chain_power(n, t, r)[: top + 1, 0]
    out[0] = 1.0
    if r == 1:
        return out
    b13 = success._binom_pmf_matrix(1, 3)
    b12 = success._binom_pmf_matrix(1, 2)
    inner = np.array([
        float((b12[rem, : rem + 1] * prev[: rem + 1] * prev[rem::-1]).sum())
        for rem in range(size)
    ])
    for x in range(t + 1, size):
        out[x] = float((b13[x, : x + 1] * prev[: x + 1] * inner[x::-1]).sum())
    return out


def _loop_optimize(d: int, split_model: str, delta: int = 5, r: int = 3,
                   p0: float = 0.99):
    """§5.1 one candidate at a time: ``(objective, bound, n, t)``."""
    g = groups_for(d, delta)
    pmf = success._group_pmf(d, g)
    best = None
    for n in DEFAULT_N_CANDIDATES:
        m = (n + 1).bit_length() - 1
        for t in default_t_candidates(delta):
            table = success._model_table(n, t, r, split_model)
            alpha = float((pmf * table[: len(pmf)]).sum())
            if alpha <= 0.0:
                bound = -1.0
            else:
                bound = 1.0 - 2.0 * (1.0 - math.exp(g * math.log(alpha)))
            if bound < p0:
                continue
            objective = (t + delta) * m
            if (
                best is None
                or objective < best[0]
                or (objective == best[0] and bound > best[1])
            ):
                best = (objective, bound, n, t)
    return best


class TestArrayOptimizer:
    """The array-form tables and the one-pass scoring against loops."""

    @pytest.mark.parametrize("n", DEFAULT_N_CANDIDATES)
    def test_success_tables_match_the_loop(self, n):
        for t in (1, *default_t_candidates(5), 35):
            for r in range(5):
                np.testing.assert_allclose(
                    success._success_table(n, t, r),
                    _loop_success_table(n, t, r),
                    rtol=1e-12, atol=0,
                )

    @pytest.mark.parametrize("split_model", ["three-way", "none"])
    def test_batched_selection_equals_the_loop(self, split_model):
        # 68,154 / 163,505 / 163,699 are the optimizer's known near-ties
        for d in (*range(1, 3001), 68_154, 163_505, 163_699):
            try:
                best = optimize_params(d, split_model=split_model)
                got = (best.objective_bits, best.bound, best.n, best.t)
            except ParameterError:
                got = None
            assert got == _loop_optimize(d, split_model), d

    def test_batched_bounds_equal_the_scalar_bound(self):
        grid = lower_bound_grid(1381)
        for (n, t), bound in grid.items():
            assert bound == overall_lower_bound(n, t, 1381, 276, 3)
