"""The Markov-chain transition matrix (Appendix E) against first principles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import markov, success
from repro.analysis.balls_bins import prob_ideal
from repro.analysis.markov import chain_power, transition_matrix
from repro.analysis.optimizer import DEFAULT_N_CANDIDATES, optimize_params
from repro.errors import ParameterError


def _loop_substate_table(n: int, i_max: int) -> np.ndarray:
    """The Appendix-E recurrence one entry at a time: the oracle of
    :func:`repro.analysis.markov._substate_table`."""
    size = i_max + 1
    table = np.zeros((size, size, size), dtype=np.float64)
    table[0, 0, 0] = 1.0
    for i in range(1, size):
        for j in range(0, i + 1):
            for k in range(0, j // 2 + 1):
                if j == 1:
                    continue
                acc = 0.0
                if j >= 2 and k >= 1:
                    acc += (i - j + 1) / n * table[i - 1, j - 2, k - 1]
                if j >= 1:
                    acc += k / n * table[i - 1, j - 1, k]
                empty_frac = 1.0 - (i - 1 - j + k) / n
                if empty_frac > 0:
                    acc += empty_frac * table[i - 1, j, k]
                table[i, j, k] = acc
    return table


class TestStructure:
    def test_rows_sum_to_one(self):
        for n, t in ((63, 8), (127, 13), (255, 17)):
            matrix = transition_matrix(n, t)
            assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_state_zero_is_absorbing(self):
        matrix = transition_matrix(127, 10)
        assert matrix[0, 0] == 1.0
        assert np.allclose(matrix[0, 1:], 0.0)

    def test_single_bad_ball_impossible(self):
        """A lone ball in a bin is good by definition — column 1 is zero."""
        matrix = transition_matrix(127, 13)
        assert np.allclose(matrix[:, 1], 0.0)

    def test_one_ball_always_reconciles(self):
        assert transition_matrix(127, 13)[1, 0] == 1.0

    def test_cannot_increase_bad_balls(self):
        matrix = transition_matrix(63, 10)
        for i in range(11):
            for j in range(i + 1, 11):
                assert matrix[i, j] == 0.0

    def test_success_column_is_ideal_probability(self):
        """M(x, 0) must equal the closed-form ideal-case probability."""
        for n in (63, 127, 255):
            matrix = transition_matrix(n, 13)
            for x in range(14):
                assert matrix[x, 0] == pytest.approx(prob_ideal(x, n), rel=1e-9)

    def test_two_balls_collision_row(self):
        """From state 2: both balls collide with probability 1/n and stay
        bad (state 2), else both good."""
        n = 127
        matrix = transition_matrix(n, 5)
        assert matrix[2, 2] == pytest.approx(1 / n)
        assert matrix[2, 0] == pytest.approx(1 - 1 / n)

    def test_three_ball_row_exact(self):
        """State 3 decomposes exactly: all distinct, one pair (2 bad),
        or all three together (3 bad)."""
        n = 63
        matrix = transition_matrix(n, 5)
        p_all_same = 1 / n**2
        p_distinct = (1 - 1 / n) * (1 - 2 / n)
        p_pair = 1 - p_all_same - p_distinct
        assert matrix[3, 0] == pytest.approx(p_distinct)
        assert matrix[3, 2] == pytest.approx(p_pair)
        assert matrix[3, 3] == pytest.approx(p_all_same)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            transition_matrix(0, 5)
        with pytest.raises(ParameterError):
            transition_matrix(63, -1)


class TestChainPower:
    def test_round_zero_is_identity(self):
        assert np.allclose(chain_power(63, 5, 0), np.eye(6))

    def test_success_increases_with_rounds(self):
        p1 = chain_power(127, 13, 1)[13, 0]
        p2 = chain_power(127, 13, 2)[13, 0]
        p3 = chain_power(127, 13, 3)[13, 0]
        assert p1 < p2 < p3 < 1.0

    def test_converges_to_absorption(self):
        p = chain_power(127, 13, 50)[13, 0]
        assert p == pytest.approx(1.0, abs=1e-9)


class TestMonteCarloValidation:
    def test_one_round_distribution(self):
        """Simulate one throw of x balls into n bins and compare the
        bad-ball count distribution with the matrix row."""
        n, t, x = 63, 10, 7
        matrix = transition_matrix(n, t)
        rng = np.random.default_rng(7)
        trials = 30_000
        outcome = np.zeros(x + 1)
        for _ in range(trials):
            counts = np.bincount(rng.integers(0, n, size=x), minlength=n)
            bad = int(counts[counts >= 2].sum())
            outcome[bad] += 1
        outcome /= trials
        for j in range(x + 1):
            assert outcome[j] == pytest.approx(matrix[x, j], abs=0.01)

    def test_multi_round_absorption(self):
        """Simulate the full multi-round process and compare Pr[x ->r 0]."""
        n, t, x, r = 127, 13, 9, 2
        rng = np.random.default_rng(11)
        trials = 20_000
        successes = 0
        for _ in range(trials):
            remaining = x
            for _ in range(r):
                counts = np.bincount(
                    rng.integers(0, n, size=remaining), minlength=n
                )
                remaining = int(counts[counts >= 2].sum())
                if remaining == 0:
                    break
            successes += remaining == 0
        expected = chain_power(n, t, r)[x, 0]
        assert successes / trials == pytest.approx(expected, abs=0.01)


class TestArrayTables:
    """The vectorized sub-state tables against the scalar recurrence."""

    @pytest.mark.parametrize("n", DEFAULT_N_CANDIDATES)
    def test_sliced_table_is_bit_identical_to_the_loop(self, n):
        for size in markov._TABLE_TS:
            table = markov._substate_table(n, size)
            for t in range(size + 1):
                loop = _loop_substate_table(n, t)
                corner = np.ascontiguousarray(
                    table[: t + 1, : t + 1, : t + 1]
                )
                assert corner.tobytes() == loop.tobytes(), (size, t)
                assert transition_matrix(n, t).tobytes() == (
                    loop.sum(axis=2).tobytes()
                ), (size, t)

    @pytest.mark.parametrize("n, t", [(3, 12), (7, 40), (63, 41)])
    def test_small_bitmaps_and_large_capacities(self, n, t):
        """t > n makes empty fractions negative; t > 35 gets its own table."""
        assert transition_matrix(n, t).tobytes() == (
            _loop_substate_table(n, t).sum(axis=2).tobytes()
        )

    def test_a_fresh_optimizer_builds_one_table_per_n(self):
        for cached in (
            markov._substate_table,
            markov.transition_matrix,
            success._success_table,
            success._candidate_tables,
        ):
            cached.cache_clear()
        optimize_params(1234)
        info = markov._substate_table.cache_info()
        assert info.misses == info.currsize == len(DEFAULT_N_CANDIDATES)

    def test_a_table_is_as_large_as_the_largest_t_asked(self, monkeypatch):
        """§5.1's grid (t <= 17) never builds §5.2's t <= 35 table; a t
        above 17 builds that one, once per n, and t > 35 its own."""
        table, built = markov._substate_table, []

        def spy(n, i_max):
            built.append(i_max)
            return table(n, i_max)

        monkeypatch.setattr(markov, "_substate_table", spy)
        table.cache_clear()
        markov.transition_matrix.cache_clear()
        for t in (1, 8, 17):
            transition_matrix(127, t)
        assert set(built) == {17}
        built.clear()
        for t in (18, 20, 35):
            transition_matrix(127, t)
        assert set(built) == {35}
        built.clear()
        transition_matrix(127, 41)
        assert built == [41]
        assert table.cache_info().misses == 3
