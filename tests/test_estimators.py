"""Difference-cardinality estimators: unbiasedness, variance, coverage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.estimators import MinWiseEstimator, StrataEstimator, ToWEstimator
from repro.hashing.families import _TILE


def _sample_distinct(rng, count: int) -> np.ndarray:
    """Distinct nonzero 32-bit values without materializing the universe."""
    out = np.unique(rng.integers(1, 1 << 32, size=2 * count + 16, dtype=np.uint64))
    rng.shuffle(out)
    return out[:count]


def _pair_arrays(rng, size_a: int, d: int):
    a = _sample_distinct(rng, size_a)
    b = a[: size_a - d]
    return np.sort(a), np.sort(b)


class TestToWBasics:
    def test_identical_sets_estimate_zero(self, rng):
        a, _ = _pair_arrays(rng, 500, 0)
        est = ToWEstimator(seed=1)
        assert est.estimate(est.sketch(a), est.sketch(a)) == 0.0

    def test_empty_sets(self):
        est = ToWEstimator(seed=1)
        empty = est.sketch(np.array([], dtype=np.uint64))
        assert est.estimate(empty, empty) == 0.0

    def test_sketch_values_bounded_by_set_size(self, rng):
        a, _ = _pair_arrays(rng, 300, 0)
        sketch = ToWEstimator(seed=2).sketch(a)
        assert (np.abs(sketch) <= 300).all()

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ToWEstimator(n_sketches=0)
        with pytest.raises(ParameterError):
            ToWEstimator(family="nope")

    def test_conservative_rounds_up(self):
        assert ToWEstimator.conservative(10.0, gamma=1.38) == 14
        assert ToWEstimator.conservative(0.0) == 1


class TestToWStatistics:
    def test_unbiasedness(self, rng):
        """E[d_hat] = d (Appendix A).  Average many independent single-sketch
        estimators and check the mean lands near d."""
        d = 64
        a, b = _pair_arrays(rng, 1000, d)
        est = ToWEstimator(n_sketches=256, seed=3)
        d_hat = est.estimate(est.sketch(a), est.sketch(b))
        # sd of the mean = sqrt((2d^2-2d)/256) ~ 5.6; allow 4 sigma
        assert abs(d_hat - d) < 4 * np.sqrt((2 * d * d - 2 * d) / 256)

    def test_variance_formula(self, rng):
        """Var[single-sketch estimator] = 2d^2 - 2d (Appendix A)."""
        d = 16
        a, b = _pair_arrays(rng, 400, d)
        singles = []
        for i in range(400):
            est = ToWEstimator(n_sketches=1, seed=1000 + i)
            singles.append(est.estimate(est.sketch(a), est.sketch(b)))
        singles = np.array(singles)
        expected_var = 2 * d * d - 2 * d
        assert np.mean(singles) == pytest.approx(d, rel=0.25)
        assert np.var(singles) == pytest.approx(expected_var, rel=0.5)

    def test_gamma_coverage(self, rng):
        """§6.2: Pr[d <= 1.38 * d_hat] >= 0.99 with l = 128 sketches."""
        d = 100
        covered = 0
        trials = 120
        for trial in range(trials):
            local = np.random.default_rng(trial)
            a, b = _pair_arrays(local, 600, d)
            est = ToWEstimator(n_sketches=128, seed=trial, family="fast")
            d_hat = est.estimate(est.sketch(a), est.sketch(b))
            covered += d <= 1.38 * d_hat
        assert covered / trials >= 0.96

    def test_fast_family_statistically_equivalent(self, rng):
        d = 50
        a, b = _pair_arrays(rng, 800, d)
        est = ToWEstimator(n_sketches=256, seed=5, family="fast")
        d_hat = est.estimate(est.sketch(a), est.sketch(b))
        assert abs(d_hat - d) < 25


class TestToWWire:
    def test_paper_sketch_size(self):
        """§6.1: 128 sketches of a 10^6-element set total 336 bytes."""
        est = ToWEstimator(n_sketches=128, seed=0)
        assert est.sketch_bytes(10**6) == 336

    def test_serialize_roundtrip(self, rng):
        a, _ = _pair_arrays(rng, 300, 0)
        est = ToWEstimator(n_sketches=64, seed=6)
        sketch = est.sketch(a)
        data = est.serialize(sketch, 300)
        assert (est.deserialize(data, 300) == sketch).all()


def _per_bit_sketch(est: ToWEstimator, values) -> np.ndarray:
    """The reference for the bit-sliced "fast" family: sketch i is the
    ±1 sum of bit ``i % 64`` of member ``i // 64``'s ``hash_vec``."""
    values = np.asarray(values, dtype=np.uint64)
    hashed = [h.hash_vec(values) for h in est._hashes]
    out = np.zeros(est.n_sketches, dtype=np.int64)
    for i in range(est.n_sketches):
        bits = (hashed[i // 64] >> np.uint64(i % 64)) & np.uint64(1)
        out[i] = int(np.where(bits == 1, 1, -1).sum())
    return out


_ELEMENTS = st.one_of(
    st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**63, 2**64 - 1])
)

_SKETCH_COUNTS = [1, 63, 64, 65, 128, 1024]


class TestToWFastKernel:
    """The bit-sliced "fast" kernel is bit-exact with the per-bit oracle."""

    @given(
        values=st.lists(_ELEMENTS, max_size=200),
        n_sketches=st.sampled_from(_SKETCH_COUNTS),
        seed=st.integers(0, 2**64 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_bit_oracle(self, values, n_sketches, seed):
        est = ToWEstimator(n_sketches=n_sketches, seed=seed, family="fast")
        arr = np.array(values, dtype=np.uint64)
        assert np.array_equal(est.sketch(arr), _per_bit_sketch(est, arr))

    @pytest.mark.parametrize("n_sketches", _SKETCH_COUNTS)
    @pytest.mark.parametrize(
        "values",
        [[], [5], [0], [2**64 - 1], [0, 2**64 - 1], [9, 9, 9, 2, 2]],
        ids=["empty", "single", "zero", "max", "zero-and-max", "duplicates"],
    )
    def test_edge_inputs(self, values, n_sketches):
        est = ToWEstimator(n_sketches=n_sketches, seed=3, family="fast")
        arr = np.array(values, dtype=np.uint64)
        assert np.array_equal(est.sketch(arr), _per_bit_sketch(est, arr))

    @pytest.mark.parametrize(
        "size", [_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 17]
    )
    def test_sizes_around_a_tile(self, rng, size):
        # one tile short, exact, one over, and two full tiles plus a
        # short one: the tile loop's last tile is full or partial
        arr = rng.integers(0, 2**64 - 1, size=size,
                           dtype=np.uint64, endpoint=True)
        est = ToWEstimator(n_sketches=65, seed=8, family="fast")
        assert np.array_equal(est.sketch(arr), _per_bit_sketch(est, arr))

    @pytest.mark.parametrize("n_sketches", _SKETCH_COUNTS)
    def test_one_member_per_64_sketches(self, n_sketches):
        est = ToWEstimator(n_sketches=n_sketches, seed=1, family="fast")
        assert len(est._hashes) == -(-n_sketches // 64)
        assert len(est.sketch(np.arange(10, dtype=np.uint64))) == n_sketches


class TestStrata:
    def test_order_of_magnitude(self, rng):
        for d in (10, 100, 1000):
            a, b = _pair_arrays(rng, 5000, d)
            est = StrataEstimator(seed=7)
            d_hat = est.estimate(est.build(a), est.build(b))
            assert d / 4 <= max(d_hat, 1) <= d * 4

    def test_identical_sets(self, rng):
        a, _ = _pair_arrays(rng, 1000, 0)
        est = StrataEstimator(seed=8)
        assert est.estimate(est.build(a), est.build(a)) == 0.0

    def test_wire_cost_much_larger_than_tow(self):
        """Appendix B: Strata needs far more space than ToW."""
        strata = StrataEstimator(seed=0)
        tow = ToWEstimator(n_sketches=128, seed=0)
        assert strata.wire_bytes() > 20 * tow.sketch_bytes(10**6)

    def test_validation(self):
        with pytest.raises(ParameterError):
            StrataEstimator(n_strata=0)


class TestMinWise:
    def test_identical_sets(self, rng):
        a, _ = _pair_arrays(rng, 800, 0)
        est = MinWiseEstimator(n_hashes=128, seed=9)
        sig = est.signature(a)
        assert est.estimate(sig, sig, 800, 800) == 0.0

    def test_order_of_magnitude(self, rng):
        d = 400
        a, b = _pair_arrays(rng, 2000, d)
        est = MinWiseEstimator(n_hashes=512, seed=10)
        d_hat = est.estimate(est.signature(a), est.signature(b), len(a), len(b))
        assert d / 3 <= d_hat <= d * 3

    def test_empty_signature(self):
        est = MinWiseEstimator(n_hashes=16, seed=11)
        sig = est.signature(np.array([], dtype=np.uint64))
        assert (sig == np.iinfo(np.uint64).max).all()

    def test_validation(self):
        with pytest.raises(ParameterError):
            MinWiseEstimator(n_hashes=0)
