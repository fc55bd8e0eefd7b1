"""Hashing substrates: splitmix64 mixer, salted family, 4-wise family."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    FourWiseHash,
    SaltedHash,
    bucket_of,
    mix64,
    mix64_vec,
    mulmod_p61,
    mulmod_p61_vec,
)
from repro.hashing.families import bucket_many
from repro.hashing.fourwise import P61


class TestMix64:
    def test_scalar_vector_agree(self, rng):
        xs = rng.integers(0, 1 << 63, size=500, dtype=np.uint64)
        vec = mix64_vec(xs)
        for x, v in zip(xs[:64], vec[:64]):
            assert mix64(int(x)) == int(v)

    def test_is_a_permutation_on_sample(self, rng):
        xs = rng.integers(0, 1 << 63, size=10_000, dtype=np.uint64)
        assert len(np.unique(mix64_vec(xs))) == len(np.unique(xs))


class TestSaltedHash:
    def test_scalar_vector_agree(self, rng):
        h = SaltedHash(123)
        xs = rng.integers(1, 1 << 32, size=256, dtype=np.uint64)
        vec = h.hash_vec(xs)
        for x, v in zip(xs, vec):
            assert h(int(x)) == int(v)

    def test_different_salts_decorrelate(self, rng):
        xs = rng.integers(1, 1 << 32, size=4096, dtype=np.uint64)
        b1 = SaltedHash(1).bucket_vec(xs, 2)
        b2 = SaltedHash(2).bucket_vec(xs, 2)
        agree = float((b1 == b2).mean())
        assert 0.45 < agree < 0.55  # independent fair coins

    def test_bucket_uniformity_chi_square(self, rng):
        n_buckets = 64
        xs = rng.integers(1, 1 << 32, size=64_000, dtype=np.uint64)
        counts = np.bincount(
            SaltedHash(9).bucket_vec(xs, n_buckets), minlength=n_buckets
        )
        expected = len(xs) / n_buckets
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # dof = 63; mean 63, sd ~11; 200 is a ~12-sigma guard band
        assert chi2 < 200

    def test_bucket_many_matches_each_member(self, rng):
        hashes = [SaltedHash(3), SaltedHash(7), SaltedHash(2**63 + 5)]
        buckets = [3, 5, 2]
        xs = rng.integers(1, 1 << 32, size=300, dtype=np.uint64)
        which = rng.integers(0, 3, size=300)
        got = bucket_many(xs, hashes, which, buckets)
        for i, h in enumerate(hashes):
            mask = which == i
            assert (got[mask] == h.bucket_vec(xs[mask], buckets[i])).all()

    def test_bucket_of_convenience(self):
        assert bucket_of(5, 7, 10) == SaltedHash(7).bucket(5, 10)

    def test_bit_is_balanced(self, rng):
        xs = rng.integers(1, 1 << 32, size=20_000, dtype=np.uint64)
        h = SaltedHash(5)
        ones = sum(h.bit(int(x)) for x in xs[:2000])
        assert 800 < ones < 1200


class TestMulmodP61:
    @given(st.integers(0, P61 - 1), st.integers(0, P61 - 1))
    @settings(max_examples=200)
    def test_vector_matches_int_math(self, a, b):
        got = mulmod_p61_vec(
            np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64)
        )[0]
        assert int(got) == mulmod_p61(a, b)

    def test_bulk_against_reference(self, rng):
        a = rng.integers(0, P61, size=3000, dtype=np.uint64)
        b = rng.integers(0, P61, size=3000, dtype=np.uint64)
        got = mulmod_p61_vec(a, b)
        ref = [(int(x) * int(y)) % P61 for x, y in zip(a, b)]
        assert [int(v) for v in got] == ref

    def test_edge_values(self):
        edges = np.array([0, 1, 2, P61 - 1, P61 - 2, 1 << 32, (1 << 61) - 2],
                         dtype=np.uint64)
        for a in edges:
            for b in edges:
                got = mulmod_p61_vec(np.array([a]), np.array([b]))[0]
                assert int(got) == (int(a) * int(b)) % P61


class TestFourWise:
    def test_scalar_vector_agree(self, rng):
        f = FourWiseHash(seed=11)
        xs = rng.integers(1, 1 << 32, size=128, dtype=np.uint64)
        vec = f.hash_vec(xs)
        for x, v in zip(xs, vec):
            assert f(int(x)) == int(v)

    def test_signs_are_plus_minus_one(self, rng):
        f = FourWiseHash(seed=3)
        xs = rng.integers(1, 1 << 32, size=1000, dtype=np.uint64)
        signs = f.signs(xs)
        assert set(np.unique(signs)) <= {-1, 1}

    def test_signs_balanced(self, rng):
        f = FourWiseHash(seed=5)
        xs = rng.integers(1, 1 << 32, size=50_000, dtype=np.uint64)
        mean = float(f.signs(xs).mean())
        assert abs(mean) < 0.02

    def test_pairwise_sign_products_unbiased(self, rng):
        """E[f(x) f(y)] = 0 for distinct x, y — the key ToW requirement."""
        xs = rng.integers(1, 1 << 32, size=2000, dtype=np.uint64)
        ys = xs + np.uint64(1)
        acc = 0.0
        n_funcs = 50
        for i in range(n_funcs):
            f = FourWiseHash(seed=1000 + i)
            acc += float((f.signs(xs) * f.signs(ys)).mean())
        assert abs(acc / n_funcs) < 0.02

    def test_distinct_seeds_distinct_functions(self):
        f1, f2 = FourWiseHash(seed=1), FourWiseHash(seed=2)
        xs = np.arange(1, 2001, dtype=np.uint64)
        assert (f1.signs(xs) != f2.signs(xs)).any()
