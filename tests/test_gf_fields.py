"""Finite-field backends: axioms, cross-validation, table integrity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.gf import (
    CarrylessField,
    PRIMITIVE_POLYS,
    TableField,
    TowerField32,
    field_for,
)
from repro.gf.carryless_field import clmul, poly_mod_int

# Built once: construction walks GF(2^16)'s whole multiplicative group,
# which alone can exceed hypothesis's per-example deadline.
GF32 = TowerField32()


class TestTableFieldConstruction:
    @pytest.mark.parametrize("m", list(range(2, 17)))
    def test_stock_polynomials_are_primitive(self, m):
        """Construction walks the full multiplicative group, which fails
        loudly for non-primitive polynomials — so constructing every stock
        field is itself the primitivity proof."""
        field = TableField(m)
        assert field.order == (1 << m) - 1
        # exp/log are mutually inverse bijections
        assert sorted(field.exp_table[: field.order]) == list(
            range(1, field.order + 1)
        )

    def test_non_primitive_polynomial_rejected(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but has order 5, not 15
        with pytest.raises(ParameterError):
            TableField(4, poly=0b11111)

    def test_m_too_large_rejected(self):
        with pytest.raises(ParameterError):
            TableField(17)

    def test_m_too_small_rejected(self):
        with pytest.raises(ParameterError):
            TableField(1)


class TestFieldAxiomsExhaustiveGF16:
    """Exhaustive verification on the smallest interesting field."""

    field = TableField(4)

    def test_multiplication_commutative(self):
        f = self.field
        for a in range(16):
            for b in range(16):
                assert f.mul(a, b) == f.mul(b, a)

    def test_multiplication_associative(self):
        f = self.field
        for a in range(1, 16):
            for b in range(1, 16):
                for c in range(1, 16):
                    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)

    def test_distributivity(self):
        f = self.field
        for a in range(16):
            for b in range(16):
                for c in range(16):
                    assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    def test_inverses(self):
        f = self.field
        for a in range(1, 16):
            assert f.mul(a, f.inv(a)) == 1

    def test_frobenius_is_additive(self):
        f = self.field
        for a in range(16):
            for b in range(16):
                assert f.sqr(a ^ b) == f.sqr(a) ^ f.sqr(b)

    def test_sqrt_inverts_square(self):
        f = self.field
        for a in range(16):
            assert f.sqrt(f.sqr(a)) == a

    def test_trace_is_gf2_valued_and_balanced(self):
        f = self.field
        traces = [f.trace(a) for a in range(16)]
        assert set(traces) <= {0, 1}
        assert traces.count(1) == 8  # exactly half for a nondegenerate form


@st.composite
def gf8_pair(draw):
    return draw(st.integers(0, 255)), draw(st.integers(0, 255))


class TestTableFieldProperties:
    @given(gf8_pair())
    @settings(max_examples=300)
    def test_mul_matches_carryless_reference(self, pair):
        a, b = pair
        table = field_for(8)
        ref = CarrylessField(8, poly=PRIMITIVE_POLYS[8])
        assert table.mul(a, b) == ref.mul(a, b)

    @given(st.integers(1, 255), st.integers(0, 300))
    @settings(max_examples=200)
    def test_pow_matches_iterated_mul(self, a, k):
        f = field_for(8)
        expected = 1
        for _ in range(k):
            expected = f.mul(expected, a)
        assert f.pow(a, k) == expected

    def test_pow_zero_conventions(self, gf8):
        assert gf8.pow(0, 0) == 1
        assert gf8.pow(0, 5) == 0
        assert gf8.pow(7, 0) == 1

    def test_alpha_pow_wraps(self, gf8):
        assert gf8.alpha_pow(0) == 1
        assert gf8.alpha_pow(gf8.order) == 1
        assert gf8.alpha_pow(-1) == gf8.inv(2)


class TestVectorizedOps:
    def test_mul_vec_matches_scalar(self, gf8, rng):
        a = rng.integers(0, 256, size=500, dtype=np.int64)
        b = rng.integers(0, 256, size=500, dtype=np.int64)
        vec = gf8.mul_vec(a, b)
        for x, y, v in zip(a[:100], b[:100], vec[:100]):
            assert gf8.mul(int(x), int(y)) == int(v)

    def test_pow_vec_matches_scalar(self, gf8, rng):
        a = rng.integers(0, 256, size=200, dtype=np.int64)
        for k in (0, 1, 2, 3, 7):
            vec = gf8.pow_vec(a, k)
            for x, v in zip(a[:50], vec[:50]):
                assert gf8.pow(int(x), k) == int(v)

    def test_power_sum_is_xor_of_powers(self, gf8):
        values = np.array([3, 9, 200], dtype=np.int64)
        for k in (1, 3, 5):
            expected = 0
            for v in values:
                expected ^= gf8.pow(int(v), k)
            assert gf8.power_sum(values, k) == expected

    def test_eval_poly_all_matches_pointwise(self, gf7):
        coeffs = [5, 0, 3, 1]  # 5 + 3x^2 + x^3
        vals = gf7.eval_poly_all(coeffs)
        from repro.gf import polynomial as P

        for i in range(0, gf7.order, 11):
            x = int(gf7.exp_table[i])
            assert int(vals[i]) == P.evaluate(coeffs, x, gf7)


class TestTowerField:
    def test_beta_has_trace_one(self, gf32):
        assert gf32.base.trace(gf32.beta) == 1

    @given(st.integers(1, 2**32 - 1))
    @settings(max_examples=200)
    def test_inverse(self, a):
        assert GF32.mul(a, GF32.inv(a)) == 1

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100)
    def test_associativity_and_distributivity(self, a, b, c):
        f = GF32
        assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
        assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)

    def test_one_is_identity(self, gf32, rng):
        for _ in range(50):
            a = int(rng.integers(0, 1 << 32))
            assert gf32.mul(a, 1) == a

    def test_mul_vec_matches_scalar(self, gf32, rng):
        a = rng.integers(0, 1 << 32, size=300, dtype=np.int64)
        b = rng.integers(0, 1 << 32, size=300, dtype=np.int64)
        vec = gf32.mul_vec(a, b)
        for x, y, v in zip(a[:60], b[:60], vec[:60]):
            assert gf32.mul(int(x), int(y)) == int(v)

    def test_pow_vec_matches_scalar(self, gf32, rng):
        a = rng.integers(0, 1 << 32, size=50, dtype=np.int64)
        for k in (1, 2, 3, 5):
            vec = gf32.pow_vec(a, k)
            for x, v in zip(a, vec):
                assert gf32.pow(int(x), k) == int(v)

    def test_sqrt_roundtrip(self, gf32, rng):
        for _ in range(20):
            a = int(rng.integers(0, 1 << 32))
            assert gf32.sqrt(gf32.sqr(a)) == a

    def test_power_sum_empty(self, gf32):
        assert gf32.power_sum(np.array([], dtype=np.int64), 3) == 0


class TestCarrylessField:
    def test_clmul_basics(self):
        assert clmul(0b11, 0b11) == 0b101  # (x+1)^2 = x^2+1 over GF(2)
        assert clmul(5, 0) == 0
        assert clmul(1, 0xFFFF) == 0xFFFF

    def test_poly_mod_idempotent(self):
        poly = PRIMITIVE_POLYS[8]
        v = poly_mod_int(0xABCDEF, poly, 8)
        assert v < 256
        assert poly_mod_int(v, poly, 8) == v

    @given(st.integers(1, 2**64 - 1))
    @settings(max_examples=60)
    def test_gf64_inverse(self, a):
        f = CarrylessField(64)
        assert f.mul(a, f.inv(a)) == 1

    def test_unknown_m_requires_explicit_poly(self):
        with pytest.raises(ParameterError):
            CarrylessField(37)

    def test_explicit_poly_accepted(self):
        # x^3 + x + 1 as an explicit override
        f = CarrylessField(3, poly=0b1011)
        assert f.mul(3, f.inv(3)) == 1

    def test_wrong_degree_poly_rejected(self):
        with pytest.raises(ParameterError):
            CarrylessField(8, poly=0b1011)


class TestM16Boundary:
    """Regression: int64 overflow near the 2^16 - 1 table boundary.

    ``pow_vec`` used to compute ``log * k`` before reducing modulo the
    group order; with m = 16 the logs reach 65534, so any exponent above
    ~2^47 silently wrapped int64 and indexed the wrong table entry.  The
    scalar ``pow`` (Python ints) never overflowed — so these tests pin
    the vector paths to the scalar results at the boundary.
    """

    @pytest.fixture(scope="class")
    def gf16(self):
        return TableField(16)

    def test_pow_vec_huge_exponent(self, gf16):
        a = np.array([2, 3, 0xFFFE, 0xFFFF, 1, 0], dtype=np.int64)
        for k in (2**47, 2**50 + 1, 2**63 - 1, gf16.order - 1, gf16.order):
            want = [gf16.pow(int(x), k) for x in a]
            assert gf16.pow_vec(a, k).tolist() == want, hex(k)

    def test_pow_vec_zero_exponent_and_zero_base(self, gf16):
        a = np.array([0, 1, 0xFFFF], dtype=np.int64)
        assert gf16.pow_vec(a, 0).tolist() == [1, 1, 1]
        assert gf16.pow_vec(a, 5).tolist() == [0, 1, gf16.pow(0xFFFF, 5)]

    def test_inv_vec_boundary_elements(self, gf16):
        a = np.array([1, 2, 0xFFFE, 0xFFFF], dtype=np.int64)
        inv = gf16.inv_vec(a)
        assert gf16.mul_vec(a, inv).tolist() == [1, 1, 1, 1]
        assert inv.tolist() == [gf16.inv(int(x)) for x in a]

    def test_inv_vec_rejects_zero(self, gf16):
        with pytest.raises(ZeroDivisionError):
            gf16.inv_vec(np.array([3, 0, 7], dtype=np.int64))

    def test_mul_vec_boundary_elements(self, gf16):
        a = np.array([0xFFFF, 0xFFFE, 0x8000], dtype=np.int64)
        assert gf16.mul_vec(a, a).tolist() == [
            gf16.mul(int(x), int(x)) for x in a
        ]

    def test_eval_at_inverses_matches_rowwise(self, gf16):
        """Past the table cutoff (m = 16) the direct products agree with
        the scalar evaluation, permuted to the inverse points."""
        rng = np.random.default_rng(16)
        coeffs = rng.integers(0, gf16.order + 1, size=(5, 4), dtype=np.int64)
        coeffs[1] = 0  # zero polynomial row
        coeffs[2, 3] = 0  # interior degree drop
        batch = gf16.eval_at_inverses(coeffs)
        at_inverse = (gf16.order - gf16.log_table[1:]) % gf16.order
        for row, poly in zip(batch, coeffs):
            want = gf16.eval_poly_all(poly.tolist())[at_inverse]
            assert np.array_equal(row, want)

    def test_eval_at_inverses_small_field_roots(self, gf8):
        # (x - 3)(x - 5) via locator-style coefficients: roots recovered
        # at the right points in every row
        c0 = gf8.mul(3, 5)
        c1 = 3 ^ 5
        coeffs = np.array([[c0, c1, 1], [c0, c1, 1]], dtype=np.int64)
        vals = gf8.eval_at_inverses(coeffs)
        for row in vals:
            roots = {gf8.inv(int(e) + 1) for e in np.nonzero(row == 0)[0]}
            assert roots == {3, 5}

    def test_tower_inv_vec_matches_scalar(self, gf32, rng):
        a = rng.integers(1, 1 << 32, size=500).astype(np.int64)
        inv = gf32.inv_vec(a)
        assert (gf32.mul_vec(a, inv) == 1).all()
        assert [int(x) for x in inv[:50]] == [
            gf32.inv(int(x)) for x in a[:50]
        ]


class TestFieldFor:
    def test_caches_instances(self):
        assert field_for(8) is field_for(8)

    def test_backend_selection(self):
        assert isinstance(field_for(7), TableField)
        assert isinstance(field_for(32), TowerField32)
        assert isinstance(field_for(64), CarrylessField)
