"""BCH layer: syndromes, Berlekamp-Massey, root finding, full codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bch.berlekamp_massey import berlekamp_massey
from repro.bch.codec import BCHCodec
from repro.bch.roots import candidate_roots, chien_roots, trace_roots
from repro.bch.syndromes import expand_syndromes, syndromes_of
from repro.errors import DecodeFailure, ParameterError
from repro.gf import CarrylessField, field_for
from repro.gf import polynomial as P


class TestSyndromes:
    def test_empty_set_all_zero(self, gf8):
        assert syndromes_of([], 4, gf8) == [0, 0, 0, 0]

    def test_single_element(self, gf8):
        s = syndromes_of([7], 3, gf8)
        assert s == [7, gf8.pow(7, 3), gf8.pow(7, 5)]

    def test_xor_homomorphism(self, gf8):
        a = syndromes_of([3, 9, 20], 5, gf8)
        b = syndromes_of([9, 50], 5, gf8)
        diff = syndromes_of([3, 20, 50], 5, gf8)
        assert [x ^ y for x, y in zip(a, b)] == diff

    def test_scalar_and_vector_paths_agree(self, gf8):
        values = [3, 9, 77, 200]
        vec = syndromes_of(np.array(values, dtype=np.int64), 4, gf8)
        ref = CarrylessField(8)
        scalar = syndromes_of(values, 4, ref)
        assert vec == scalar

    def test_tower_field_path(self, gf32):
        values = [0xDEADBEEF, 0x1234]
        s = syndromes_of(values, 3, gf32)
        expected0 = 0xDEADBEEF ^ 0x1234
        assert s[0] == expected0

    def test_duplicates_cancel(self, gf8):
        assert syndromes_of([5, 5], 4, gf8) == [0, 0, 0, 0]

    def test_expand_satisfies_frobenius(self, gf8):
        odd = syndromes_of([3, 77, 200], 4, gf8)
        full = expand_syndromes(odd, gf8)
        assert len(full) == 8
        # full[k-1] = s_k; s_{2j} = s_j^2
        for j in range(1, 5):
            assert full[2 * j - 1] == gf8.sqr(full[j - 1])
        # odd entries preserved
        assert [full[0], full[2], full[4], full[6]] == odd

    def test_expand_matches_direct_power_sums(self, gf8):
        values = [3, 77, 200]
        odd = syndromes_of(values, 4, gf8)
        full = expand_syndromes(odd, gf8)
        for k in range(1, 9):
            direct = 0
            for v in values:
                direct ^= gf8.pow(v, k)
            assert full[k - 1] == direct


class TestBerlekampMassey:
    def test_zero_syndromes_give_trivial_locator(self, gf8):
        locator, length = berlekamp_massey([0] * 8, gf8)
        assert locator == [1] and length == 0

    @pytest.mark.parametrize("errors", [[5], [3, 77], [3, 77, 200], [1, 2, 4, 8]])
    def test_locator_roots_are_inverse_errors(self, gf8, errors):
        t = 5
        full = expand_syndromes(syndromes_of(errors, t, gf8), gf8)
        locator, length = berlekamp_massey(full, gf8)
        assert length == len(errors)
        assert len(locator) - 1 == length
        for e in errors:
            assert P.evaluate(locator, gf8.inv(e), gf8) == 0

    def test_random_error_sets(self, gf7, rng):
        for _trial in range(30):
            k = int(rng.integers(0, 8))
            errors = list(
                rng.choice(np.arange(1, 128), size=k, replace=False)
            )
            full = expand_syndromes(syndromes_of(errors, 8, gf7), gf7)
            locator, length = berlekamp_massey(full, gf7)
            assert length == k


class TestRootFinding:
    def test_chien_finds_all_roots(self, gf8):
        roots = [3, 77, 200]
        poly = P.from_roots(roots, gf8)
        assert sorted(chien_roots(poly, gf8)) == sorted(roots)

    def test_chien_constant_poly_no_roots(self, gf8):
        assert chien_roots([5], gf8) == []

    def test_trace_roots_matches_chien(self, gf8, rng):
        for trial in range(10):
            roots = list(rng.choice(np.arange(1, 256), size=5, replace=False))
            poly = P.from_roots([int(r) for r in roots], gf8)
            assert sorted(trace_roots(poly, gf8, seed=trial)) == sorted(
                chien_roots(poly, gf8)
            )

    def test_trace_roots_drops_irreducible_factors(self, gf8):
        # multiply a linear factor by an irreducible quadratic: only the
        # linear root should come back
        linear_root = 42
        # find an irreducible quadratic by trial: x^2 + x + c with no roots
        for c in range(1, 256):
            quad = [c, 1, 1]
            if not chien_roots(quad, gf8) and P.evaluate(quad, 0, gf8) != 0:
                break
        poly = P.mul(P.from_roots([linear_root], gf8), quad, gf8)
        assert trace_roots(poly, gf8, seed=1) == [linear_root]

    def test_trace_roots_on_tower_field(self, gf32):
        roots = [0xDEADBEEF, 0xCAFEBABE, 0x12345678]
        poly = P.from_roots(roots, gf32)
        assert sorted(trace_roots(poly, gf32, seed=9)) == sorted(roots)

    def test_candidate_roots_finds_subset(self, gf32):
        roots = [111, 222, 333]
        poly = P.from_roots(roots, gf32)
        cands = np.array([111, 222, 333, 444, 555], dtype=np.int64)
        assert candidate_roots(poly, cands, gf32) == [111, 222, 333]

    def test_candidate_roots_misses_outside_candidates(self, gf32):
        poly = P.from_roots([777], gf32)
        cands = np.array([111, 222], dtype=np.int64)
        assert candidate_roots(poly, cands, gf32) == []


class TestCodecRoundtrip:
    def test_decode_empty_sketch(self, gf8):
        codec = BCHCodec(gf8, 4)
        assert codec.decode([0, 0, 0, 0]) == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_roundtrip_exact_capacity(self, gf7, rng, k):
        codec = BCHCodec(gf7, 5)
        values = sorted(
            int(v) for v in rng.choice(np.arange(1, 128), size=k, replace=False)
        )
        assert codec.decode(codec.sketch(values)) == values

    def test_symmetric_difference_decoding(self, gf8, rng):
        codec = BCHCodec(gf8, 6)
        a = set(int(v) for v in rng.choice(np.arange(1, 256), size=100, replace=False))
        b = set(a)
        moved = list(a)[:3]
        for v in moved:
            b.discard(v)
        b.add(77) if 77 not in a else None
        expected = sorted(a ^ b)
        if len(expected) <= 6:
            got = codec.decode(codec.sketch_xor(codec.sketch(a), codec.sketch(b)))
            assert got == expected

    @given(st.integers(0, 60))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random_sets_within_capacity(self, seed):
        gf = field_for(9)
        codec = BCHCodec(gf, 7)
        rng = np.random.default_rng(seed)
        k = int(rng.integers(0, 8))
        values = sorted(
            int(v) for v in rng.choice(np.arange(1, 512), size=k, replace=False)
        )
        assert codec.decode(codec.sketch(values)) == values

    def test_overload_fails_or_is_caught(self, gf7, rng):
        """Beyond-capacity sketches must raise DecodeFailure (the §3.2
        exception) — or, in the rare aliasing case, any returned set must
        at least reproduce the sketch (the checksum then catches it)."""
        codec = BCHCodec(gf7, 3)
        failures = 0
        for trial in range(50):
            local = np.random.default_rng(trial)
            chosen = local.choice(np.arange(1, 128), size=10, replace=False)
            values = [int(v) for v in chosen]
            sketch = codec.sketch(values)
            try:
                out = codec.decode(sketch)
                assert codec.sketch(out) == sketch  # aliasing, not corruption
            except DecodeFailure:
                failures += 1
        # Most overloads are detected outright; the remainder alias to a
        # *consistent* small set, which the protocol checksum rejects.
        assert failures >= 30

    def test_wrong_sketch_length_rejected(self, gf8):
        codec = BCHCodec(gf8, 4)
        with pytest.raises(ParameterError):
            codec.decode([0] * 3)

    def test_mismatched_xor_rejected(self, gf8):
        codec = BCHCodec(gf8, 4)
        with pytest.raises(ParameterError):
            codec.sketch_xor([0] * 4, [0] * 3)

    def test_capacity_must_be_positive(self, gf8):
        with pytest.raises(ParameterError):
            BCHCodec(gf8, 0)

    def test_tower_field_roundtrip_with_candidates(self, gf32, rng):
        codec = BCHCodec(gf32, 5)
        values = sorted(int(v) for v in rng.integers(1, 1 << 32, size=4))
        noise = rng.integers(1, 1 << 32, size=100)
        cands = np.unique(np.concatenate([np.array(values), noise])).astype(np.int64)
        got = codec.decode(codec.sketch(values), candidates=cands)
        assert got == values

    def test_tower_field_roundtrip_with_trace(self, gf32, rng):
        codec = BCHCodec(gf32, 4)
        values = sorted(int(v) for v in rng.integers(1, 1 << 32, size=3))
        assert codec.decode(codec.sketch(values), seed=5) == values


class TestCodecSerialization:
    def test_sketch_bits_formula(self, gf7):
        codec = BCHCodec(gf7, 13)
        assert codec.sketch_bits == 13 * 7

    def test_serialize_roundtrip(self, gf7, rng):
        codec = BCHCodec(gf7, 6)
        values = [int(v) for v in rng.choice(np.arange(1, 128), size=4, replace=False)]
        sketch = codec.sketch(values)
        data = codec.serialize(sketch)
        assert len(data) == (codec.sketch_bits + 7) // 8
        assert codec.deserialize(data) == sketch
