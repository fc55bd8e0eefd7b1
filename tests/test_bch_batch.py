"""The batched BCH decode engine against the scalar reference.

The batch engine's contract is bit-for-bit equivalence with the scalar
per-group pipeline — same recovered elements, same set of groups that
fail to decode — on every input class: empty (zero-difference) groups,
in-capacity groups, over-capacity groups (Berlekamp–Massey or
verification failures), and mixtures.  These tests assert that contract
on randomized corpora for both root-search flavours (Chien over table
fields, candidate evaluation over GF(2^32)), and at the protocol level
for PBS and PinSketch/WP.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pinsketch import PinSketchProtocol
from repro.baselines.pinsketch_wp import PinSketchWPProtocol
from repro.bch.batch import BatchBCHDecoder, stack_groups
from repro.bch.berlekamp_massey import berlekamp_massey
from repro.bch.codec import BCHCodec
from repro.bch.syndromes import expand_syndromes
from repro.core.protocol import PBSProtocol
from repro.errors import DecodeFailure, ParameterError
from repro.gf import TableField, field_for
from repro.workloads.generator import SetPairGenerator


def scalar_decode_all(codec: BCHCodec, sketches, candidates=None):
    """The scalar reference: per-group decode, None on DecodeFailure."""
    out = []
    for i, sketch in enumerate(sketches):
        cand = candidates[i] if candidates is not None else None
        try:
            out.append(codec.decode(sketch, candidates=cand, batch=False))
        except DecodeFailure:
            out.append(None)
    return out


def random_groups(rng, order: int, t: int, n_groups: int):
    """Group corpus spanning empty, decodable and over-capacity sizes."""
    groups = []
    for _ in range(n_groups):
        size = min(int(rng.integers(0, 2 * t + 2)), order)
        values = rng.choice(np.arange(1, order + 1), size=size, replace=False)
        groups.append(np.sort(values).astype(np.int64))
    return groups


class TestStackGroups:
    def test_zero_padding_is_inert(self):
        mat = stack_groups([np.array([3, 5]), np.array([], dtype=np.int64)])
        assert mat.shape == (2, 2)
        assert mat.tolist() == [[3, 5], [0, 0]]

    def test_all_empty(self):
        mat = stack_groups([np.array([], dtype=np.int64)] * 3)
        assert mat.shape == (3, 1)
        assert not mat.any()


class TestEngineAgainstScalar:
    @pytest.mark.parametrize("m", [6, 7, 8, 11])
    @pytest.mark.parametrize("t", [1, 3, 8])
    def test_sketch_many_matches_scalar(self, m, t):
        codec = BCHCodec(field_for(m), t)
        rng = np.random.default_rng(m * 100 + t)
        groups = random_groups(rng, codec.field.order, t, 40)
        assert codec.sketch_many(groups) == [codec.sketch(g) for g in groups]

    @pytest.mark.parametrize("batch", [True, False])
    def test_sketch_rows_matches_scalar(self, batch):
        """Zero-padded rows sketch like their unpadded groups, on both
        engines."""
        codec = BCHCodec(field_for(7), 5)
        groups = random_groups(np.random.default_rng(3), codec.field.order, 5, 30)
        got = codec.sketch_rows(stack_groups(groups), batch=batch)
        assert got.tolist() == [codec.sketch(g) for g in groups]

    @pytest.mark.parametrize("m", [6, 7, 8, 11])
    @pytest.mark.parametrize("t", [1, 3, 8])
    def test_decode_many_matches_scalar(self, m, t):
        codec = BCHCodec(field_for(m), t)
        rng = np.random.default_rng(m * 100 + t)
        groups = random_groups(rng, codec.field.order, t, 60)
        sketches = [codec.sketch(g) for g in groups]
        want = scalar_decode_all(codec, sketches)
        assert codec.decode_many(sketches) == want
        # the corpus must actually exercise both outcomes (at t = 1 an
        # over-capacity group still "decodes": the lone XOR syndrome is
        # always self-consistent, and the protocol checksum is what
        # rejects it — so no failures exist to cover there)
        if t > 1:
            assert any(r is None for r in want)
        assert any(r for r in want)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_decode_many_matches_scalar_property(self, seed):
        """Randomized (d, n, bit-flip) agreement, hypothesis-driven."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 12))
        t = int(rng.integers(1, 11))
        codec = BCHCodec(field_for(m), t)
        groups = random_groups(rng, codec.field.order, t, 12)
        sketches = [codec.sketch(g) for g in groups]
        # flip random bits in some sketches: decoders must still agree
        for sketch in sketches[::3]:
            k = int(rng.integers(0, t))
            sketch[k] ^= int(rng.integers(1, codec.field.order + 1))
        assert codec.decode_many(sketches) == scalar_decode_all(codec, sketches)

    def test_zero_difference_rows(self, gf7):
        codec = BCHCodec(gf7, 5)
        sketches = [[0] * 5, codec.sketch([3, 9]), [0] * 5, [0] * 5, [0] * 5]
        assert codec.decode_many(sketches) == [[], [3, 9], [], [], []]

    def test_all_zero_batch(self, gf7):
        codec = BCHCodec(gf7, 4)
        assert codec.decode_many([[0] * 4] * 6) == [[]] * 6

    def test_decode_failure_rows_match_scalar(self, gf7):
        """Over-capacity groups fail identically in both paths."""
        codec = BCHCodec(gf7, 3)
        rng = np.random.default_rng(5)
        groups = [
            np.sort(
                rng.choice(np.arange(1, 128), size=k, replace=False)
            ).astype(np.int64)
            for k in (7, 8, 2, 9, 0, 3, 11)
        ]
        sketches = [codec.sketch(g) for g in groups]
        want = scalar_decode_all(codec, sketches)
        assert codec.decode_many(sketches) == want
        assert want[4] == [] and want[2] is not None

    def test_candidates_path_gf232(self, gf32):
        codec = BCHCodec(gf32, 6)
        rng = np.random.default_rng(11)
        groups, candidates = [], []
        for _ in range(20):
            universe = rng.choice(
                np.arange(1, 1 << 20), size=50, replace=False
            ).astype(np.int64)
            size = int(rng.integers(0, 10))
            groups.append(np.sort(universe[:size]))
            candidates.append(universe)
        sketches = [codec.sketch(g) for g in groups]
        want = scalar_decode_all(codec, sketches, candidates)
        assert codec.decode_many(sketches, candidates=candidates) == want
        assert any(r is None for r in want) and any(r for r in want)

    def test_table_field_ignores_candidates_like_scalar(self, gf7):
        """Scalar _find_roots runs Chien on table fields regardless of
        candidates; the batch engine must match, even when the candidate
        arrays are missing sketched elements."""
        codec = BCHCodec(gf7, 3)
        groups = [np.array([10 + i, 90 + i], dtype=np.int64) for i in range(5)]
        sketches = [codec.sketch(g) for g in groups]
        partial = [g[:1] for g in groups]  # half the elements missing
        want = scalar_decode_all(codec, sketches, candidates=partial)
        assert codec.decode_many(sketches, candidates=partial) == want
        assert want == [sorted(int(v) for v in g) for g in groups]

    def test_ragged_sketches_raise_parameter_error(self, gf7):
        codec = BCHCodec(gf7, 3)
        ragged = [[1, 2, 3]] * 4 + [[1, 2]]
        with pytest.raises(ParameterError):
            codec.decode_many(ragged)
        with pytest.raises(ParameterError):
            codec.decode_many(ragged, batch=False)

    def test_candidate_arity_mismatch(self, gf32):
        engine = BatchBCHDecoder(gf32, 3)
        sketches = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(ParameterError):
            engine.decode_many(sketches, candidates=[np.array([1])])

    def test_non_table_field_needs_candidates(self, gf32):
        engine = BatchBCHDecoder(gf32, 3)
        with pytest.raises(ParameterError):
            engine.decode_many(np.zeros((5, 3), dtype=np.int64))


def syndrome_matrix(rng, codec: BCHCodec, g: int) -> np.ndarray:
    """``(g, t)`` odd syndromes of three kinds: uniform values in
    [0, 2^m) with ~30% zeros (mostly undecodable), all-zero rows, and
    sketches of real sets of up to t + 2 elements."""
    field, t = codec.field, codec.t
    out = rng.integers(0, field.order + 1, size=(g, t), dtype=np.int64)
    out[rng.random((g, t)) < 0.3] = 0
    kind = rng.integers(0, 3, size=g)
    out[kind == 1] = 0
    for i in np.flatnonzero(kind == 2):
        size = int(rng.integers(1, t + 3))
        values = rng.integers(1, field.order + 1, size=size, dtype=np.int64)
        out[i] = codec.sketch(np.unique(values))
    return out


def scalar_bm_rows(codec: BCHCodec, odd: np.ndarray):
    """Scalar Berlekamp–Massey per row: zero-padded locators, lengths."""
    width = 2 * codec.t + 1
    locs = np.zeros((len(odd), width), dtype=np.int64)
    lengths = np.zeros(len(odd), dtype=np.int64)
    for i, row in enumerate(odd.tolist()):
        locator, lengths[i] = berlekamp_massey(
            expand_syndromes(row, codec.field), codec.field
        )
        locs[i, : len(locator)] = locator
    return locs, lengths


class TestKernelsAgainstScalar:
    """The lockstep kernels on arbitrary syndrome matrices, hostile ones
    included, against the scalar reference row by row."""

    @given(
        m=st.integers(6, 11), t=st.integers(1, 12), g=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bm_and_decode_match_scalar(self, m, t, g, seed):
        codec = BCHCodec(field_for(m), t)
        odd = syndrome_matrix(np.random.default_rng(seed), codec, g)
        engine = BatchBCHDecoder(codec.field, t)
        loc, length = engine.bm_many(engine.expand_many(odd))
        want_loc, want_length = scalar_bm_rows(codec, odd)
        assert np.array_equal(loc, want_loc)
        assert np.array_equal(length, want_length)
        got = engine.decode_many(odd)
        assert got.tolist() == scalar_decode_all(codec, odd.tolist())
        # the packing contract: rows ascending then zeros, failed rows empty
        filled = np.arange(t) < got.counts[:, None]
        assert not got.elements[~filled].any()
        assert not got.counts[got.failed].any()

    @given(seed=st.integers(0, 2**32 - 1), t=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_tower_field_bm_and_candidates(self, seed, t):
        rng = np.random.default_rng(seed)
        codec = BCHCodec(field_for(32), t)
        g = 6
        odd = rng.integers(0, 1 << 32, size=(g, t), dtype=np.int64)
        odd[rng.random((g, t)) < 0.3] = 0
        odd[0] = 0
        candidates = []
        for i in range(g):
            universe = np.unique(rng.integers(1, 1 << 32, size=40, dtype=np.int64))
            if i % 2:
                odd[i] = codec.sketch(universe[: int(rng.integers(1, t + 3))])
            candidates.append(universe)
        engine = BatchBCHDecoder(codec.field, t)
        loc, length = engine.bm_many(engine.expand_many(odd))
        want_loc, want_length = scalar_bm_rows(codec, odd)
        assert np.array_equal(loc, want_loc)
        assert np.array_equal(length, want_length)
        got = engine.decode_many(odd, candidates=candidates)
        assert got.tolist() == scalar_decode_all(
            codec, odd.tolist(), candidates
        )

    @pytest.mark.parametrize("m", [6, 7, 8, 11])
    def test_chien_tables_match_eval_poly_all(self, m):
        """``eval_at_inverses`` (lookup tables) equals the scalar
        ``eval_poly_all`` row by row, at the inverse points."""
        field = TableField(m)
        rng = np.random.default_rng(m)
        coeffs = rng.integers(0, field.order + 1, size=(9, 13), dtype=np.int64)
        coeffs[1] = 0
        coeffs[2, 4:] = 0
        coeffs[3, 0] = 0
        at_inverse = (field.order - field.log_table[1:]) % field.order
        vals = field.eval_at_inverses(coeffs)
        assert vals.shape == (9, field.order)
        for row, poly in zip(vals, coeffs):
            want = field.eval_poly_all(poly.tolist())[at_inverse]
            assert np.array_equal(row, want)
        # tables built for 13 columns still serve a narrower matrix
        narrow = field.eval_at_inverses(coeffs[:, :3])
        for row, poly in zip(narrow, coeffs[:, :3]):
            want = field.eval_poly_all(poly.tolist())[at_inverse]
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("m", [6, 7, 8])
    def test_table_memory_bound(self, m):
        """Every lookup table of a field with m <= 8 fits in 1 MB, even
        after decoding at capacity 32 (PBS designs use t <= 12) and
        evaluating a full-width (2t + 1 column) locator."""
        field = TableField(m)
        codec = BCHCodec(field, 32)
        rng = np.random.default_rng(m)
        codec.batch_engine.decode_many(syndrome_matrix(rng, codec, 16))
        field.eval_at_inverses(np.ones((2, 2 * codec.t + 1), dtype=np.int64))
        tables = [a for a in vars(field).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in tables) <= 1 << 20


class TestProtocolLevelEquivalence:
    """The batched and scalar BCH engines must be observationally
    identical (PBS switches engines through ``bch_engine``)."""

    def test_batch_is_default(self):
        assert PinSketchProtocol().batch is True
        assert PinSketchWPProtocol().batch is True

    @pytest.mark.parametrize(
        "d,kwargs",
        [
            (30, {}),
            (300, {}),
            (300, {"membership_check": False}),
            (200, {"split_ways": 2}),
        ],
    )
    def test_pbs_identical(self, d, kwargs, bch_engine):
        pair = SetPairGenerator(universe_bits=32, seed=2).generate(
            size_a=4000, d=d, seed=d
        )
        runs = {}
        for batch in (False, True):
            with bch_engine(batch):
                runs[batch] = PBSProtocol(seed=9, **kwargs).run(
                    pair.a, pair.b, true_d=d
                )
        assert runs[True].difference == runs[False].difference
        assert runs[True].success == runs[False].success
        assert runs[True].rounds == runs[False].rounds
        assert (
            runs[True].channel.total_bytes == runs[False].channel.total_bytes
        )

    def test_pbs_identical_under_splits(self, bch_engine):
        """Underprovisioned capacity forces decode failures + splits."""
        pair = SetPairGenerator(universe_bits=32, seed=4).generate(
            size_a=4000, d=400, seed=1
        )
        runs = {}
        for batch in (False, True):
            with bch_engine(batch):
                runs[batch] = PBSProtocol(seed=13).run(
                    pair.a, pair.b, estimated_d=120
                )
        assert runs[True].difference == runs[False].difference
        assert runs[True].rounds == runs[False].rounds

    def test_pinsketch_wp_identical(self):
        pair = SetPairGenerator(universe_bits=32, seed=6).generate(
            size_a=4000, d=150, seed=3
        )
        runs = {
            batch: PinSketchWPProtocol(seed=5, batch=batch).run(
                pair.a, pair.b, true_d=150
            )
            for batch in (False, True)
        }
        assert runs[True].difference == runs[False].difference
        assert runs[True].success == runs[False].success

    def test_pinsketch_identical(self):
        pair = SetPairGenerator(universe_bits=32, seed=8).generate(
            size_a=2000, d=40, seed=2
        )
        runs = {
            batch: PinSketchProtocol(seed=5, batch=batch).run(
                pair.a, pair.b, true_d=40
            )
            for batch in (False, True)
        }
        assert runs[True].difference == runs[False].difference
        assert runs[True].success == runs[False].success
