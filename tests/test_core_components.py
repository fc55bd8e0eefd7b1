"""Core PBS components: checksum, partitioning, units, parameters."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checksum import checksum_update, segment_checksums, set_checksum
from repro.analysis.optimizer import groups_for, optimize_params
from repro.core.params import PBSParams, _from_d
from repro.core.partition import (
    bin_indices,
    bin_tables,
    bin_xors,
    group_indices,
    parity_positions,
    parity_rows,
    split_by_hash,
    unit_bin_keys,
)
from repro.core.units import MembershipConstraint, UnitId
from repro.errors import ParameterError


class TestChecksum:
    def test_empty_set(self):
        assert set_checksum(np.array([], dtype=np.uint64)) == 0

    def test_simple_sum(self):
        assert set_checksum(np.array([1, 2, 3], dtype=np.uint64)) == 6

    def test_wraps_modulo_universe(self):
        vals = np.array([2**32 - 1, 2], dtype=np.uint64)
        assert set_checksum(vals, log_u=32) == 1

    def test_respects_log_u(self):
        vals = np.array([250, 10], dtype=np.uint64)
        assert set_checksum(vals, log_u=8) == (260 % 256)

    def test_order_independent(self, rng):
        vals = rng.integers(1, 1 << 32, size=100, dtype=np.uint64)
        shuffled = vals.copy()
        rng.shuffle(shuffled)
        assert set_checksum(vals) == set_checksum(shuffled)

    @given(st.lists(st.integers(1, 2**32 - 1), max_size=30),
           st.lists(st.integers(1, 2**32 - 1), max_size=10))
    @settings(max_examples=100)
    def test_incremental_update_matches_recompute(self, base, extra):
        base_arr = np.array(base, dtype=np.uint64)
        extra_arr = np.array(extra, dtype=np.uint64)
        c = set_checksum(base_arr)
        added = checksum_update(c, extra_arr, +1)
        assert added == set_checksum(np.concatenate([base_arr, extra_arr]))
        removed = checksum_update(added, extra_arr, -1)
        assert removed == c

    @given(st.lists(st.integers(1, 2**64 - 1), max_size=40),
           st.lists(st.integers(0, 40), max_size=8),
           st.sampled_from([8, 32, 64]))
    @settings(max_examples=100)
    def test_segment_checksums_match_per_segment(self, values, cuts, log_u):
        arr = np.array(values, dtype=np.uint64)
        bounds = [0] + sorted(min(c, len(arr)) for c in cuts) + [len(arr)]
        assert segment_checksums(arr, bounds, log_u) == [
            set_checksum(arr[lo:hi], log_u)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    def test_detects_single_element_change(self, rng):
        vals = rng.integers(1, 1 << 32, size=50, dtype=np.uint64)
        mutated = vals.copy()
        mutated[0] += np.uint64(1)
        assert set_checksum(vals) != set_checksum(mutated)


class TestPartition:
    def test_group_indices_in_range(self, rng):
        vals = rng.integers(1, 1 << 32, size=1000, dtype=np.uint64)
        idx = group_indices(vals, salt=5, g=7)
        assert idx.min() >= 0 and idx.max() < 7

    def test_consistency_between_hosts(self, rng):
        """The same salt must partition shared elements identically —
        the 'consistent hash-partitioning' PBS relies on."""
        shared = rng.integers(1, 1 << 32, size=500, dtype=np.uint64)
        a = np.concatenate([shared, rng.integers(1, 1 << 32, size=20, dtype=np.uint64)])
        idx_a = bin_indices(a, salt=9, n=63)
        idx_shared = bin_indices(shared, salt=9, n=63)
        lookup = {int(v): int(i) for v, i in zip(a, idx_a)}
        for v, i in zip(shared, idx_shared):
            assert lookup[int(v)] == int(i)

    def test_bin_tables_parity(self):
        vals = np.array([10, 20, 30], dtype=np.uint64)
        idx = np.array([0, 0, 2])
        parity, xors = bin_tables(vals, idx, n=4)
        assert list(parity) == [0, 0, 1, 0]
        assert int(xors[0]) == 10 ^ 20
        assert int(xors[2]) == 30
        assert int(xors[1]) == 0

    def test_bin_tables_empty(self):
        parity, xors = bin_tables(
            np.array([], dtype=np.uint64), np.array([], dtype=np.int64), n=8
        )
        assert parity.sum() == 0 and xors.sum() == 0

    def test_parity_positions_one_based(self):
        parity = np.array([1, 0, 1, 0], dtype=np.uint8)
        assert list(parity_positions(parity)) == [1, 3]

    def test_split_by_hash_partitions(self, rng):
        vals = np.unique(rng.integers(1, 1 << 32, size=300, dtype=np.uint64))
        parts = split_by_hash(vals, salt=3, ways=3)
        assert sum(len(p) for p in parts) == len(vals)
        recombined = np.sort(np.concatenate(parts))
        assert (recombined == np.sort(vals)).all()

    def test_split_roughly_balanced(self, rng):
        vals = np.unique(rng.integers(1, 1 << 32, size=9000, dtype=np.uint64))
        parts = split_by_hash(vals, salt=3, ways=3)
        for p in parts:
            assert abs(len(p) - len(vals) / 3) < len(vals) * 0.05

    def test_common_elements_cancel_in_parity(self, rng):
        """Parity bitmaps of A and B differ exactly at bins holding an odd
        number of difference elements — common elements cancel."""
        shared = np.unique(rng.integers(1, 1 << 32, size=400, dtype=np.uint64))
        extra = np.array([1, 2, 3], dtype=np.uint64)
        a = np.unique(np.concatenate([shared, extra]))
        b = shared[~np.isin(shared, extra)]
        n = 127
        idx_a = bin_indices(a, salt=4, n=n)
        idx_b = bin_indices(b, salt=4, n=n)
        pa, xa = bin_tables(a, idx_a, n)
        pb, xb = bin_tables(b, idx_b, n)
        diff_elements = np.setxor1d(a, b)
        idx_diff = bin_indices(diff_elements, salt=4, n=n)
        expected_parity = np.zeros(n, dtype=np.uint8)
        for i in idx_diff:
            expected_parity[i] ^= 1
        assert ((pa ^ pb) == expected_parity).all()
        # XOR sums likewise cancel to the XOR of difference elements per bin
        diff_xor = np.zeros(n, dtype=np.uint64)
        np.bitwise_xor.at(diff_xor, idx_diff, diff_elements)
        assert ((xa ^ xb) == diff_xor).all()


class TestRoundTables:
    """The round-wide helpers reproduce the per-unit reference
    (:func:`bin_indices`, :func:`bin_tables`, :func:`parity_positions`)
    unit by unit."""

    @staticmethod
    def _check(units, salt, n, rng):
        values = np.concatenate(units)
        keys = unit_bin_keys(values, [len(u) for u in units], salt, n)
        rows = parity_rows(keys, len(units), n)
        assert rows.shape[0] == len(units)
        tables = []
        offset = 0
        for u, unit in enumerate(units):
            idx = bin_indices(unit, salt, n)
            parity, xors = bin_tables(unit, idx, n)
            tables.append(xors)
            assert (keys[offset : offset + len(unit)] == u * n + idx).all()
            offset += len(unit)
            positions = parity_positions(parity)
            assert rows[u, : len(positions)].tolist() == positions.tolist()
            assert not rows[u, len(positions):].any()
        # XOR sums at arbitrary bins, repeated bins included
        wanted = rng.integers(0, len(units) * n, size=2 * n)
        assert bin_xors(values, keys, wanted, len(units) * n).tolist() == [
            int(tables[w // n][w % n]) for w in wanted
        ]

    @given(st.lists(st.integers(0, 60), min_size=1, max_size=10),
           st.integers(2, 8), st.integers(0, 2**64 - 1),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_units_match_reference(self, sizes, m, salt, seed):
        rng = np.random.default_rng(seed)
        units = [
            np.unique(rng.integers(1, 1 << 32, size=size, dtype=np.uint64))
            for size in sizes
        ]
        self._check(units, salt, (1 << m) - 1, rng)

    def test_empty_units(self, rng):
        self._check([np.empty(0, dtype=np.uint64)] * 3, 5, 63, rng)

    def test_single_unit(self, rng):
        unit = np.unique(rng.integers(1, 1 << 32, size=500, dtype=np.uint64))
        self._check([unit], 5, 127, rng)

    def test_element_listed_twice_cancels(self, rng):
        """A unit given as ``original`` followed by ``toggles`` has the
        tables of ``original xor toggles``."""
        original = np.unique(rng.integers(1, 1 << 32, size=300, dtype=np.uint64))
        toggles = np.unique(np.concatenate([
            original[:7], rng.integers(1, 1 << 32, size=5, dtype=np.uint64),
        ]))
        working = np.setxor1d(original, toggles)
        listed = np.concatenate([original, toggles])
        n = 63
        keys_w = unit_bin_keys(working, [len(working)], 9, n)
        keys_l = unit_bin_keys(listed, [len(listed)], 9, n)
        assert (parity_rows(keys_w, 1, n) == parity_rows(keys_l, 1, n)).all()
        bins = np.arange(n)
        assert (
            bin_xors(working, keys_w, bins, n) == bin_xors(listed, keys_l, bins, n)
        ).all()


class TestUnits:
    def test_unit_id_children(self):
        uid = UnitId(3)
        child = uid.child(2)
        assert child.group == 3 and child.path == (2,)
        assert child.child(0).path == (2, 0)

    def test_unit_id_labels(self):
        assert UnitId(5).label() == "g5"
        assert UnitId(5, (1, 2)).label() == "g5/1/2"

    def test_unit_id_hashable_equatable(self):
        assert UnitId(1, (0,)) == UnitId(1, (0,))
        assert UnitId(1, (0,)) != UnitId(1, (1,))
        assert len({UnitId(1), UnitId(1), UnitId(2)}) == 2

    def test_membership_constraint_scalar_vs_vec(self, rng):
        c = MembershipConstraint(salt=7, buckets=5, branch=2)
        vals = rng.integers(1, 1 << 32, size=200, dtype=np.uint64)
        vec = c.accepts_vec(vals)
        for v, ok in zip(vals[:50], vec[:50]):
            assert c.accepts(int(v)) == bool(ok)

    def test_constraint_accepts_about_uniform_fraction(self, rng):
        c = MembershipConstraint(salt=7, buckets=4, branch=1)
        vals = rng.integers(1, 1 << 32, size=20_000, dtype=np.uint64)
        frac = float(c.accepts_vec(vals).mean())
        assert 0.22 < frac < 0.28


class TestPBSParams:
    def test_from_d_uses_optimizer(self):
        params = PBSParams.from_d(1000)
        assert params.g == 200
        assert params.n in (63, 127, 255, 511, 1023, 2047)
        assert 8 <= params.t <= 17

    def test_from_estimate_inflates(self):
        params = PBSParams.from_estimate(100.0, gamma=1.38)
        assert params.g == PBSParams.from_d(138).g

    def test_m_property(self):
        params = PBSParams(n=127, t=13, g=10)
        assert params.m == 7

    def test_codec_cached(self):
        params = PBSParams(n=127, t=13, g=10)
        assert params.codec is params.codec
        assert params.codec.t == 13

    def test_invalid_n_rejected(self):
        with pytest.raises(ParameterError):
            PBSParams(n=100, t=5, g=1)

    def test_invalid_t_rejected(self):
        with pytest.raises(ParameterError):
            PBSParams(n=63, t=0, g=1)
        with pytest.raises(ParameterError):
            PBSParams(n=63, t=64, g=1)

    def test_invalid_g_rejected(self):
        with pytest.raises(ParameterError):
            PBSParams(n=63, t=5, g=0)

    def test_invalid_log_u_rejected(self):
        with pytest.raises(ParameterError):
            PBSParams(n=63, t=5, g=1, log_u=4)


class TestFromDMemo:
    def test_equal_arguments_share_one_instance(self):
        first = PBSParams.from_d(77, r=3)
        again = PBSParams.from_d(77, delta=5, r=3, p0=0.99, log_u=32)
        assert again is first
        assert again.codec is first.codec      # the lazy codec is shared
        assert PBSParams.from_d(77, r=2) is not first
        assert PBSParams.from_d(78) is not first

    @pytest.mark.parametrize("d", [0, 1, 5, 77, 138, 1000])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_the_uncached_optimizer(self, d, r):
        best = optimize_params(max(1, d), delta=5, r=r, p0=0.99)
        params = PBSParams.from_d(d, r=r)
        assert (params.n, params.t, params.g) == (
            best.n, best.t, groups_for(max(1, d), 5)
        )
        assert params == _from_d.__wrapped__(
            PBSParams, max(1, d), 5, r, 0.99, 32, "three-way"
        )


#: The design grid of :class:`TestFromDDigest`: every d up to 2,000, every
#: 97th beyond it up to 2 * 10^5, and 10^6 (4,042 designs).  The grid
#: holds the optimizer's near-ties at d = 68,154, 163,505 and 163,699.
_DESIGN_GRID = sorted({*range(1, 2001), *range(2000, 200_001, 97), 10**6})


class TestFromDDigest:
    """Every design ``(n, t, g)`` of :meth:`PBSParams.from_d` is pinned.

    The digest hashes ``"{d}:{n},{t},{g};"`` over :data:`_DESIGN_GRID`.
    It was generated at commit ab4208f, whose Binomial pmf came from
    scipy; the numpy pmf must make the §5.1 optimizer pick the same
    design everywhere, near-ties included.
    """

    def test_design_grid_digest_is_pinned(self):
        digest = hashlib.sha256()
        for d in _DESIGN_GRID:
            p = PBSParams.from_d(d)
            digest.update(f"{d}:{p.n},{p.t},{p.g};".encode())
        assert len(_DESIGN_GRID) == 4042
        assert digest.hexdigest() == (
            "63aa8a1fa3d7222137159d077ce6c3a9e2c0e653a576e9fa981aac2d1895da63"
        )
