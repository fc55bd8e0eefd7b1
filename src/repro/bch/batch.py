"""Batched BCH sketch encode/decode across all groups of a PBS round.

The per-group decode pipeline (syndromes → Berlekamp–Massey → Chien
search → verification) is the dominant hot path of every PBS round: one
small decode per group, hundreds of groups per round.  Running it group
by group costs a Python-level loop per group *inside* each stage; this
module instead runs every stage across **all groups at once** on 2-D
numpy arrays:

* :meth:`BatchBCHDecoder.sketch_many` — stack the per-group element
  arrays into one zero-padded ``(g, L)`` matrix and compute all ``g * t``
  power-sum syndromes with ``t`` vectorized field multiplies (0 is
  XOR-neutral and absorbs under multiplication, so the padding is free).
* :meth:`BatchBCHDecoder.bm_many` — Berlekamp–Massey in lockstep: all
  groups share the iteration counter while the data-dependent branches
  (zero discrepancy, length change) become boolean masks.  The per-group
  state (locator row, shadow row, length, gap, last discrepancy) lives in
  matrices, so one BM step is a handful of ``(g, w)`` numpy ops.
* root search — either a batched Chien search via
  :meth:`~repro.gf.table_field.TableField.eval_poly_all_batch` (table
  fields: PBS's m = 6..11 parity bitmaps), or a batched Horner
  evaluation over a caller-supplied candidate array per group (large
  fields: partitioned PinSketch over GF(2^32)).
* verification — re-sketch all recovered element lists with
  :meth:`sketch_many` and compare matrices.

The engine is bit-for-bit equivalent to the scalar
:class:`~repro.bch.codec.BCHCodec` path — including which groups raise
:class:`~repro.errors.DecodeFailure` — which the property tests in
``tests/test_bch_batch.py`` assert on randomized inputs.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.gf.base import GF2mField
from repro.gf.table_field import TableField


def stack_groups(groups: Sequence[np.ndarray]) -> np.ndarray:
    """Zero-pad variable-length element arrays into a ``(g, L)`` matrix.

    Zero is not a field element of the sketch universe, is the XOR
    identity, and stays zero under field multiplication, so padded slots
    contribute nothing to any power sum.
    """
    g = len(groups)
    arrays = [np.asarray(v, dtype=np.int64) for v in groups]
    width = max((len(v) for v in arrays), default=0)
    out = np.zeros((g, max(width, 1)), dtype=np.int64)
    for i, v in enumerate(arrays):
        if len(v):
            out[i, : len(v)] = v
    return out


class BatchBCHDecoder:
    """Vectorized multi-group counterpart of :class:`~repro.bch.codec.BCHCodec`.

    >>> from repro.gf import field_for
    >>> eng = BatchBCHDecoder(field_for(7), t=4)
    >>> sk = eng.sketch_many([[3, 17, 44], [], [5, 99]])
    >>> eng.decode_many(sk)
    [[3, 17, 44], [], [5, 99]]
    """

    def __init__(self, field: GF2mField, t: int) -> None:
        if t < 1:
            raise ParameterError(f"capacity t must be >= 1, got {t}")
        if not hasattr(field, "mul_vec"):
            raise ParameterError(
                f"{type(field).__name__} has no mul_vec; batch decoding "
                "needs a vectorized field backend"
            )
        self.field = field
        self.t = t

    # -- encoding ----------------------------------------------------------
    def sketch_many(self, groups: Sequence[np.ndarray]) -> np.ndarray:
        """``(g, t)`` syndrome matrix, one row per group of field elements."""
        return self.sketch_matrix(stack_groups(groups))

    def sketch_matrix(self, values: np.ndarray) -> np.ndarray:
        """Power-sum syndromes of a zero-padded ``(g, L)`` element matrix."""
        field = self.field
        t = self.t
        out = np.zeros((values.shape[0], t), dtype=np.int64)
        if values.size == 0 or not values.any():
            return out
        v_sq = field.mul_vec(values, values)
        powers = values
        for k in range(t):
            out[:, k] = np.bitwise_xor.reduce(powers, axis=1)
            if k + 1 < t:
                powers = field.mul_vec(powers, v_sq)
        return out

    def expand_many(self, odd: np.ndarray) -> np.ndarray:
        """``(g, 2t)`` full syndrome matrices from the odd halves.

        The even columns follow from Frobenius on power sums
        (``s_2k = s_k^2``), exactly like the scalar
        :func:`~repro.bch.syndromes.expand_syndromes`.
        """
        field = self.field
        g, t = odd.shape
        full = np.zeros((g, 2 * t), dtype=np.int64)
        full[:, 0::2] = odd
        for k in range(1, t + 1):
            half = full[:, k - 1]
            full[:, 2 * k - 1] = field.mul_vec(half, half)
        return full

    # -- Berlekamp–Massey --------------------------------------------------
    def bm_many(self, full: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lockstep Berlekamp–Massey over ``(g, 2t)`` syndrome matrices.

        Returns ``(locators, lengths)``: a ``(g, 2t + 1)`` matrix of
        ascending-degree locator coefficients (column 0 is always 1) and
        the per-group LFSR lengths.  Matches the scalar
        :func:`~repro.bch.berlekamp_massey.berlekamp_massey` step for
        step; the branches act through masks.
        """
        field = self.field
        g, n_syn = full.shape
        width = n_syn + 1
        loc = np.zeros((g, width), dtype=np.int64)
        loc[:, 0] = 1
        prev = loc.copy()  # B(x) per group
        length = np.zeros(g, dtype=np.int64)
        gap = np.ones(g, dtype=np.int64)
        prev_disc = np.ones(g, dtype=np.int64)
        cols = np.arange(width, dtype=np.int64)
        rows = np.arange(g, dtype=np.int64)[:, None]
        max_len = 0  # running max of `length`, bounds the discrepancy sum
        for i in range(n_syn):
            # discrepancy d = s_i + sum_{j=1..L} C_j * s_{i-j}
            disc = full[:, i].copy()
            for j in range(1, min(i, max_len, width - 1) + 1):
                term = field.mul_vec(loc[:, j], full[:, i - j])
                disc ^= np.where(j <= length, term, 0)
            active = disc != 0
            if not active.any():
                gap += 1
                continue
            # coef = disc / prev_disc (prev_disc is never 0 by construction)
            coef = field.mul_vec(disc, field.inv_vec(prev_disc))
            # adjust = coef * x^gap * prev, via a per-row variable shift
            shifted = cols[None, :] - gap[:, None]
            prev_shifted = np.where(
                shifted >= 0, prev[rows, np.maximum(shifted, 0)], 0
            )
            adjust = field.mul_vec(coef[:, None], prev_shifted)
            candidate = loc ^ adjust
            change = active & (2 * length <= i)
            keep_mask = change[:, None]
            prev = np.where(keep_mask, loc, prev)
            prev_disc = np.where(change, disc, prev_disc)
            length = np.where(change, i + 1 - length, length)
            gap = np.where(change, 1, gap + 1)
            loc = np.where(active[:, None], candidate, loc)
            if change.any():
                max_len = int(length.max())
        return loc, length

    @staticmethod
    def degrees(loc: np.ndarray) -> np.ndarray:
        """Per-row polynomial degree (column 0 is always nonzero)."""
        width = loc.shape[1]
        return width - 1 - np.argmax(loc[:, ::-1] != 0, axis=1)

    # -- root search -------------------------------------------------------
    @staticmethod
    def _pack_hits(
        g: int, hit_rows: np.ndarray, hit_elems: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pack flat (row, element) hits into a zero-padded ``(g, w)`` matrix.

        ``hit_rows`` must be non-decreasing; each output row holds that
        group's recovered elements sorted ascending, then zero padding.
        """
        counts = np.bincount(hit_rows, minlength=g)
        width = int(counts.max()) if len(hit_rows) else 0
        mat = np.zeros((g, max(width, 1)), dtype=np.int64)
        if len(hit_rows):
            # sort within each row by element value (rows already grouped)
            order = np.lexsort((hit_elems, hit_rows))
            sorted_elems = hit_elems[order]
            starts = np.zeros(g + 1, dtype=np.int64)
            np.cumsum(counts, out=starts[1:])
            offsets = np.arange(len(hit_rows)) - starts[hit_rows]
            mat[hit_rows, offsets] = sorted_elems
        return mat, counts

    def _chien_elements(
        self, loc: np.ndarray, max_deg: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Chien search (table fields): recovered elements per group.

        Returns ``(elements, counts)``: a zero-padded ``(g, w)`` matrix of
        the *inverses* of the locator roots (BM's locator is
        ``prod (1 - e_i x)``), each row sorted ascending, plus per-group
        root counts.
        """
        field = self.field
        order = field.order
        vals = field.eval_poly_all_batch(loc[:, : max_deg + 1])
        hit_rows, hit_cols = np.nonzero(vals == 0)
        # root alpha^i  ->  element alpha^(-i)
        elems = field.exp_table[(order - hit_cols) % order]
        return self._pack_hits(loc.shape[0], hit_rows, elems)

    def _candidate_elements(
        self, loc: np.ndarray, max_deg: int, candidates: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched candidate root search (any vectorized field).

        ``candidates[i]`` must contain every sketched element of group i
        (e.g. Alice's elements under the paper's B ⊂ A workload).  An
        element c is recovered iff ``locator(c^-1) == 0``, evaluated for
        all groups' candidates in one flat Horner pass.
        """
        field = self.field
        g = loc.shape[0]
        sizes = np.fromiter((len(c) for c in candidates), dtype=np.int64, count=g)
        if sizes.sum() == 0:
            return np.zeros((g, 1), dtype=np.int64), np.zeros(g, dtype=np.int64)
        flat = np.concatenate(
            [np.asarray(c, dtype=np.int64) for c in candidates]
        )
        gid = np.repeat(np.arange(g, dtype=np.int64), sizes)
        nonzero = flat != 0
        flat, gid = flat[nonzero], gid[nonzero]
        inv_flat = field.inv_vec(flat)
        acc = np.zeros_like(inv_flat)
        for j in range(max_deg, -1, -1):
            acc = field.mul_vec(acc, inv_flat) ^ loc[gid, j]
        root_mask = acc == 0
        hit_gid = gid[root_mask]
        hit_elems = flat[root_mask]
        # drop duplicate (group, element) pairs, mirroring the scalar
        # np.unique (callers pass unique candidate sets, but stay safe)
        order = np.lexsort((hit_elems, hit_gid))
        hit_gid, hit_elems = hit_gid[order], hit_elems[order]
        if len(hit_gid):
            fresh = np.ones(len(hit_gid), dtype=bool)
            fresh[1:] = (hit_gid[1:] != hit_gid[:-1]) | (
                hit_elems[1:] != hit_elems[:-1]
            )
            hit_gid, hit_elems = hit_gid[fresh], hit_elems[fresh]
        return self._pack_hits(g, hit_gid, hit_elems)

    # -- decoding ----------------------------------------------------------
    def decode_many(
        self,
        sketches: np.ndarray,
        candidates: Sequence[np.ndarray] | None = None,
        verify: bool = True,
    ) -> list[list[int] | None]:
        """Decode a ``(g, t)`` sketch matrix; ``None`` marks a group whose
        scalar decode would raise :class:`~repro.errors.DecodeFailure`.

        Root-search precedence matches the scalar
        :meth:`~repro.bch.codec.BCHCodec.decode`: table fields always use
        the exhaustive Chien search (``candidates`` is ignored there, as
        in the scalar path); other fields require per-group
        ``candidates`` arrays for the batched Horner evaluation.
        """
        sk = np.asarray(sketches, dtype=np.int64)
        if sk.ndim != 2 or sk.shape[1] != self.t:
            raise ParameterError(
                f"sketch matrix shape {sk.shape} does not match capacity {self.t}"
            )
        if candidates is None and not isinstance(self.field, TableField):
            raise ParameterError(
                "batch decode over a non-table field needs per-group candidates"
            )
        g = sk.shape[0]
        if g == 0:
            return []
        full = self.expand_many(sk)
        loc, length = self.bm_many(full)
        deg = self.degrees(loc)
        failed = (length > self.t) | (deg != length)
        # Replace failed rows' locators with the constant 1 (no roots):
        # their garbage polynomials could otherwise have many roots and
        # widen the packed result matrix for every group.
        if failed.any():
            loc = np.where(failed[:, None], 0, loc)
            loc[:, 0] = 1
            deg = np.where(failed, 0, deg)
        max_deg = int(min(deg.max(), self.t)) if len(deg) else 0
        if isinstance(self.field, TableField):
            elements, counts = self._chien_elements(loc, max_deg)
        else:
            if len(candidates) != g:
                raise ParameterError(
                    f"{len(candidates)} candidate arrays for {g} groups"
                )
            elements, counts = self._candidate_elements(loc, max_deg, candidates)
        failed |= counts != deg
        if verify:
            # Re-sketching the already-failed rows' (possibly garbage)
            # elements is harmless: `failed` only ever accumulates.
            failed |= (self.sketch_matrix(elements) != sk).any(axis=1)
        return [
            None if failed[i] else elements[i, : counts[i]].tolist()
            for i in range(g)
        ]
