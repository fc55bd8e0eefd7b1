"""Batched BCH sketch encode/decode across all groups of a PBS round.

The per-group decode pipeline (syndromes → Berlekamp–Massey → Chien
search → verification) is the dominant hot path of every PBS round: one
small decode per group, hundreds of groups per round.  Running it group
by group costs a Python-level loop per group *inside* each stage; this
module instead runs every stage across **all groups at once** on 2-D
numpy arrays, so a call costs a few array operations per
Berlekamp–Massey step whatever the number of groups:

* :meth:`BatchBCHDecoder.sketch_many` — stack the per-group element
  arrays into one zero-padded ``(g, L)`` matrix and compute all ``g * t``
  power-sum syndromes with ``t`` vectorized field multiplies (0 is
  XOR-neutral and absorbs under multiplication, so the padding is free).
* :meth:`BatchBCHDecoder.bm_many` — Berlekamp–Massey in lockstep: all
  groups share the iteration counter while the data-dependent branches
  (zero discrepancy, length change) become masks.  Each step's
  discrepancy is one ``(g, L)`` block product and an XOR-reduce, and
  only the t odd-syndrome steps run: the even ones have zero
  discrepancy for binary BCH syndromes (``s_2k = s_k^2``).
* root search — either a batched Chien search from lookup tables via
  :meth:`~repro.gf.table_field.TableField.eval_at_inverses` (table
  fields: PBS's m = 6..11 parity bitmaps), or a batched Horner
  evaluation over a caller-supplied candidate array per group (large
  fields: partitioned PinSketch over GF(2^32)).
* verification — re-sketch all recovered element rows with
  :meth:`sketch_matrix` and compare matrices.

Results come back packed as a :class:`Decoded`.  The engine is
bit-for-bit equivalent to the scalar :class:`~repro.bch.codec.BCHCodec`
path — including which groups raise
:class:`~repro.errors.DecodeFailure` — which the property tests in
``tests/test_bch_batch.py`` assert on randomized inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

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


class Decoded(NamedTuple):
    """Packed decode results of g groups of capacity t.

    A group decodes to at most t elements, so every result fits a
    ``(g, t)`` matrix and a batch slices like its rows.
    """

    #: ``(g, t)`` recovered elements, each row ascending, then zeros
    elements: np.ndarray
    #: ``(g,)`` number of recovered elements per row (0 where failed)
    counts: np.ndarray
    #: ``(g,)`` True where the scalar decode raises ``DecodeFailure``
    failed: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[list[int] | None], t: int) -> Decoded:
        """Pack per-group results (``None`` for a failure)."""
        elements = np.zeros((len(rows), t), dtype=np.int64)
        counts = np.zeros(len(rows), dtype=np.int64)
        for i, row in enumerate(rows):
            if row:
                elements[i, : len(row)] = row
                counts[i] = len(row)
        failed = np.fromiter(
            (row is None for row in rows), dtype=bool, count=len(rows)
        )
        return cls(elements, counts, failed)

    def slice(self, start: int, stop: int) -> Decoded:
        """The results of groups ``start`` to ``stop``."""
        return Decoded(
            self.elements[start:stop],
            self.counts[start:stop],
            self.failed[start:stop],
        )

    def tolist(self) -> list[list[int] | None]:
        """Per-group element lists, ``None`` for a failed group."""
        return [
            None if failed else row[:count]
            for row, count, failed in zip(
                self.elements.tolist(),
                self.counts.tolist(),
                self.failed.tolist(),
            )
        ]


class BatchBCHDecoder:
    """Vectorized multi-group counterpart of :class:`~repro.bch.codec.BCHCodec`.

    >>> from repro.gf import field_for
    >>> eng = BatchBCHDecoder(field_for(7), t=4)
    >>> sk = eng.sketch_many([[3, 17, 44], [], [5, 99]])
    >>> eng.decode_many(sk).tolist()
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
        the per-group LFSR lengths, equal to the scalar
        :func:`~repro.bch.berlekamp_massey.berlekamp_massey` row by row.

        Only the steps at the odd syndromes ``s_1, s_3, ...`` (0-based
        even i) run.  When ``s_2k = s_k^2`` for every k, as
        :meth:`expand_many` makes it, the discrepancy at each even
        syndrome is zero (Berlekamp's simplification for binary BCH
        codes), and a zero-discrepancy step only advances the gap.

        The state per group is the locator C, ``shifted = x^gap * B``
        (B is C before its last length change), the length L and the
        discrepancy at that change.  It is stored coefficient-major, one
        row per coefficient, so every slice a step takes is contiguous.
        deg C <= L, so the discrepancy ``sum_(j <= L) C_j s_(i-j)``
        needs no per-group length mask.
        """
        field = self.field
        g, n_syn = full.shape
        width = n_syn + 1
        # row k of `rev` is s_(n_syn - k): a step's window s_i .. s_(i-L)
        # is a run of consecutive rows
        rev = np.ascontiguousarray(full[:, ::-1].T)
        loc = np.zeros((width, g), dtype=np.int64)
        loc[0] = 1
        # `shifted` is a window of `buf` that slides up two rows a step,
        # multiplying by x^2 for the step and the skipped one after it;
        # rows above the window were never written, so it slides in zeros
        buf = np.zeros((n_syn + width, g), dtype=np.int64)
        top = n_syn
        buf[top + 1] = 1  # x^1 * 1
        length = np.zeros(g, dtype=np.int64)
        prev_disc = np.ones(g, dtype=np.int64)
        max_len = 0  # running max of `length`: L <= i before step i
        for i in range(0, n_syn, 2):
            first = n_syn - 1 - i
            terms = field.mul_vec(
                loc[: max_len + 1], rev[first : first + max_len + 1]
            )
            disc = np.bitwise_xor.reduce(terms, axis=0)
            shifted = buf[top : top + width]
            top -= 2
            if not disc.any():
                continue
            # Only coefficients 0 .. i+1 can change: the new C and, for a
            # group with a nonzero discrepancy, x^gap * B have degree at
            # most the new L <= i + 1 (a zero discrepancy gives coef 0).
            hi = i + 2
            coef = field.mul_vec(disc, field.inv_vec(prev_disc))
            adjust = field.mul_vec(coef, shifted[:hi])
            change = np.logical_and(disc, length <= i // 2)
            # B = C where L changes; in place, it is the next window's
            # x^2 * B
            np.copyto(shifted[:hi], loc[:hi], where=change)
            loc[:hi] ^= adjust
            np.copyto(prev_disc, disc, where=change)
            np.subtract(i + 1, length, out=length, where=change)
            max_len = int(length.max())
        return np.ascontiguousarray(loc.T), length

    @staticmethod
    def degrees(loc: np.ndarray) -> np.ndarray:
        """Per-row polynomial degree (column 0 is always nonzero)."""
        width = loc.shape[1]
        return width - 1 - np.argmax(loc[:, ::-1] != 0, axis=1)

    # -- root search -------------------------------------------------------
    def _pack_hits(
        self, g: int, hit_rows: np.ndarray, hit_elems: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pack flat (row, element) hits into a zero-padded ``(g, t)`` matrix.

        The hits must be sorted by row, then by element, with at most t
        per row; each output row holds that group's elements in order.
        """
        counts = np.bincount(hit_rows, minlength=g)
        mat = np.zeros((g, self.t), dtype=np.int64)
        if len(hit_rows):
            starts = np.cumsum(counts) - counts
            mat[hit_rows, np.arange(len(hit_rows)) - starts[hit_rows]] = hit_elems
        return mat, counts

    def _chien_elements(
        self, loc: np.ndarray, max_deg: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched Chien search (table fields): recovered elements per group.

        Returns ``(elements, counts)``: a zero-padded ``(g, t)`` matrix of
        the *inverses* of the locator roots (BM's locator is
        ``prod (1 - e_i x)``), each row ascending, plus per-group root
        counts.  Constant locators have no roots and are skipped.
        """
        field = self.field
        live = np.flatnonzero(loc[:, 1 : max_deg + 1].any(axis=1))
        vals = field.eval_at_inverses(loc[live, : max_deg + 1])
        hits = np.flatnonzero(vals == 0)
        rows = hits // field.order
        elements = hits - rows * field.order + 1
        return self._pack_hits(loc.shape[0], live[rows], elements)

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
            return np.zeros((g, self.t), dtype=np.int64), np.zeros(g, dtype=np.int64)
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
        # sort, and drop duplicate (group, element) pairs, mirroring the
        # scalar np.unique (callers pass unique candidate sets, but stay
        # safe)
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
    ) -> Decoded:
        """Decode a ``(g, t)`` sketch matrix; ``failed`` marks the groups
        whose scalar decode would raise
        :class:`~repro.errors.DecodeFailure`.

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
            return Decoded.from_rows([], self.t)
        full = self.expand_many(sk)
        loc, length = self.bm_many(full)
        deg = self.degrees(loc)
        failed = (length > self.t) | (deg != length)
        # Replace failed rows' locators with the constant 1 (no roots):
        # their garbage polynomials could otherwise have more than t roots.
        if failed.any():
            loc = np.where(failed[:, None], 0, loc)
            loc[:, 0] = 1
            deg = np.where(failed, 0, deg)
        max_deg = int(deg.max())
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
        if failed.any():
            elements[failed] = 0
            counts[failed] = 0
        return Decoded(elements, counts, failed)
