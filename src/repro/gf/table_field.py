"""GF(2^m) via log/antilog tables (m <= 16).

Construction walks the powers of the generator alpha = x (the class of x in
GF(2)[x]/(p)), recording ``exp[i] = alpha^i`` and ``log[alpha^i] = i``.  The
walk doubles as a primitivity check: if the supplied polynomial were not
primitive the orbit of alpha would repeat before covering all 2^m - 1
nonzero elements, which we detect and reject.

The tables are numpy arrays, which enables the vectorized bulk operations
(:meth:`TableField.mul_vec`, :meth:`TableField.eval_at_inverses`) that
make syndrome computation and Chien search fast enough for pure Python.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError
from repro.gf.base import GF2mField, PRIMITIVE_POLYS

#: Chien lookup tables split each coefficient into chunks of this many
#: bits, one table row per chunk value: 16 rows a chunk keeps a locator
#: column's tables at ceil(m/4) * 16 rows of 2^m entries for every m.
CHIEN_CHUNK_BITS = 4
#: Largest m whose Chien search reads lookup tables (about 400 KB per
#: locator column at m = 12, doubling with every further bit).
CHIEN_TABLE_MAX_M = 12
#: Upper bound on the gathered (terms, rows, words) block of a table
#: evaluation.
CHIEN_BLOCK_BYTES = 1 << 22


class TableField(GF2mField):
    """Table-based GF(2^m) for m <= 16.

    >>> f = TableField(8)
    >>> f.mul(f.inv(7), 7)
    1
    """

    def __init__(self, m: int, poly: int | None = None) -> None:
        super().__init__(m)
        if m > 16:
            raise ParameterError(
                f"TableField supports m <= 16 (2^{m} table would be huge); "
                "use TowerField32 or CarrylessField"
            )
        if poly is None:
            try:
                poly = PRIMITIVE_POLYS[m]
            except KeyError:
                raise ParameterError(
                    f"no stock primitive polynomial for m={m}"
                ) from None
        self.poly = poly

        order = self.order
        exp = np.zeros(2 * order, dtype=np.int64)
        log = np.full(order + 1, -1, dtype=np.int64)
        x = 1
        for i in range(order):
            if log[x] != -1:
                raise ParameterError(
                    f"polynomial {poly:#x} is not primitive for m={m}: "
                    f"alpha has order {i}"
                )
            exp[i] = x
            log[x] = i
            x <<= 1
            if x >> m:
                x ^= poly
        if x != 1:
            raise ParameterError(f"polynomial {poly:#x} is not primitive for m={m}")
        # Double the exp table so mul can skip the `mod order` on index sums.
        exp[order : 2 * order] = exp[:order]
        #: antilog table, exp_table[i] = alpha^i, length 2*(2^m - 1)
        self.exp_table = exp
        #: log table, log_table[a] = discrete log of a (log_table[0] = -1)
        self.log_table = log
        # Zero-absorbing twins for mul_vec: the log of 0 is a sentinel
        # above any sum of two true logs (those stop at 2*order - 2), and
        # the antilog table is zero from the sentinel on, so a product
        # with a zero factor gathers a 0 without a mask.
        sentinel = 2 * order - 1
        self._log0 = np.where(log < 0, sentinel, log)
        self._expz = np.zeros(2 * sentinel + 1, dtype=np.int64)
        self._expz[:sentinel] = exp[:sentinel]
        # Chien lookup tables of the locator columns built so far (see
        # _chien_tables), as rows of 64-bit words: a gather and an XOR
        # then move 8 entries (m <= 8) or 4 entries at a time.
        self._chien_dtype = np.dtype(np.uint8 if m <= 8 else np.uint16)
        words = max(self.size * self._chien_dtype.itemsize // 8, 1)
        self._chien = np.zeros((0, words), dtype=np.uint64)

    # -- scalar ops --------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp_table[self.log_table[a] + self.log_table[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        if a == 1:
            return 1
        return int(self.exp_table[self.order - self.log_table[a]])

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 1 if k == 0 else 0
        idx = (int(self.log_table[a]) * k) % self.order
        return int(self.exp_table[idx])

    def alpha_pow(self, i: int) -> int:
        """``alpha^i`` for any integer i (alpha = the generator, element 2)."""
        return int(self.exp_table[i % self.order])

    # -- vectorized ops ----------------------------------------------------
    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise int64 product of two (broadcastable) arrays of
        field elements: one antilog gather of the summed logs, with zero
        factors absorbed by the tables rather than masked."""
        return self._expz[self._log0[a] + self._log0[b]]

    def pow_vec(self, a: np.ndarray, k: int) -> np.ndarray:
        """Elementwise ``a ** k`` for an array of field elements."""
        a = np.asarray(a, dtype=np.int64)
        logs = self.log_table[a]
        # Reduce k first: for m = 16 the raw product log * k overflows int64
        # once k reaches ~2^47 (logs go up to 2^16 - 2).
        k_red = int(k) % self.order
        out = self.exp_table[(logs * k_red) % self.order]
        zero = a == 0
        if zero.any():
            out = np.where(zero, 1 if k == 0 else 0, out)
        return out

    def inv_vec(self, a: np.ndarray) -> np.ndarray:
        """Elementwise multiplicative inverse of nonzero field elements."""
        a = np.asarray(a, dtype=np.int64)
        logs = self.log_table[a]
        if (logs < 0).any():
            raise ZeroDivisionError("inverse of 0 in GF(2^m)")
        # order - log is in [1, order]; the doubled exp table covers it
        # (exp[order] == exp[0] == 1, the a == 1 case).
        return self.exp_table[self.order - logs]

    def power_sum(self, values: np.ndarray, k: int) -> int:
        """XOR-sum of ``v ** k`` over all (nonzero) values — one syndrome."""
        if len(values) == 0:
            return 0
        return int(np.bitwise_xor.reduce(self.pow_vec(values, k)))

    def eval_poly_all(self, coeffs: list[int]) -> np.ndarray:
        """Evaluate a polynomial at *every* nonzero field element at once.

        Returns an array ``vals`` of length ``order`` with
        ``vals[i] = poly(alpha^i)``.  This is the vectorized Chien search
        primitive: the roots are the ``alpha^i`` with ``vals[i] == 0``.
        """
        order = self.order
        idx = np.arange(order, dtype=np.int64)
        acc = np.zeros(order, dtype=np.int64)
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            log_c = int(self.log_table[c])
            acc ^= self.exp_table[(log_c + j * idx) % order]
        return acc

    def eval_at_inverses(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate each row of a ``(g, k)`` ascending-degree coefficient
        matrix at the inverse of every nonzero element.

        Returns ``vals`` of shape ``(g, order)`` with
        ``vals[r, e - 1] = poly_r(1 / e)``, as uint8 for m <= 8 and
        uint16 above.  This is the batched Chien search: the ``e`` with
        ``vals[r, e - 1] == 0`` are the inverses of row r's roots, in
        ascending order.

        Coefficient j > 0 contributes the row ``(c_j * e^-j)_e``.
        Multiplying by a fixed ``e^-j`` is GF(2)-linear in ``c_j``, so
        that row is the XOR of one lookup-table row per 4-bit chunk of
        ``c_j``, and the evaluation is one gather and one XOR-reduce per
        block of rows.  Past ``CHIEN_TABLE_MAX_M`` a column's tables would
        take megabytes, so there each column is one direct product.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.ndim != 2:
            raise ParameterError("eval_at_inverses expects a (g, k) matrix")
        g, k = coeffs.shape
        if self.m > CHIEN_TABLE_MAX_M:
            inv_logs = -self.log_table[1:] % self.order   # log of 1/e
            acc = np.zeros((g, self.order), dtype=np.int64)
            for j in range(k):
                powers = self.exp_table[j * inv_logs % self.order]
                acc ^= self.mul_vec(coeffs[:, j, None], powers)
            return acc.astype(self._chien_dtype)
        chunks = -(-self.m // CHIEN_CHUNK_BITS)
        tables = self._chien_tables(k, chunks)
        # table row of chunk q of coefficient j: ((j-1)*chunks + q)*16 + v;
        # terms run along the first axis, so the XOR-reduce is over
        # whole contiguous (g, words) slabs
        shifts = CHIEN_CHUNK_BITS * np.arange(chunks)
        base = np.arange((k - 1) * chunks) << CHIEN_CHUNK_BITS
        rows = (
            (coeffs.T[1:, None, :] >> shifts[:, None])
            & ((1 << CHIEN_CHUNK_BITS) - 1)
        ).reshape((k - 1) * chunks, g) + base[:, None]
        words = np.empty((g, tables.shape[1]), dtype=np.uint64)
        # bound each gathered (terms, rows, words) block to a few MB
        block = max(1, CHIEN_BLOCK_BYTES // max(1, tables[:1].nbytes * len(rows)))
        for lo in range(0, g, block):
            np.bitwise_xor.reduce(
                tables.take(rows[:, lo : lo + block], axis=0),
                axis=0, out=words[lo : lo + block],
            )
        vals = words.view(self._chien_dtype)[:, 1 : self.size]
        vals ^= coeffs[:, :1].astype(vals.dtype)
        return vals

    def _chien_tables(self, k: int, chunks: int) -> np.ndarray:
        """Lookup rows ``((v << 4q) * e^-j)_e`` for coefficient columns
        j = 1 .. k-1, chunks q and 4-bit values v, laid out by (j, q, v).

        Entry e of a row belongs to element e; entry 0 and any entries
        past the field are padding.  Columns are built on first use and
        cached on the field: 8 KB each at m = 8, 200 KB at m = 11.  A
        chunk value past the top of the field gets a zero row; it is
        never read, since coefficients are field elements.
        """
        tables = self._chien
        per_column = chunks << CHIEN_CHUNK_BITS
        if len(tables) >= (k - 1) * per_column:
            return tables
        consts = (
            np.arange(1 << CHIEN_CHUNK_BITS)
            << (CHIEN_CHUNK_BITS * np.arange(chunks))[:, None]
        ).ravel()
        log_consts = self._log0[np.where(consts > self.order, 0, consts)]
        per_row = tables.shape[1] * 8 // self._chien_dtype.itemsize
        new = [tables]
        for j in range(len(tables) // per_column + 1, k):
            rows = np.zeros((per_column, per_row), dtype=self._chien_dtype)
            powers = -j * self.log_table[1:] % self.order
            rows[:, 1 : self.size] = self._expz[log_consts[:, None] + powers]
            new.append(rows.view(np.uint64))
        self._chien = tables = np.concatenate(new)
        return tables
