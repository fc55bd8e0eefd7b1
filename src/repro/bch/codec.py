"""The BCH sketch codec: the "sketching" of Parity Bitmap Sketch.

:class:`BCHCodec` bundles syndrome computation, the XOR homomorphism, and
full decoding (Berlekamp–Massey + root finding + verification) behind one
object parameterized by a field and an error-correction capacity ``t``.

Decoding is *sound*: when the sketched difference has more than ``t``
elements, the decoder either raises :class:`~repro.errors.DecodeFailure`
(the paper's §3.2 exception, triggering a three-way group split in PBS) or
— with negligible probability — returns a wrong element list, which the
protocol's checksum verification then rejects (§2.2.3).  Three defensive
checks make silent wrong answers rare: locator degree must equal the BM
length, the root count must equal the degree, and the recovered elements'
syndromes must reproduce the received sketch.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.bch.batch import BatchBCHDecoder, Decoded
from repro.bch.berlekamp_massey import berlekamp_massey
from repro.bch.roots import candidate_roots, chien_roots, trace_roots
from repro.bch.syndromes import expand_syndromes, syndromes_of
from repro.errors import DecodeFailure, ParameterError
from repro.gf.base import GF2mField
from repro.gf.table_field import TableField
from repro.utils.bitio import BitReader, BitWriter


class BCHCodec:
    """Syndrome sketch with capacity ``t`` over a given GF(2^m).

    >>> from repro.gf import field_for
    >>> codec = BCHCodec(field_for(8), t=5)
    >>> sk_a = codec.sketch([3, 77, 200])
    >>> sk_b = codec.sketch([3, 150])
    >>> codec.decode(codec.sketch_xor(sk_a, sk_b))
    [77, 150, 200]
    """

    def __init__(self, field: GF2mField, t: int) -> None:
        if t < 1:
            raise ParameterError(f"capacity t must be >= 1, got {t}")
        self.field = field
        self.t = t
        self._batch_engine: BatchBCHDecoder | None = None

    @property
    def batch_engine(self) -> BatchBCHDecoder | None:
        """The multi-group engine, or None if the field cannot support it."""
        if self._batch_engine is None and hasattr(self.field, "mul_vec"):
            self._batch_engine = BatchBCHDecoder(self.field, self.t)
        return self._batch_engine

    # -- encoding ----------------------------------------------------------
    def sketch(self, values: Iterable[int]) -> list[int]:
        """Sketch a set of nonzero field elements (t syndromes)."""
        return syndromes_of(values, self.t, self.field)

    def sketch_xor(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Sketch of the symmetric difference of two sketched sets."""
        if len(a) != len(b):
            raise ParameterError("cannot XOR sketches of different capacity")
        return [x ^ y for x, y in zip(a, b)]

    def sketch_many(
        self, groups: Sequence[Iterable[int]], batch: bool = True
    ) -> list[list[int]]:
        """Sketch many sets at once (one vectorized pass over all groups).

        With ``batch=False`` (or a field without ``mul_vec``) this is a
        plain per-group loop — kept as the cross-checking reference.
        """
        engine = self.batch_engine if batch else None
        if engine is None:
            return [self.sketch(g) for g in groups]
        arrays = [
            np.asarray(g if isinstance(g, np.ndarray) else list(g))
            for g in groups
        ]
        return engine.sketch_many(arrays).tolist()

    def sketch_rows(self, rows: np.ndarray, batch: bool = True) -> np.ndarray:
        """``(g, t)`` int64 sketches of the rows of a zero-padded ``(g, L)``
        element matrix (zeros are padding, not elements).

        The batch engine sketches the matrix as is; ``batch=False`` (or a
        field without ``mul_vec``) strips each row's padding and runs the
        scalar :meth:`sketch`.
        """
        engine = self.batch_engine if batch else None
        if engine is not None:
            return engine.sketch_matrix(rows)
        out = np.zeros((len(rows), self.t), dtype=np.int64)
        for i, row in enumerate(rows):
            out[i] = self.sketch(row[row != 0])
        return out

    # -- decoding ----------------------------------------------------------
    def decode(
        self,
        sketch: Sequence[int],
        candidates: np.ndarray | None = None,
        verify: bool = True,
        seed: int = 0,
        batch: bool = True,
    ) -> list[int]:
        """Recover the (at most t) elements whose sketch this is.

        ``candidates``: optional array of field elements known to contain
        all sketched elements; enables the fast evaluation-based root search
        for large fields.  Raises :class:`DecodeFailure` when the sketch is
        not decodable (more than t elements, or inconsistent).
        """
        if len(sketch) != self.t:
            raise ParameterError(
                f"sketch has {len(sketch)} syndromes, codec expects {self.t}"
            )
        if all(s == 0 for s in sketch):
            return []
        field = self.field
        full = expand_syndromes(list(sketch), field)
        locator, length = berlekamp_massey(full, field)
        if length > self.t or len(locator) - 1 != length:
            raise DecodeFailure(
                f"locator degree {len(locator) - 1} != BM length {length} "
                f"or exceeds capacity {self.t}"
            )
        roots = self._find_roots(locator, candidates, seed, batch)
        if 0 in roots:
            raise DecodeFailure("locator has 0 as a root")
        # BM's locator is prod (1 - e_i x): its roots are the inverses.
        elements = sorted(field.inv(r) for r in roots)
        if len(elements) != length:
            raise DecodeFailure(
                f"found {len(elements)} roots for a degree-{length} locator"
            )
        if verify and syndromes_of(elements, self.t, field) != list(sketch):
            raise DecodeFailure("recovered elements do not reproduce the sketch")
        return elements

    def decode_many(
        self,
        sketches: Sequence[Sequence[int]] | np.ndarray,
        candidates: Sequence[np.ndarray] | None = None,
        batch: bool = True,
        verify: bool = True,
        seed: int = 0,
    ):
        """Decode many sketches at once.

        A ``(g, t)`` array of sketches comes back packed, as a
        :class:`~repro.bch.batch.Decoded`; any other sequence of sketches
        as a list of element lists, ``None`` marking a failed group.
        The batch path runs syndromes, Berlekamp–Massey and root search
        across all groups on 2-D arrays (``batch=False`` falls back to a
        per-group :meth:`decode` loop, kept for cross-checking).  It
        requires a table field (Chien search) or per-group ``candidates``.
        """
        packed = isinstance(sketches, np.ndarray)
        if packed:
            matrix = sketches
            if matrix.ndim != 2 or matrix.shape[1] != self.t:
                raise ParameterError(
                    f"sketch matrix shape {matrix.shape} does not match "
                    f"capacity {self.t}"
                )
        else:
            if any(len(sk) != self.t for sk in sketches):
                raise ParameterError(
                    f"sketch rows do not all have {self.t} syndromes"
                )
            matrix = np.asarray(sketches, dtype=np.int64).reshape(-1, self.t)
        # Below a handful of groups the lockstep machinery costs more than
        # it saves; the scalar loop produces identical results.
        engine = self.batch_engine if batch and len(matrix) >= 4 else None
        if engine is not None and (
            candidates is not None or isinstance(self.field, TableField)
        ):
            result = engine.decode_many(
                matrix, candidates=candidates, verify=verify
            )
            return result if packed else result.tolist()
        rows: list[list[int] | None] = []
        for i, sk in enumerate(matrix.tolist()):
            cand = candidates[i] if candidates is not None else None
            try:
                rows.append(
                    self.decode(
                        sk, candidates=cand, verify=verify, seed=seed, batch=batch
                    )
                )
            except DecodeFailure:
                rows.append(None)
        return Decoded.from_rows(rows, self.t) if packed else rows

    def _find_roots(
        self,
        locator: list[int],
        candidates: np.ndarray | None,
        seed: int,
        batch: bool = True,
    ) -> list[int]:
        if isinstance(self.field, TableField):
            return chien_roots(locator, self.field)
        if candidates is not None:
            # roots are inverses of sketched elements; invert the candidates
            if batch:
                nonzero = np.asarray(candidates, dtype=np.int64)
                inv_candidates = self.field.inv_vec(nonzero[nonzero != 0])
            else:
                inv_candidates = np.fromiter(
                    (self.field.inv(int(c)) for c in candidates if c != 0),
                    dtype=np.int64,
                    count=-1,
                )
            return candidate_roots(locator, inv_candidates, self.field)
        return trace_roots(locator, self.field, seed=seed)

    # -- serialization -----------------------------------------------------
    @property
    def sketch_bits(self) -> int:
        """Wire size of one sketch: ``t * m`` bits (§2.5)."""
        return self.t * self.field.m

    def serialize(self, sketch: Sequence[int]) -> bytes:
        """Bit-pack a sketch into ``ceil(t*m / 8)`` bytes."""
        writer = BitWriter()
        for s in sketch:
            writer.write(s, self.field.m)
        return writer.getvalue()

    def deserialize(self, data: bytes) -> list[int]:
        """Inverse of :meth:`serialize`."""
        reader = BitReader(data)
        return [reader.read(self.field.m) for _ in range(self.t)]
