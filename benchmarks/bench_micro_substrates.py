"""Micro-benchmarks of the substrates backing every protocol.

These are classic pytest-benchmark timings (many rounds) rather than
experiment drivers: GF multiplication in all three backends, BCH sketch
encode/decode (scalar and batched), IBF insertion/peeling, and bulk
hashing throughput.  ``TestBatchVsScalar`` additionally archives a
scalar-vs-batch decode comparison on the Figure-1 workload shape under
``benchmarks/results/``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.ibf import IBF
from repro.bch.codec import BCHCodec
from repro.core.params import DEFAULT_DELTA, PBSParams
from repro.core.partition import bin_indices, bin_tables
from repro.errors import DecodeFailure
from repro.evaluation.harness import ExperimentTable
from repro.gf import CarrylessField, TableField, TowerField32
from repro.hashing.families import SaltedHash


@pytest.fixture(scope="module")
def values_100k():
    rng = np.random.default_rng(1)
    return np.unique(rng.integers(1, 1 << 32, size=100_000, dtype=np.uint64))


class TestFieldMultiply:
    def test_table_field_mul(self, benchmark):
        field = TableField(11)
        benchmark(lambda: [field.mul(1234, 987) for _ in range(1000)])

    def test_tower_field_mul(self, benchmark):
        field = TowerField32()
        benchmark(lambda: [field.mul(0xDEADBEEF, 0xCAFE1234) for _ in range(1000)])

    def test_carryless_field_mul(self, benchmark):
        field = CarrylessField(32)
        benchmark(lambda: [field.mul(0xDEADBEEF, 0xCAFE1234) for _ in range(1000)])

    def test_tower_field_mul_vec_100k(self, benchmark, values_100k):
        field = TowerField32()
        a = values_100k.astype(np.int64)
        benchmark(lambda: field.mul_vec(a, a))


class TestBCH:
    def test_sketch_bitmap_positions(self, benchmark):
        field = TableField(7)
        codec = BCHCodec(field, 13)
        rng = np.random.default_rng(2)
        positions = np.unique(rng.integers(1, 128, size=40, dtype=np.int64))
        benchmark(lambda: codec.sketch(positions))

    def test_decode_five_errors(self, benchmark):
        field = TableField(7)
        codec = BCHCodec(field, 13)
        sketch = codec.sketch([3, 17, 44, 99, 120])
        benchmark(lambda: codec.decode(sketch))

    def test_pinsketch_syndromes_10k(self, benchmark, values_100k):
        field = TowerField32()
        codec = BCHCodec(field, 14)
        subset = values_100k[:10_000].astype(np.int64)
        benchmark(lambda: codec.sketch(subset))


def _round_sketches(codec: BCHCodec, g: int, delta: int, seed: int = 0):
    """The g per-group delta sketches of one PBS round.

    Group loads are Poisson(delta) like the real partition, including
    over-capacity groups (decode failures), so both paths exercise their
    failure handling.
    """
    n = codec.field.order
    rng = np.random.default_rng(seed)
    sketches = []
    for _ in range(g):
        k = min(int(rng.poisson(delta)), n)
        positions = rng.choice(np.arange(1, n + 1), size=k, replace=False)
        sketches.append(codec.sketch(np.sort(positions).astype(np.int64)))
    return sketches


def _fig1_round_sketches(d: int = 3000, seed: int = 0):
    """One fig1-shaped PBS round: the per-group delta sketches at scale d."""
    params = PBSParams.from_d(d)
    return params.codec, _round_sketches(
        params.codec, params.g, params.delta, seed
    )


#: Decode shapes (m, t, g) of the service ledger's workloads: a coalesced
#: smallset-durable call, and one round of midset-proc and of bigset.
LEDGER_DECODE_SHAPES = ((6, 8, 3), (7, 8, 55), (8, 9, 276))


def _scalar_decode_all(codec: BCHCodec, sketches) -> None:
    for sk in sketches:
        try:
            codec.decode(sk)
        except DecodeFailure:
            pass


def _best_seconds(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _ledger_shape_seconds(m: int, t: int, g: int) -> dict[str, float]:
    """Best-of-20 seconds of the scalar loop and of the batch engine on
    one ledger-shaped round of g delta sketches."""
    codec = BCHCodec(TableField(m), t)
    rows = _round_sketches(codec, g, DEFAULT_DELTA)
    matrix = np.array(rows, dtype=np.int64)
    engine = codec.batch_engine
    return {
        "scalar": _best_seconds(lambda: _scalar_decode_all(codec, rows), 20),
        "batch": _best_seconds(lambda: engine.decode_many(matrix), 20),
    }


class TestBatchVsScalar:
    """The batch decode engine against the per-group scalar loop."""

    def test_decode_fig1_round_scalar(self, benchmark):
        codec, sketches = _fig1_round_sketches()
        benchmark(lambda: _scalar_decode_all(codec, sketches))

    def test_decode_fig1_round_batch(self, benchmark):
        codec, sketches = _fig1_round_sketches()
        benchmark(lambda: codec.decode_many(sketches))

    def test_sketch_fig1_round_batch(self, benchmark):
        params = PBSParams.from_d(3000)
        rng = np.random.default_rng(1)
        groups = [
            np.sort(
                rng.choice(np.arange(1, params.n + 1), size=8, replace=False)
            ).astype(np.int64)
            for _ in range(params.g)
        ]
        benchmark(lambda: params.codec.sketch_many(groups))

    def test_fig1_decode_speedup_table(self):
        """Archive the measured speedup; engine target is >= 5x on fig1.

        The assertion floor is deliberately below the target so a noisy
        CI runner cannot flake the build; the archived table carries the
        real number.  The ledger-shape rows are archived without a gate:
        µs per group of the scalar per-group loop and of the batch
        engine on the same ``(g, t)`` delta array (``decode_many`` hands
        fewer than 4 groups to the scalar loop).
        """
        table = ExperimentTable(
            name="Micro — batch vs scalar BCH decode",
            columns=[
                "layer", "d", "m", "t", "g", "mode", "success", "decode_s",
                "encode_s", "us_per_group", "decode_speedup",
            ],
        )
        codec, sketches = _fig1_round_sketches()
        best = {
            "scalar": _best_seconds(
                lambda: _scalar_decode_all(codec, sketches), 5
            ),
            "batch": _best_seconds(lambda: codec.decode_many(sketches), 5),
        }
        engine_speedup = best["scalar"] / max(best["batch"], 1e-12)
        for mode in ("scalar", "batch"):
            table.add_row(
                layer="bch-engine", d=3000, m=codec.field.m, t=codec.t,
                g=len(sketches), mode=mode, success=1.0,
                decode_s=best[mode], encode_s=0.0,
                us_per_group=best[mode] * 1e6 / len(sketches),
                decode_speedup=engine_speedup if mode == "batch" else "",
            )
        for m, t, g in LEDGER_DECODE_SHAPES:
            shape_best = _ledger_shape_seconds(m, t, g)
            for mode, seconds in shape_best.items():
                table.add_row(
                    layer="ledger-shape", d="", m=m, t=t, g=g, mode=mode,
                    success=1.0, decode_s=seconds, encode_s=0.0,
                    us_per_group=seconds * 1e6 / g,
                    decode_speedup=(
                        shape_best["scalar"] / max(seconds, 1e-12)
                        if mode == "batch" else ""
                    ),
                )
        table.note(
            f"engine best-of-5 speedup {engine_speedup:.1f}x "
            "(target >= 5x on the fig1 workload at default scale)"
        )
        table.print()
        table.save("micro_batch_vs_scalar")
        assert engine_speedup >= 3.0


class TestIBF:
    def test_insert_10k(self, benchmark, values_100k):
        subset = values_100k[:10_000]

        def insert():
            ibf = IBF(n_cells=2000, n_hashes=3, seed=3)
            ibf.insert_many(subset)
            return ibf

        benchmark(insert)

    def test_peel_200_differences(self, benchmark, values_100k):
        diff = values_100k[:200]

        def build_and_peel():
            ibf = IBF(n_cells=400, n_hashes=4, seed=4)
            ibf.insert_many(diff)
            return ibf.decode()

        benchmark(build_and_peel)


class TestHashingAndPartition:
    def test_bulk_hash_100k(self, benchmark, values_100k):
        h = SaltedHash(7)
        benchmark(lambda: h.hash_vec(values_100k))

    def test_partition_and_parity_100k(self, benchmark, values_100k):
        def partition():
            idx = bin_indices(values_100k, salt=9, n=127)
            return bin_tables(values_100k, idx, 127)

        benchmark(partition)
