"""§6 / Appendices A-B: estimator accuracy vs wire cost.

Compares the Tug-of-War estimator (128 sketches, 336 B at |S| = 10^6)
against the Strata and min-wise estimators on relative error and wire
bytes, and verifies the §6.2 calibration: Pr[d <= 1.38 * d_hat] >= 99%.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.minwise import MinWiseEstimator
from repro.estimators.strata import StrataEstimator
from repro.estimators.tow import ToWEstimator
from repro.evaluation.harness import ExperimentTable, instances, scaled
from repro.utils.seeds import derive_seed


def run(
    d_values: tuple[int, ...] = (10, 100, 1000),
    size_a: int = 20_000,
    trials: int = 20,
    seed: int = 7,
) -> ExperimentTable:
    trials = scaled(trials, minimum=5)
    table = ExperimentTable(
        name="§6/App. B — estimator comparison",
        columns=[
            "d", "estimator", "wire_bytes", "mean_rel_err", "coverage_1.38",
        ],
    )
    for d in d_values:
        pairs = instances(size_a, d, trials, seed=seed)
        arrays = [
            (
                np.fromiter(p.a, dtype=np.uint64),
                np.fromiter(p.b, dtype=np.uint64),
            )
            for p in pairs
        ]

        # Tug-of-War (fast family for throughput; §6 uses 128 sketches)
        errs, covered = [], 0
        wire = ToWEstimator(n_sketches=128, seed=0).sketch_bytes(size_a)
        for i, (a, b) in enumerate(arrays):
            est = ToWEstimator(
                n_sketches=128, seed=derive_seed(seed, "tow", i), family="fast"
            )
            d_hat = est.estimate(est.sketch(a), est.sketch(b))
            errs.append(abs(d_hat - d) / d)
            covered += d <= 1.38 * d_hat
        table.add_row(
            d=d, estimator="tow-128", wire_bytes=wire,
            mean_rel_err=float(np.mean(errs)),
            **{"coverage_1.38": covered / trials},
        )

        # Strata
        errs, covered = [], 0
        strata_wire = StrataEstimator(seed=0).wire_bytes()
        for i, (a, b) in enumerate(arrays):
            est = StrataEstimator(seed=derive_seed(seed, "strata", i))
            d_hat = est.estimate(est.build(a), est.build(b))
            errs.append(abs(d_hat - d) / d)
            covered += d <= 1.38 * d_hat
        table.add_row(
            d=d, estimator="strata-32x80", wire_bytes=strata_wire,
            mean_rel_err=float(np.mean(errs)),
            **{"coverage_1.38": covered / trials},
        )

        # Min-wise
        errs, covered = [], 0
        mw_wire = MinWiseEstimator(n_hashes=128, seed=0).signature_bytes()
        for i, (a, b) in enumerate(arrays):
            est = MinWiseEstimator(n_hashes=128, seed=derive_seed(seed, "mw", i))
            d_hat = est.estimate(
                est.signature(a), est.signature(b), len(a), len(b)
            )
            errs.append(abs(d_hat - d) / d)
            covered += d <= 1.38 * d_hat
        table.add_row(
            d=d, estimator="minwise-128", wire_bytes=mw_wire,
            mean_rel_err=float(np.mean(errs)),
            **{"coverage_1.38": covered / trials},
        )
    table.note(
        f"|A| = {size_a}, {trials} trials/point.  Appendix B's claim: ToW is "
        "the most space-efficient at comparable accuracy (Strata carries "
        "whole IBFs per stratum; min-wise degrades when d << |A|)."
    )
    return table


if __name__ == "__main__":
    table = run()
    table.print()
    table.save("estimators_comparison")
