"""Table 2 / Appendix J.1: empirical PMF of the number of rounds.

PBS runs with an *unlimited* round budget; we record how many rounds it
takes to fully reconcile, per d.  Paper reference (|A| = 10^6): means
1.20 / 1.81 / 2.04 / 2.09 / 2.18 for d = 10 / 100 / 1000 / 10^4 / 10^5,
with the mass concentrated on rounds 1-3.
"""

from __future__ import annotations

import numpy as np

from repro.core.protocol import PBSProtocol
from repro.evaluation.harness import (
    ExperimentTable,
    instances,
    scaled,
    shared_estimates,
)

DEFAULT_D_VALUES = (10, 100, 1000)
DEFAULT_SIZE_A = 20_000
#: Trials per d, and their floor under REPRO_SCALE.  Mean rounds at
#: d = 100 and 1000 differ by ~0.11 against a per-trial spread of
#: ~0.35; with 5 trials their order came out wrong for up to 6 of 20
#: instance seeds, with 100 for none.
DEFAULT_TRIALS = 100
PAPER_MEANS = {10: 1.20, 100: 1.81, 1000: 2.04, 10_000: 2.09, 100_000: 2.18}


def run(
    d_values: tuple[int, ...] = DEFAULT_D_VALUES,
    size_a: int = DEFAULT_SIZE_A,
    trials: int = DEFAULT_TRIALS,
    seed: int = 5,
) -> ExperimentTable:
    trials = scaled(trials, minimum=DEFAULT_TRIALS)
    table = ExperimentTable(
        name="Table 2 — empirical PMF of rounds to full reconciliation",
        columns=["d", "r=1", "r=2", "r=3", "r>=4", "mean", "paper_mean"],
    )
    for d in d_values:
        if d > size_a:
            continue
        pairs = instances(size_a, d, trials, seed=seed)
        estimates = shared_estimates(pairs, seed=seed)
        rounds = []
        for i, (pair, est) in enumerate(zip(pairs, estimates)):
            proto = PBSProtocol(seed=seed + i, max_rounds=0)  # unlimited
            result = proto.run(pair.a, pair.b, estimated_d=est)
            assert result.success and result.difference == pair.difference
            rounds.append(result.rounds)
        rounds_arr = np.array(rounds)
        table.add_row(
            d=d,
            **{
                "r=1": float((rounds_arr == 1).mean()),
                "r=2": float((rounds_arr == 2).mean()),
                "r=3": float((rounds_arr == 3).mean()),
                "r>=4": float((rounds_arr >= 4).mean()),
            },
            mean=float(rounds_arr.mean()),
            paper_mean=PAPER_MEANS.get(d, float("nan")),
        )
    table.note(
        f"|A| = {size_a}, {trials} trials/point, unlimited rounds, estimated d."
    )
    return table


if __name__ == "__main__":
    table = run()
    table.print()
    table.save("table2_rounds_pmf")
