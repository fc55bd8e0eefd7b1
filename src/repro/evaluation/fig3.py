"""Figure 3: PBS vs PinSketch-with-partition (§8.3), p0 = 0.99.

Both schemes use the *same* (delta, t) per d; the only difference is the
symbol width — PBS pays ``log n`` bits per sketch symbol and decoded
position, PinSketch/WP pays ``log|U|``.  The paper's claim: PBS wins on
communication at equal (better) computation.
"""

from __future__ import annotations

from repro.baselines.pinsketch_wp import PinSketchWPProtocol
from repro.core.protocol import PBSProtocol
from repro.evaluation.harness import (
    ExperimentTable,
    aggregate_runs,
    instances,
    scaled,
    shared_estimates,
)

DEFAULT_D_VALUES = (10, 100, 1000, 3000)
DEFAULT_SIZE_A = 20_000
#: Trials per d, and their floor under REPRO_SCALE.  PBS's byte
#: advantage over PinSketch/WP at d = 10 is ~4% (0.1008 vs 0.1057 kB
#: over 2,000 trials); with 3 trials the comparison came out wrong for
#: 7 of 20 instance seeds, with 60 for at most 1 of 20.
DEFAULT_TRIALS = 60


def run(
    d_values: tuple[int, ...] = DEFAULT_D_VALUES,
    size_a: int = DEFAULT_SIZE_A,
    trials: int = DEFAULT_TRIALS,
    seed: int = 3,
) -> ExperimentTable:
    trials = scaled(trials, minimum=DEFAULT_TRIALS)
    table = ExperimentTable(
        name="Fig. 3 — PBS vs PinSketch/WP (p0 = 0.99)",
        columns=[
            "d", "algorithm", "success", "kb", "kb/min", "encode_s", "decode_s",
        ],
    )
    for d in d_values:
        if d > size_a:
            continue
        pairs = instances(size_a, d, trials, seed=seed)
        estimates = shared_estimates(pairs, seed=seed)
        minimum_kb = d * 32 / 8 / 1000.0
        schemes = {
            "pbs": lambda s: PBSProtocol(seed=s, p0=0.99, r=3),
            "pinsketch/wp": lambda s: PinSketchWPProtocol(seed=s, p0=0.99, r=3),
        }
        for name, factory in schemes.items():
            results = [
                factory(seed + i).run(p.a, p.b, estimated_d=e)
                for i, (p, e) in enumerate(zip(pairs, estimates))
            ]
            for r, p in zip(results, pairs):
                if r.success and r.difference != p.difference:
                    r.success = False
            agg = aggregate_runs(results)
            table.add_row(
                d=d,
                algorithm=name,
                success=agg["success"],
                kb=agg["kb"],
                **{"kb/min": agg["kb"] / minimum_kb},
                encode_s=agg["encode_s"],
                decode_s=agg["decode_s"],
            )
    table.note(
        f"|A| = {size_a}, {trials} trials/point.  PinSketch/WP pays "
        "(t - delta) * log|U| per group for the capacity safety margin vs "
        "PBS's (t - delta) * log n (§8.3)."
    )
    return table


if __name__ == "__main__":
    table = run()
    table.print()
    table.save("fig3_pbs_vs_pinsketch_wp")
