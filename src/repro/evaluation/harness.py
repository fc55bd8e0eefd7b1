"""Shared experiment machinery: scaling, instance generation, result tables.

The paper's setup (§8): ``|A| = 10^6``, d from 10 to 10^5, 1000 instances
per point, C++ on an i7-9800X.  A pure-Python substrate is ~two orders of
magnitude slower, so the default scale targets the same *shapes* at
``|A| = 2*10^4`` and tens of trials; ``REPRO_SCALE`` moves along that
axis without touching the harness code.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.estimators.tow import ToWEstimator
from repro.utils.seeds import derive_seed
from repro.workloads.generator import SetPair, SetPairGenerator

#: Where benches drop their rendered tables.
RESULTS_DIR = Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def scale_factor() -> float:
    """The global experiment scale from ``REPRO_SCALE`` (default 1.0)."""
    try:
        return max(0.01, float(os.environ.get("REPRO_SCALE", "1.0")))
    except ValueError:
        return 1.0


def scaled(base: int, minimum: int = 1) -> int:
    """Scale a count by :func:`scale_factor`, with a floor."""
    return max(minimum, int(round(base * scale_factor())))


def instances(
    size_a: int, d: int, trials: int, seed: int = 0
) -> list[SetPair]:
    """``trials`` independent paper-style instances (B ⊂ A)."""
    gen = SetPairGenerator(universe_bits=32, seed=derive_seed(seed, "inst", size_a, d))
    return [gen.generate(size_a=size_a, d=d, seed=i) for i in range(trials)]


def shared_estimates(pairs: list[SetPair], seed: int = 0) -> list[int]:
    """One *raw* ToW estimate d_hat per instance, shared across protocols
    exactly as the paper shares the same 336-byte estimator among PBS,
    PinSketch and D.Digest (§6.2, §8.1.1).  Each protocol applies its own
    inflation policy (PBS and PinSketch: 1.38x; D.Digest: 2x cells)."""
    out = []
    est = ToWEstimator(n_sketches=128, seed=derive_seed(seed, "shared-tow"),
                       family="fast")
    for pair in pairs:
        a = np.fromiter(pair.a, dtype=np.uint64)
        b = np.fromiter(pair.b, dtype=np.uint64)
        d_hat = est.estimate(est.sketch(a), est.sketch(b))
        out.append(max(1, round(d_hat)))
    return out


@dataclass
class ExperimentTable:
    """A printable/saveable result table for one experiment."""

    name: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def _fmt(self, value) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.001:
                return f"{value:.3g}"
            return f"{value:.4g}"
        return str(value)

    def to_markdown(self) -> str:
        lines = [f"### {self.name}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "---|" * len(self.columns))
        for row in self.rows:
            lines.append(
                "| "
                + " | ".join(self._fmt(row.get(c, "")) for c in self.columns)
                + " |"
            )
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.to_markdown())
        print()

    def save(self, stem: str | None = None) -> Path:
        """Write markdown + JSON artifacts under ``benchmarks/results``."""
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        stem = stem or self.name.lower().replace(" ", "_").replace("/", "-")
        (RESULTS_DIR / f"{stem}.md").write_text(self.to_markdown() + "\n")
        payload = {
            "name": self.name,
            "columns": self.columns,
            "rows": self.rows,
            "notes": self.notes,
            "generated_unix": time.time(),
            "scale": scale_factor(),
        }
        path = RESULTS_DIR / f"{stem}.json"
        path.write_text(json.dumps(payload, indent=2, default=str))
        return path


def aggregate_runs(results: list) -> dict:
    """Mean metrics over a list of ReconciliationResults.

    Estimator bytes are excluded from the communication figure, matching
    the paper's accounting (§6.2).
    """
    n = max(1, len(results))
    success = sum(1 for r in results if r.success) / n
    data_bytes = []
    for r in results:
        excluded = r.channel.bytes_by_label().get("estimator", 0)
        data_bytes.append(r.channel.total_bytes - excluded)
    return {
        "success": success,
        "kb": float(np.mean(data_bytes)) / 1000.0,
        "encode_s": float(np.mean([r.encode_s for r in results])),
        "decode_s": float(np.mean([r.decode_s for r in results])),
        "rounds": float(np.mean([r.rounds for r in results])),
    }
