"""Open-loop rate sweep: offered load vs delivered service quality.

The cluster-scaling benchmark asks "how much can the service do";
this sweep asks the operator's question: "what happens to *clients* as
offered load approaches and passes capacity".  One admission-capped
single-shard server takes Poisson traffic from ``repro loadgen``'s
driver at increasing rates.  Because the loop is open, the offered
rate does not bend when the server struggles — instead the measured
client-side p99 grows (queueing charged from intended start times) and
the RETRY shed rate climbs (the driver counts sheds, it does not retry
them).  The table is the capacity curve those two columns trace out;
each underlying loadgen report is validated against the report schema
before its row is admitted.
"""

from __future__ import annotations

import asyncio

from repro.cluster.config import open_cluster
from repro.cluster.admission import AdmissionController
from repro.evaluation.harness import ExperimentTable, scaled
from repro.loadgen.driver import CONVERGENCE, LoadgenConfig, LoadGenerator
from repro.loadgen.report import validate_report
from repro.obs.metrics import SESSION_DURATION
from repro.service.server import ReconciliationServer

COLUMNS = [
    "rate", "duration_s", "scheduled", "ok", "shed", "failed",
    "achieved_per_s", "shed_rate", "p50_ms", "p99_ms", "p999_ms",
    "converge_p99_ms", "slo_breached", "windows",
]

#: Concurrent sessions the single shard admits: deliberately tight so
#: the sweep's upper rates actually cross capacity and shed.
MAX_SESSIONS = 4

#: Session-latency objective each window is graded against (ms).
SLO_P99_MS = 250.0


async def _run_one(rate: float, duration_s: float, sets: int,
                   seed: int) -> dict:
    """One open-loop run against a fresh admission-capped server."""
    admission = AdmissionController(
        shards=1, max_sessions=MAX_SESSIONS, retry_after_s=0.02
    )
    async with open_cluster() as store, ReconciliationServer(
        store, admission=admission
    ) as server:
        config = LoadgenConfig(
            host="127.0.0.1",
            port=server.port,
            rate=rate,
            duration_s=duration_s,
            sets=sets,
            diff="geometric:8",
            seed=seed,
            window_s=max(0.5, duration_s / 6.0),
            slo_p99_ms=SLO_P99_MS,
            drain_s=60.0,
        )
        report = await LoadGenerator(config).run()
    validate_report(report)
    return report


def run(
    rates=(20.0, 60.0, 120.0),
    duration_s: float | None = None,
    sets: int | None = None,
) -> ExperimentTable:
    """Sweep offered rate over identical seeded workloads.

    Rates are fixed (they *are* the x-axis); ``REPRO_SCALE`` scales the
    horizon and the set population, so a smoke run shortens the
    measurement without changing which loads are offered.
    """
    duration_s = (
        duration_s if duration_s is not None
        else float(scaled(6, minimum=2))
    )
    sets = sets if sets is not None else scaled(24, minimum=8)
    table = ExperimentTable(
        name="Open-loop rate sweep: client-side latency and shed rate "
             f"vs offered load (1 shard, {MAX_SESSIONS} admitted "
             "sessions)",
        columns=COLUMNS,
    )
    # warm-up: field/codec caches, so the first rate level does not pay
    # one-time table construction
    asyncio.run(_run_one(10.0, 1.0, sets=4, seed=0x77))
    for index, rate in enumerate(rates):
        report = asyncio.run(
            _run_one(rate, duration_s, sets, seed=0xA0 + index)
        )
        totals, latency = report["totals"], report["latency"]
        session = latency.get(SESSION_DURATION, {})
        converge = latency.get(CONVERGENCE, {})
        table.add_row(
            rate=rate,
            duration_s=duration_s,
            scheduled=totals["scheduled"],
            ok=totals["sessions"],
            shed=totals["sheds"],
            failed=totals["failed"],
            achieved_per_s=round(report["rates"]["achieved_per_s"], 1),
            shed_rate=round(report["rates"]["shed_rate"], 3),
            p50_ms=round(session.get("p50_s", 0.0) * 1e3, 1),
            p99_ms=round(session.get("p99_s", 0.0) * 1e3, 1),
            p999_ms=round(session.get("p999_s", 0.0) * 1e3, 1),
            converge_p99_ms=round(converge.get("p99_s", 0.0) * 1e3, 1),
            slo_breached=report["slo"]["windows_breached"],
            windows=len(report["timeseries"]["windows"]),
        )
    return table
