"""Replication ack-latency cost: async vs quorum at R ∈ {0, 1, 2}.

``--replication quorum`` buys "no acked mutation lost while a majority
of replica volumes survives" by holding every acknowledgement until
⌈(R+1)/2⌉ replicas hold the mutation durably — one extra
apply + durable-cursor round per follower on the ack path.  This driver
prices that guarantee: for each (R, mode) point it runs a real
replicated ``ClusterStore`` (inline executor, journal backend) in a
temporary data dir, drives N sequential apply-diffs, and records each
mutation's ack latency into the PR-7 :class:`LatencyHistogram` — so the
p50/p99 columns come from the same instrument ``/varz`` serves in
production.  ``async`` rows measure the log-shipping overhead alone
(ship is synchronous with the primary's apply; the ack never waits),
``quorum`` rows add the follower round-trip.

Every point also verifies its followers converged (zero lag after a
final barrier) before the row counts — a latency number for a
replication mode that silently fell behind would be fiction.
"""

from __future__ import annotations

import asyncio
import time
from tempfile import TemporaryDirectory

from repro.cluster.config import ClusterConfig, open_cluster
from repro.obs.histogram import LatencyHistogram
from repro.evaluation.harness import ExperimentTable, scaled

COLUMNS = [
    "replicas", "mode", "ops", "converged", "wall_s", "ops_per_s",
    "p50_ms", "p99_ms",
]

#: (replicas, mode) points — R = 0 is the unreplicated baseline; each
#: replicated R is priced in both durability modes.
POINTS = [
    (0, "async"),
    (1, "async"), (1, "quorum"),
    (2, "async"), (2, "quorum"),
]


async def _drive(replicas: int, mode: str, ops: int, batch: int) -> dict:
    with TemporaryDirectory() as data_dir:
        store = open_cluster(
            data_dir,
            ClusterConfig(
                shards=1, storage="journal",
                replicas=replicas, replication=mode,
            ),
        )
        await store.start()
        try:
            await store.create("bench", range(64))
            hist = LatencyHistogram()
            value = 1 << 20
            start = time.perf_counter()
            for _ in range(ops):
                t0 = time.perf_counter()
                await store.apply_diff(
                    "bench", add=range(value, value + batch)
                )
                hist.record(time.perf_counter() - t0)
                value += batch
            wall = time.perf_counter() - start
            # convergence barrier: every follower caught up, or the row
            # is invalid (async mode may legitimately trail in-flight)
            converged = True
            if replicas:
                deadline = time.monotonic() + 30.0
                def caught_up() -> bool:
                    st = store.cluster_stats()["per_shard"][0]["replication"]
                    return all(
                        f["alive"] and f["lag"] == 0
                        for f in st["followers"]
                    )
                while not caught_up():
                    if time.monotonic() > deadline:
                        converged = False
                        break
                    await asyncio.sleep(0.01)
        finally:
            await store.close()
    return {
        "converged": converged,
        "wall_s": round(wall, 4),
        "ops_per_s": round(ops / wall, 1),
        "p50_ms": round(hist.percentile(0.50) * 1e3, 3),
        "p99_ms": round(hist.percentile(0.99) * 1e3, 3),
    }


def run(ops: int | None = None, batch: int = 8) -> ExperimentTable:
    ops = ops if ops is not None else scaled(300, minimum=30)
    table = ExperimentTable(
        name="replication: ack latency, async vs quorum",
        columns=COLUMNS,
    )
    for replicas, mode in POINTS:
        row = asyncio.run(_drive(replicas, mode, ops, batch))
        table.add_row(replicas=replicas, mode=mode, ops=ops, **row)
    table.note(
        "quorum acks wait for ⌈(R+1)/2⌉ durable replicas (primary "
        "included); async acks on the primary's commit alone."
    )
    table.note(
        "inline executor, journal backend, fsync off — the delta "
        "isolates the replication ack path, not disk sync cost."
    )
    return table
