"""Service throughput: cross-session decode coalescing vs per-session decode.

The scenario PR 1's batch engine could not reach on its own: many *small*
concurrent sessions, each bringing only a couple of BCH groups per round —
individually below the batch engine's profitability threshold, so a
per-session server decodes them on the scalar path.  The
:class:`~repro.service.scheduler.DecodeCoalescer` merges the groups of
sessions arriving within one window into a single
:meth:`~repro.bch.codec.BCHCodec.decode_many` call, which reaches batch
scale exactly when concurrency is high — the regime the ROADMAP's
"millions of users" north star cares about.

Both modes run the identical client fleet over real localhost sockets
against a live :class:`~repro.service.server.ReconciliationServer`; the
compared metric is the server-side decode *engine* time (seconds inside
``decode_many``), which excludes the coalescing window's idle wait by
construction.
"""

from __future__ import annotations

import asyncio

from repro.cluster.config import ClusterConfig, open_cluster
from repro.evaluation.harness import ExperimentTable, scaled
from repro.obs.histogram import LatencyHistogram
from repro.service.server import ReconciliationServer
from repro.service.client import sync_with_server
from repro.workloads.generator import SetPairGenerator

COLUMNS = [
    "concurrency", "mode", "sessions", "ok", "wall_s", "decode_s",
    "batches", "mean_sessions_per_batch", "sessions_per_s",
    "p50_ms", "p99_ms", "decode_speedup",
]

#: Wide enough to catch one round burst from a whole localhost fleet.
WINDOW_S = 0.005


async def _timed_sync(hist: LatencyHistogram, coro):
    """Await one session, recording its wall time into ``hist``."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    result = await coro
    hist.record(loop.time() - start)
    return result


async def _run_fleet(
    pairs, coalesce: bool, seed: int, hist: LatencyHistogram
) -> tuple[float, dict, int]:
    """One server + len(pairs) concurrent clients; returns (wall, stats, ok)."""
    config = ClusterConfig(worker_window_s=WINDOW_S if coalesce else 0.0)
    async with open_cluster(None, config) as store, ReconciliationServer(
        store
    ) as server:
        for i, pair in enumerate(pairs):
            await store.create(f"s{i}", pair.b)
        loop = asyncio.get_running_loop()
        start = loop.time()
        results = await asyncio.gather(
            *[
                _timed_sync(hist, sync_with_server(
                    "127.0.0.1", server.port, pair.a, set_name=f"s{i}",
                    seed=seed * 1000 + i, n_sketches=32,
                ))
                for i, pair in enumerate(pairs)
            ]
        )
        wall = loop.time() - start
        ok = sum(1 for r in results if r.success)
        for i, result in enumerate(results):
            if result.success and result.difference != pairs[i].difference:
                raise AssertionError(
                    f"session {i} converged to a wrong difference"
                )
        return wall, server.coalescer.stats.to_dict(), ok


def run(
    levels=(1, 2, 4, 8, 16),
    d: int = 10,
    size_a: int | None = None,
    repeats: int | None = None,
) -> ExperimentTable:
    """Sweep concurrency x {per-session, coalesced} over identical fleets.

    ``d`` is deliberately small: each session then holds ~3 BCH groups,
    which is *below* the batch engine's per-call threshold — the decode
    speedup in the coalesced rows is therefore purely the cross-session
    batching effect.
    """
    size_a = size_a if size_a is not None else scaled(1500, minimum=200)
    repeats = repeats if repeats is not None else scaled(3, minimum=2)
    table = ExperimentTable(
        name="Service throughput: coalesced vs per-session decode",
        columns=COLUMNS,
    )
    gen = SetPairGenerator(universe_bits=32, seed=0x5ED)
    # warm-up: populate field/codec caches so the first measured level
    # does not pay one-time table construction
    asyncio.run(
        _run_fleet(
            [gen.generate(size_a=200, d=d, seed=999)], True, seed=999,
            hist=LatencyHistogram(),
        )
    )
    for level in levels:
        fleets = [
            [
                gen.generate(size_a=size_a, d=d, seed=rep * 100 + i)
                for i in range(level)
            ]
            for rep in range(repeats)
        ]
        per_mode: dict[str, dict] = {}
        for mode, coalesce in (("per-session", False), ("coalesced", True)):
            wall = decode_s = 0.0
            batches = sessions = ok = submissions = 0
            hist = LatencyHistogram()
            for rep, pairs in enumerate(fleets):
                w, stats, n_ok = asyncio.run(
                    _run_fleet(pairs, coalesce, seed=rep + 1, hist=hist)
                )
                wall += w
                decode_s += stats["decode_s"]
                batches += stats["batches"]
                submissions += stats["submissions"]
                sessions += len(pairs)
                ok += n_ok
            per_mode[mode] = {
                "wall_s": wall,
                "decode_s": decode_s,
                "batches": batches,
                "submissions": submissions,
                "sessions": sessions,
                "ok": ok,
                "hist": hist,
            }
        for mode in ("per-session", "coalesced"):
            m = per_mode[mode]
            table.add_row(
                concurrency=level,
                mode=mode,
                sessions=m["sessions"],
                ok=m["ok"],
                wall_s=m["wall_s"],
                decode_s=m["decode_s"],
                batches=m["batches"],
                mean_sessions_per_batch=(
                    m["submissions"] / m["batches"] if m["batches"] else 0.0
                ),
                sessions_per_s=(
                    m["sessions"] / m["wall_s"] if m["wall_s"] else 0.0
                ),
                p50_ms=m["hist"].percentile(0.50) * 1000.0,
                p99_ms=m["hist"].percentile(0.99) * 1000.0,
                decode_speedup=(
                    per_mode["per-session"]["decode_s"] / m["decode_s"]
                    if mode == "coalesced" and m["decode_s"]
                    else 1.0
                ),
            )
    table.note(
        f"|A|={size_a}, d={d} per session (~3 BCH groups each), "
        f"{repeats} fleet repeats, coalescing window {WINDOW_S * 1000:.0f} ms; "
        "decode_s is server engine time inside decode_many (window wait "
        "excluded).  Per-session mode decodes each session's groups alone "
        "(scalar path below the batch threshold); coalesced mode batches "
        "groups across sessions and rides the PR-1 batch engine.  "
        "p50/p99 are client-observed per-session wall times from a "
        "log-linear latency histogram (repro.obs) over all repeats — the "
        "latency cost of waiting out the coalescing window shows up here."
    )
    return table
