"""Multi-process decode scaling: subprocess vs inline shard executors.

The PR-3/PR-4 cluster runs every shard worker on one event loop, so the
batched BCH decode engine — however wide its batches — executes on one
core.  The subprocess executor (:mod:`repro.cluster.proc`) moves each
shard's decode work into its own child process; this driver measures
what that buys on a decode-bound workload: sessions with a substantial
difference (d high enough that sketch decode dominates the round trip),
many of them concurrent, against the same 4-shard layout run first
inline and then with 1/2/4 worker processes.

The honest caveats, encoded in the table itself: the ``cores`` column
records what the host actually offers — on a single-core machine the
proc executor *cannot* win (it pays RPC serialization for no parallel
decode), and the acceptance assertion (>1.5x at 4 workers) is gated on
``cores >= 4`` in the benchmark.  Sessions are driven without journals
and without admission caps so the measurement isolates decode CPU rather
than WAL commits or queueing (``bench_cluster_scaling`` covers those).
"""

from __future__ import annotations

import asyncio

from repro.cluster.proc import fork_safe_cpu_count
from repro.cluster.config import ClusterConfig, open_cluster
from repro.evaluation.harness import ExperimentTable, scaled
from repro.service.client import sync_with_server
from repro.service.server import ReconciliationServer
from repro.workloads.generator import SetPairGenerator

COLUMNS = [
    "executor", "workers", "cores", "sessions", "ok", "wall_s",
    "sessions_per_s", "speedup_vs_inline", "decode_groups",
    "groups_per_s", "engine_decode_s",
]

#: Decode coalescing window (server-side inline; worker-local in proc
#: mode) — the PR-2 service default.
WINDOW_S = 0.002

#: (executor, shard/worker count) sweep.  The inline row is the
#: baseline: 4 shards on one event loop — exactly what ``repro serve
#: --shards 4`` ran before this PR.
LEVELS = (
    ("inline", 4),
    ("subprocess", 1),
    ("subprocess", 2),
    ("subprocess", 4),
)


async def _client(port: int, jobs, seed: int):
    results = []
    for k, (name, pair) in enumerate(jobs):
        results.append(
            await sync_with_server(
                "127.0.0.1", port, pair.a, set_name=name,
                seed=seed * 1000 + k, n_sketches=16,
            )
        )
    return results


async def _run_fleet(executor: str, shards: int, fleets, seed0: int):
    """One in-memory cluster at one executor level; returns (wall, ok,
    decoded-group count, engine decode seconds).  Worker spawn and set
    preload happen before the clock starts — the sweep measures steady
    decode throughput, not process startup."""
    store = open_cluster(config=ClusterConfig(
        shards=shards, executor=executor, worker_window_s=WINDOW_S
    ))
    await store.start()
    try:
        async with ReconciliationServer(store) as server:
            expected = {}
            for jobs in fleets:
                for name, pair in jobs:
                    await store.create(name, pair.b)
                    expected[name] = pair.difference
            loop = asyncio.get_running_loop()
            start = loop.time()
            per_client = await asyncio.gather(
                *[
                    _client(server.port, jobs, seed0 + i)
                    for i, jobs in enumerate(fleets)
                ]
            )
            wall = loop.time() - start
            ok = 0
            for jobs, results in zip(fleets, per_client):
                for (name, _), result in zip(jobs, results):
                    ok += bool(result.success)
                    if result.success and (
                        result.difference != expected[name]
                    ):
                        raise AssertionError(
                            f"session on {name} converged wrong"
                        )
        if executor == "subprocess":
            shard_stats = store.cluster_stats()["per_shard"]
            groups = sum(
                s.get("coalescer", {}).get("groups", 0) for s in shard_stats
            )
            decode_s = sum(
                s.get("coalescer", {}).get("decode_s", 0.0)
                for s in shard_stats
            )
        else:
            groups = server.coalescer.stats.groups
            decode_s = server.coalescer.stats.decode_s
        return wall, ok, groups, decode_s
    finally:
        await store.close()


def run(
    levels=LEVELS,
    clients: int | None = None,
    syncs_per_client: int = 2,
    d: int = 64,
    size_a: int | None = None,
    repeats: int | None = None,
) -> ExperimentTable:
    """Sweep executor levels over identical closed-loop client fleets.

    Sessions are decode-heavy (d = 64 by default: ~13 BCH groups per
    round, several rounds per session) so aggregate decode throughput —
    not the coalescing window or admission queueing — is the quantity
    under test.  Every repeat runs all levels back to back (paired
    design) and the speedup column is each level's session rate over the
    inline baseline's.
    """
    size_a = size_a if size_a is not None else scaled(1200, minimum=300)
    clients = clients if clients is not None else scaled(8, minimum=4)
    repeats = repeats if repeats is not None else scaled(3, minimum=1)
    cores = fork_safe_cpu_count()
    table = ExperimentTable(
        name="Multi-process decode scaling: inline vs subprocess executors",
        columns=COLUMNS,
    )
    gen = SetPairGenerator(universe_bits=32, seed=0xAC)
    # warm-up: field tables and codec caches in the parent (children
    # build their own on first decode, inside the measured window for
    # every level equally)
    asyncio.run(
        _run_fleet(
            "inline", 1,
            [[("warm", gen.generate(size_a=200, d=8, seed=77))]],
            seed0=7700,
        )
    )
    totals = {
        level: {"wall": 0.0, "ok": 0, "sessions": 0, "groups": 0,
                "decode_s": 0.0}
        for level in levels
    }
    for rep in range(repeats):
        fleets = [
            [
                (
                    f"c{i}-j{j}",
                    gen.generate(
                        size_a=size_a, d=d, seed=(rep * 100 + i) * 8 + j
                    ),
                )
                for j in range(syncs_per_client)
            ]
            for i in range(clients)
        ]
        for executor, workers in levels:
            wall, ok, groups, decode_s = asyncio.run(
                _run_fleet(executor, workers, fleets, seed0=rep * 1000 + 1)
            )
            t = totals[(executor, workers)]
            t["wall"] += wall
            t["ok"] += ok
            t["groups"] += groups
            t["decode_s"] += decode_s
            t["sessions"] += clients * syncs_per_client
    inline_rate = None
    for executor, workers in levels:
        t = totals[(executor, workers)]
        rate = t["sessions"] / t["wall"] if t["wall"] else 0.0
        if inline_rate is None:
            inline_rate = rate
        table.add_row(
            executor="proc" if executor == "subprocess" else executor,
            workers=workers,
            cores=cores,
            sessions=t["sessions"],
            ok=t["ok"],
            wall_s=t["wall"],
            sessions_per_s=rate,
            speedup_vs_inline=rate / inline_rate if inline_rate else 1.0,
            decode_groups=t["groups"],
            groups_per_s=t["groups"] / t["wall"] if t["wall"] else 0.0,
            engine_decode_s=t["decode_s"],
        )
    table.note(
        f"|A|={size_a}, d={d} per session, {clients} closed-loop clients x "
        f"{syncs_per_client} sessions each, {repeats} paired repeats, "
        f"decode window {WINDOW_S * 1000:.0f} ms, no journals/admission "
        "(pure decode-path comparison; bench_cluster_scaling covers WAL "
        "and admission).  The inline row is the pre-PR baseline: 4 shard "
        "workers sharing one event loop and one core.  Subprocess rows "
        "run each shard's SetStore, journal, and BCH decode in its own "
        f"child process; this host offers {cores} core(s), and decode "
        "CPU can only multiply up to that"
        + (
            " — on this single-core host the proc rows measure pure RPC "
            "overhead, not the multi-core win."
            if cores < 2
            else "."
        )
    )
    return table


if __name__ == "__main__":  # pragma: no cover - manual entry point
    run().print()
