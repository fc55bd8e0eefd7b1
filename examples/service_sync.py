"""Run a reconciliation server and sync two clients against one set.

Demonstrates the service subsystem end to end, in one process:

1. a server holds the ``inventory`` set;
2. two clients with different local views sync *concurrently* — both
   reconcile against the same snapshot, and the server merges both
   pushes into the union;
3. a second pass lets each client pull what the other pushed, after
   which every party holds the same set.

Run:  python examples/service_sync.py
"""

from __future__ import annotations

import asyncio

from repro.cluster.config import open_cluster
from repro.service.client import sync_with_server
from repro.service.server import ReconciliationServer


async def main() -> None:
    warehouse = set(range(1, 1001))                 # the server's inventory
    client_1 = warehouse - {10, 20} | {5001, 5002}  # two diverged replicas
    client_2 = warehouse - {30} | {7001}

    # open_cluster() with no data dir: one in-memory shard, as served by
    # a plain `repro serve`
    async with open_cluster() as store, ReconciliationServer(store) as server:
        await store.create("inventory", warehouse)
        print(f"server listening on {server.host}:{server.port}")
        print(f"inventory: {store.size('inventory')} elements\n")

        # -- pass 1: both clients sync concurrently ------------------------
        r1, r2 = await asyncio.gather(
            sync_with_server("127.0.0.1", server.port, client_1,
                             set_name="inventory", seed=1),
            sync_with_server("127.0.0.1", server.port, client_2,
                             set_name="inventory", seed=2),
        )
        client_1 |= r1.difference     # A ∪ (A xor B) = A ∪ B
        client_2 |= r2.difference
        print("pass 1 (concurrent):")
        for name, r in (("client 1", r1), ("client 2", r2)):
            print(f"  {name}: d={len(r.difference)} rounds={r.rounds} "
                  f"payload={r.total_bytes} B "
                  f"framing={r.channel.framing_bytes} B "
                  f"pushed={r.extra['applied']}")
        print(f"  server inventory now {store.size('inventory')} elements")

        # -- pass 2: pull what the other client pushed ---------------------
        r1, r2 = await asyncio.gather(
            sync_with_server("127.0.0.1", server.port, client_1,
                             set_name="inventory", seed=3),
            sync_with_server("127.0.0.1", server.port, client_2,
                             set_name="inventory", seed=4),
        )
        client_1 |= r1.difference
        client_2 |= r2.difference
        print("\npass 2 (convergence):")
        print(f"  client 1 pulled {len(r1.difference)}, "
              f"client 2 pulled {len(r2.difference)}")

        union = warehouse | {5001, 5002, 7001}
        assert client_1 == client_2 == store.get("inventory") == union
        print(f"\nall parties converged to the union "
              f"({len(union)} elements)")

        snapshot = server.metrics.snapshot()
        sessions = snapshot["sessions"]
        print(f"server metrics: {sessions['completed']} sessions, "
              f"{snapshot['rounds_total']} rounds, "
              f"{snapshot['payload_bytes']} payload bytes, "
              f"decode {snapshot['decode_s'] * 1000:.1f} ms")


if __name__ == "__main__":
    asyncio.run(main())
