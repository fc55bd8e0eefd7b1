"""Blockchain transaction relay — the paper's motivating application (§1.3.4).

Simulates an Erlay-style mempool synchronization between two peers: both
see most transactions through normal gossip, but each also holds
transactions the other has not received yet (a *two-sided* difference).
Transaction IDs are 32-bit short hashes of the transaction payloads, as
in Erlay's compressed-ID scheme.

The peers reconcile their ID sets with PBS, then exchange only the
missing transaction payloads.  For comparison, the script also prices the
naive protocol (ship the whole mempool) and Difference Digest on the
same instance.

Run:  python examples/blockchain_relay.py
"""

from __future__ import annotations

import hashlib

from repro.baselines import DifferenceDigestProtocol
from repro.core.protocol import PBSProtocol
from repro.utils.seeds import spawn_rng

TX_BYTES = 250          # average Bitcoin transaction size
MEMPOOL_SIZE = 50_000   # transactions already shared by both peers
ONLY_AT_ALICE = 300     # fresh transactions gossip delivered only to Alice
ONLY_AT_BOB = 200       # ... and only to Bob


def short_id(payload: bytes) -> int:
    """32-bit transaction short ID (nonzero, as PBS's universe requires)."""
    digest = hashlib.blake2b(payload, digest_size=4).digest()
    return int.from_bytes(digest, "little") or 1


def make_mempools(seed: int = 0):
    """Two mempools as {short_id: payload} dicts."""
    rng = spawn_rng(seed, "mempool")

    def fresh_tx() -> bytes:
        return rng.bytes(TX_BYTES)

    shared = [fresh_tx() for _ in range(MEMPOOL_SIZE)]
    alice_only = [fresh_tx() for _ in range(ONLY_AT_ALICE)]
    bob_only = [fresh_tx() for _ in range(ONLY_AT_BOB)]

    alice = {short_id(tx): tx for tx in shared + alice_only}
    bob = {short_id(tx): tx for tx in shared + bob_only}
    return alice, bob


def main() -> None:
    alice_pool, bob_pool = make_mempools()
    ids_a = set(alice_pool)
    ids_b = set(bob_pool)
    true_d = len(ids_a ^ ids_b)
    print(f"mempools: |A|={len(ids_a)}, |B|={len(ids_b)}, d={true_d}")

    # --- PBS reconciliation (bidirectional: both peers end with the union)
    protocol = PBSProtocol(seed=3, estimator_family="fast", bidirectional=True)
    result = protocol.run(ids_a, ids_b)
    assert result.success

    missing_at_bob = result.difference & ids_a     # Alice pushes these
    missing_at_alice = result.difference & ids_b   # Bob pushes these
    payload_bytes = TX_BYTES * (len(missing_at_bob) + len(missing_at_alice))

    # Apply the sync.
    for tx_id in missing_at_alice:
        alice_pool[tx_id] = bob_pool[tx_id]
    for tx_id in missing_at_bob:
        bob_pool[tx_id] = alice_pool[tx_id]
    assert set(alice_pool) == set(bob_pool)

    print("\n--- PBS relay ---")
    print(f"reconciliation: {result.total_bytes} B in {result.rounds} rounds")
    print(f"payload sync:   {payload_bytes} B "
          f"({len(missing_at_bob)} -> Bob, {len(missing_at_alice)} -> Alice)")
    overhead_pct = 100 * result.total_bytes / (result.total_bytes + payload_bytes)
    print(f"reconciliation is {overhead_pct:.1f}% of total relay traffic")

    # --- comparisons on the same instance ---------------------------------
    naive_bytes = len(bob_pool) * (TX_BYTES + 4)  # Bob ships everything
    dd = DifferenceDigestProtocol(seed=4).run(ids_a, ids_b, estimated_d=true_d)
    print("\n--- alternatives ---")
    print(f"naive (ship the mempool): {naive_bytes} B "
          f"({naive_bytes / (result.total_bytes + payload_bytes):.0f}x PBS total)")
    if dd.success:
        print(f"difference digest:        {dd.total_bytes} B of reconciliation "
              f"({dd.total_bytes / result.total_bytes:.1f}x PBS)")

    # ID collisions: with 32-bit short IDs and 50k transactions, occasional
    # collisions are expected (~0.03%); production systems handle them by
    # falling back to full IDs for colliding slots, as Erlay does.
    all_payloads = len(set(alice_pool)) + ONLY_AT_BOB
    print(f"\nshort-ID space usage: {len(ids_a | ids_b)} ids for "
          f"{all_payloads} transactions")


if __name__ == "__main__":
    main()
