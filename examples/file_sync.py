"""Cloud-storage file synchronization — the Dropbox-style scenario (§1).

A laptop and a cloud replica each hold a directory tree.  Each file state
is summarized as a 32-bit signature of (path, content-version); the two
signature sets are reconciled with PBS, and only the differing files'
metadata is exchanged.  This is the "smart sync" regime the paper cites:
signatures get synchronized far more often than file contents, so the
reconciliation overhead matters.

Run:  python examples/file_sync.py
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.core.protocol import PBSProtocol
from repro.utils.seeds import spawn_rng


@dataclass(frozen=True)
class FileState:
    path: str
    version: int

    def signature(self) -> int:
        digest = hashlib.blake2b(
            f"{self.path}@{self.version}".encode(), digest_size=4
        ).digest()
        return int.from_bytes(digest, "little") or 1


def make_replicas(n_files: int = 30_000, seed: int = 5):
    """A laptop and a cloud replica that have drifted apart."""
    rng = spawn_rng(seed, "files")
    base = {f"dir{int(i) % 200}/file{int(i)}.dat": 1 for i in range(n_files)}

    laptop = dict(base)
    cloud = dict(base)
    # local edits (bumped versions), local new files, cloud-side changes
    edited_locally = rng.choice(n_files, size=120, replace=False)
    for i in edited_locally:
        laptop[f"dir{int(i) % 200}/file{int(i)}.dat"] += 1
    for i in range(40):
        laptop[f"drafts/new{i}.txt"] = 1
    edited_in_cloud = rng.choice(n_files, size=80, replace=False)
    for i in edited_in_cloud:
        cloud[f"dir{int(i) % 200}/file{int(i)}.dat"] += 10
    for i in range(25):
        cloud[f"shared/upload{i}.bin"] = 1
    return laptop, cloud


def main() -> None:
    laptop, cloud = make_replicas()
    sig_to_file_laptop = {
        FileState(p, v).signature(): FileState(p, v) for p, v in laptop.items()
    }
    sig_to_file_cloud = {
        FileState(p, v).signature(): FileState(p, v) for p, v in cloud.items()
    }
    set_laptop = set(sig_to_file_laptop)
    set_cloud = set(sig_to_file_cloud)
    print(f"laptop: {len(laptop)} files, cloud: {len(cloud)} files")
    print(f"signature difference: {len(set_laptop ^ set_cloud)}")

    protocol = PBSProtocol(seed=11, estimator_family="fast")
    result = protocol.run(set_laptop, set_cloud)
    assert result.success

    # Classify the differing signatures into actionable sync items.
    to_pull, to_push = [], []
    for sig in result.difference:
        if sig in sig_to_file_laptop:
            to_push.append(sig_to_file_laptop[sig])   # laptop-side state
        else:
            to_pull.append(sig_to_file_cloud.get(sig))
    # A file edited on both sides appears twice (two signatures) -> conflict.
    push_paths = {f.path for f in to_push if f}
    pull_paths = {f.path for f in to_pull if f}
    conflicts = push_paths & pull_paths

    print("\n--- sync plan ---")
    print(f"push to cloud:   {len(push_paths)} files")
    print(f"pull from cloud: {len(pull_paths)} files")
    print(f"conflicts:       {len(conflicts)} files need merge")
    print(f"\nreconciliation cost: {result.total_bytes} B in "
          f"{result.rounds} rounds "
          f"(vs {4 * len(set_cloud)} B for shipping the cloud's signature list)")


if __name__ == "__main__":
    main()
