"""The cluster manifest: which layout a data directory is committed to.

PR 3's cluster layer had a silent data-loss hole: the consistent-hash
ring re-derives placement from ``--shards`` alone, so restarting a
journaled data directory with a different shard count silently remapped
~1/(N+1) of the set names to shards whose journals had never heard of
them — those sets recovered *empty* while their bytes sat stranded in
the old shard directories.  The manifest closes the hole by making the
layout explicit and durable: every ``--data-dir`` carries a
``manifest.json`` recording the shard count, the vnode count, and a
monotonically increasing **layout epoch**, plus the epoch each shard
directory's files were last rewritten at (shard files are epoch-named,
see :func:`repro.cluster.journal.snapshot_filename`).

:class:`ClusterStore.start` compares the manifest against the requested
topology and **refuses to start on a mismatch** with
:class:`TopologyMismatchError` — the fix is ``repro rebalance`` (or
``repro serve --rebalance``), which migrates the journals and commits
the new topology by atomically replacing this file
(:mod:`repro.cluster.rebalance`).  The manifest replace is the single
commit point of a rebalance: written to a temp file, fsync'd, then
``os.replace``'d, so it is always either the old layout or the new one.

A directory holding ``shard-NN`` directories but no manifest is
refused with :class:`ManifestError`: its layout cannot be known, and a
fresh manifest written over existing shard files could commit the
wrong one.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError

MANIFEST_NAME = "manifest.json"

#: Manifest schema version (bump on incompatible layout changes).
#: Format 2 added the ``storage`` backend field; format 3 added the
#: replication fields (``replicas``, ``primary_replica``, ``cursors``).
#: Only the current format is read, with every field required: an
#: older manifest raises :class:`ManifestError` naming its format.
MANIFEST_FORMAT = 3

_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


class ManifestError(ReproError):
    """The manifest file is unreadable or structurally invalid."""


class TopologyMismatchError(ManifestError):
    """The requested topology does not match the committed layout.

    Raised instead of silently remapping set names to shards that never
    journaled them (the PR-3 data-loss bug this module exists to fix).
    """


class StorageMismatchError(ManifestError):
    """The requested storage backend does not match the committed one.

    The shard files on disk belong to the committed backend; opening
    them with another would recover every set empty (the new backend
    sees no files of its own) — the storage twin of
    :class:`TopologyMismatchError`, fixed the same way: an offline
    ``repro rebalance --storage`` converts the shard files first.
    """


def shard_dirname(shard: int) -> str:
    """The on-disk directory name for one shard."""
    return f"shard-{shard:02d}"


def follower_dirname(replica: int) -> str:
    """The directory name of follower replica ``replica`` (>= 1),
    nested inside the shard's ``shard-NN`` directory."""
    if replica < 1:
        raise ManifestError(f"follower replicas are numbered from 1, "
                            f"got {replica}")
    return f"follower-{replica:02d}"


def replica_dir(data_dir: str | Path, shard: int, replica: int) -> Path:
    """The on-disk directory holding one replica of one shard.

    Replica 0 is the ``shard-NN`` root itself (the historical primary
    location); replicas >= 1 live in ``shard-NN/follower-KK``
    subdirectories — the rebalance sweep only ever unlinks *files*
    inside a shard root, so follower directories survive it untouched.
    """
    root = Path(data_dir) / shard_dirname(shard)
    if replica == 0:
        return root
    return root / follower_dirname(replica)


@dataclass
class ClusterManifest:
    """The committed layout of one cluster data directory.

    Fields: ``shards`` and ``vnodes`` fix the consistent-hash ring (and
    therefore every set's placement); ``epoch`` is the monotonically
    increasing layout epoch bumped by each committed rebalance; and
    ``shard_epochs[i]`` records which epoch shard *i*'s files were last
    rewritten at, selecting the epoch-qualified file names inside
    ``shard-NN/`` (an unaffected shard keeps its older epoch's files
    byte-identical across rebalances).  The subprocess executor hands
    each worker child its shard's epoch, so every process has an
    explicit, versioned view of which files it owns.
    """

    shards: int
    vnodes: int
    epoch: int = 0
    #: layout epoch each shard directory's files were last rewritten at
    #: (selects the epoch-qualified file names inside ``shard-NN/``)
    shard_epochs: list[int] = field(default_factory=list)
    #: storage backend name the shard files were written by
    #: (:data:`repro.cluster.storage.BACKEND_NAMES`)
    storage: str = "journal"
    #: follower replicas per shard (0 = replication off)
    replicas: int = 0
    #: which replica directory is each shard's current primary
    #: (0 = the ``shard-NN`` root, k = ``shard-NN/follower-KK``);
    #: rewritten atomically by a failover promotion — this field *is*
    #: the promotion's commit point
    primary_replica: list[int] = field(default_factory=list)
    #: best-effort replication cursor per shard: the last shipped
    #: sequence number persisted at clean shutdown / promotion, so a
    #: restarted primary resumes numbering monotonically (followers
    #: re-bootstrap from a snapshot regardless, see
    #: :mod:`repro.cluster.replication`)
    cursors: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ManifestError(f"shards must be >= 1, got {self.shards}")
        if self.vnodes < 1:
            raise ManifestError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.epoch < 0:
            raise ManifestError(f"epoch must be >= 0, got {self.epoch}")
        if not self.storage or not isinstance(self.storage, str):
            raise ManifestError(
                f"storage must be a backend name, got {self.storage!r}"
            )
        if not self.shard_epochs:
            self.shard_epochs = [0] * self.shards
        if len(self.shard_epochs) != self.shards:
            raise ManifestError(
                f"shard_epochs has {len(self.shard_epochs)} entries "
                f"for {self.shards} shards"
            )
        if self.replicas < 0:
            raise ManifestError(
                f"replicas must be >= 0, got {self.replicas}"
            )
        if not self.primary_replica:
            self.primary_replica = [0] * self.shards
        if len(self.primary_replica) != self.shards:
            raise ManifestError(
                f"primary_replica has {len(self.primary_replica)} entries "
                f"for {self.shards} shards"
            )
        for shard, replica in enumerate(self.primary_replica):
            if not 0 <= replica <= self.replicas:
                raise ManifestError(
                    f"shard {shard}: primary replica {replica} is outside "
                    f"0..{self.replicas}"
                )
        if not self.cursors:
            self.cursors = [0] * self.shards
        if len(self.cursors) != self.shards:
            raise ManifestError(
                f"cursors has {len(self.cursors)} entries "
                f"for {self.shards} shards"
            )

    def shard_epoch(self, shard: int) -> int:
        return self.shard_epochs[shard]

    def to_dict(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "shards": self.shards,
            "vnodes": self.vnodes,
            "epoch": self.epoch,
            "shard_epochs": list(self.shard_epochs),
            "storage": self.storage,
            "replicas": self.replicas,
            "primary_replica": list(self.primary_replica),
            "cursors": list(self.cursors),
        }

    @classmethod
    def from_dict(cls, data: dict, source: str = "manifest") -> "ClusterManifest":
        if not isinstance(data, dict):
            raise ManifestError(f"{source}: not a JSON object")
        if data.get("format") != MANIFEST_FORMAT:
            raise ManifestError(
                f"{source}: unsupported manifest format "
                f"{data.get('format')!r} (this version reads format "
                f"{MANIFEST_FORMAT} only)"
            )
        try:
            return cls(
                shards=int(data["shards"]),
                vnodes=int(data["vnodes"]),
                epoch=int(data["epoch"]),
                shard_epochs=[int(e) for e in data["shard_epochs"]],
                storage=str(data["storage"]),
                replicas=int(data["replicas"]),
                primary_replica=[int(r) for r in data["primary_replica"]],
                cursors=[int(c) for c in data["cursors"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{source}: malformed manifest: {exc}") from None


def manifest_path(data_dir: str | Path) -> Path:
    return Path(data_dir) / MANIFEST_NAME


def load_manifest(data_dir: str | Path) -> ClusterManifest | None:
    """The committed manifest, or ``None`` for a directory without shards.

    Shard directories without a manifest raise :class:`ManifestError`
    and leave the directory untouched.
    """
    path = manifest_path(data_dir)
    if not path.exists():
        if discover_shard_dirs(data_dir):
            raise ManifestError(
                f"{data_dir} holds shard directories but no "
                f"{MANIFEST_NAME}, so its layout is unknown; refusing to "
                f"commit a fresh layout over existing shard files"
            )
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"{path}: unreadable manifest: {exc}") from None
    return ClusterManifest.from_dict(data, source=str(path))


def write_manifest(
    data_dir: str | Path, manifest: ClusterManifest, fsync: bool = True
) -> None:
    """Atomically install ``manifest`` as the directory's committed layout.

    Write-temp / fsync / ``os.replace`` (+ directory fsync): readers see
    either the previous manifest or this one, never a torn file.  This is
    the *only* commit point a rebalance has.
    """
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    path = manifest_path(data_dir)
    tmp_path = path.with_name(MANIFEST_NAME + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, indent=2)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    if fsync:
        dir_fd = os.open(data_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


def discover_shard_dirs(data_dir: str | Path) -> list[int]:
    """Shard ids with a ``shard-NN`` directory on disk, sorted."""
    data_dir = Path(data_dir)
    if not data_dir.exists():
        return []
    ids = []
    for entry in data_dir.iterdir():
        match = _SHARD_DIR_RE.match(entry.name)
        if match and entry.is_dir():
            ids.append(int(match.group(1)))
    return sorted(ids)


def load_or_init(
    data_dir: str | Path, shards: int, vnodes: int,
    storage: str = "journal",
) -> ClusterManifest:
    """The startup check: the committed layout, verified against the ask.

    * manifest present and matching — return it;
    * manifest present and differing (topology *or* storage backend) —
      :class:`TopologyMismatchError` / :class:`StorageMismatchError`
      (run ``repro rebalance`` first, never silently remap);
    * no manifest but shard directories — :class:`ManifestError`
      (see :func:`load_manifest`);
    * no shard directories — initialize the directory with a fresh
      epoch-0 manifest committed to ``storage``.
    """
    data_dir = Path(data_dir)
    manifest = load_manifest(data_dir)
    if manifest is None:
        manifest = ClusterManifest(
            shards=shards, vnodes=vnodes, epoch=0, storage=storage
        )
        write_manifest(data_dir, manifest)
        return manifest
    if manifest.shards != shards or manifest.vnodes != vnodes:
        raise TopologyMismatchError(
            f"{data_dir} is committed to {manifest.shards} shards / "
            f"{manifest.vnodes} vnodes (layout epoch {manifest.epoch}) but "
            f"{shards} shards / {vnodes} vnodes were requested; starting "
            f"anyway would recover remapped sets empty.  Run "
            f"'repro rebalance --data-dir {data_dir} --shards {shards}' "
            f"(or 'repro serve --rebalance') to migrate the journals first."
        )
    if manifest.storage != storage:
        raise StorageMismatchError(
            f"{data_dir} is committed to the {manifest.storage!r} storage "
            f"backend but {storage!r} was requested; the shard files on "
            f"disk are {manifest.storage} files, so starting anyway would "
            f"recover every set empty.  Run 'repro rebalance --data-dir "
            f"{data_dir} --shards {shards} --storage {storage}' to convert "
            f"the shard files first."
        )
    return manifest
