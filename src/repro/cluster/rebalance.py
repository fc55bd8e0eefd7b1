"""Offline, journaled shard rebalance: resize without losing a byte.

``rebalance(data_dir, shards)`` migrates a cluster directory from its
committed topology (the manifest's) to a new shard count, fixing PR 3's
silent data-loss bug: previously the ring remapped ~1/(N+1) of the set
names on resize while their shard-file bytes stayed in the old shard
directories, so moved sets recovered **empty**.  Since PR 6 the same
procedure also converts between storage backends
(``rebalance(..., storage="sqlite")``): every shard's sets are read
through the committed backend's iterator and staged through the new
backend's writer, so ``journal`` and ``sqlite`` directories migrate in
either direction with versions preserved.

The protocol (all offline — run it against a stopped server; ``repro
serve --rebalance`` runs it before the server opens the directory):

1. **Replay** every committed shard directory read-only through the
   committed backend (:meth:`repro.cluster.storage.StorageBackend.iter_sets`)
   into a full ``name -> (values, version, source_shard)`` map.  Torn
   journal tails are skipped, not truncated: the planning pass leaves
   the current layout byte-identical.
2. **Plan** placement under the new ring.  A shard is *affected* when
   its set membership changes (it gains or loses at least one set), it
   is brand new, or the run converts storage backends (every surviving
   shard is then rewritten in the new format); unaffected shards keep
   their files untouched.
3. **Stage** each affected shard's complete new state through the *new*
   backend's :meth:`~repro.cluster.storage.StorageBackend.stage`
   (versions preserved, written atomically under the *next* layout
   epoch's file names, next to the current epoch's files).  Nothing the
   committed manifest references is modified.
4. **Commit** by atomically replacing ``manifest.json`` with the new
   shard count, storage backend, the bumped epoch, and the per-shard
   epoch map.  This is the single commit point: a crash any time before
   it leaves the old epoch fully valid (stale staged files are orphans
   a rerun simply overwrites — the whole procedure is idempotent); a
   crash any time after it leaves the new epoch fully recoverable.
5. **Sweep** (best effort, post-commit): delete files from superseded
   epochs — including the old backend's files after a conversion — and
   shard directories beyond the new count.  A crash here costs only
   disk space; the next rebalance sweeps again.

Shrinking is the same procedure — sets from removed shards are staged
into survivors and the orphaned ``shard-NN`` directories are swept after
commit.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.manifest import (
    ClusterManifest,
    discover_shard_dirs,
    load_manifest,
    replica_dir,
    shard_dirname,
    write_manifest,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.storage import backend_class
from repro.errors import ReproError


class RebalanceAborted(ReproError):
    """Injected crash point fired (tests / CI drills only)."""


@dataclass
class RebalanceResult:
    """What one rebalance run did (``repro rebalance --json`` prints it)."""

    data_dir: str
    changed: bool
    old_shards: int
    new_shards: int
    old_epoch: int
    new_epoch: int
    vnodes: int
    #: storage backend the directory was committed to before / after
    #: (differing means this run converted the shard files)
    old_storage: str = "journal"
    new_storage: str = "journal"
    sets_total: int = 0
    #: name -> (source_shard, destination_shard) for every physically
    #: moved set
    moved: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: shards whose files were rewritten at the new epoch
    rewritten_shards: list[int] = field(default_factory=list)
    #: orphaned shard directories removed by the post-commit sweep
    removed_dirs: list[str] = field(default_factory=list)
    #: sets found on a shard the old ring would not have routed them to
    #: (e.g. after file surgery); the ones whose new target differs from
    #: where they sit are re-homed by this run like any other move
    healed: int = 0

    @property
    def moved_count(self) -> int:
        return len(self.moved)

    @property
    def converted(self) -> bool:
        return self.old_storage != self.new_storage

    def to_dict(self) -> dict:
        return {
            "data_dir": self.data_dir,
            "changed": self.changed,
            "old_shards": self.old_shards,
            "new_shards": self.new_shards,
            "old_epoch": self.old_epoch,
            "new_epoch": self.new_epoch,
            "vnodes": self.vnodes,
            "old_storage": self.old_storage,
            "new_storage": self.new_storage,
            "sets_total": self.sets_total,
            "moved_count": self.moved_count,
            "moved": {name: list(pair) for name, pair in sorted(self.moved.items())},
            "rewritten_shards": list(self.rewritten_shards),
            "removed_dirs": list(self.removed_dirs),
            "healed": self.healed,
        }

    def summary(self) -> str:
        if not self.changed:
            return (
                f"{self.data_dir}: already at {self.new_shards} shards "
                f"on {self.new_storage} storage (layout epoch "
                f"{self.new_epoch}); nothing to do"
            )
        storage_part = (
            f", storage {self.old_storage} -> {self.new_storage}"
            if self.converted
            else ""
        )
        return (
            f"{self.data_dir}: {self.old_shards} -> {self.new_shards} shards"
            f"{storage_part}, "
            f"layout epoch {self.old_epoch} -> {self.new_epoch}; moved "
            f"{self.moved_count}/{self.sets_total} sets, rewrote shards "
            f"{self.rewritten_shards}"
            + (f", removed {self.removed_dirs}" if self.removed_dirs else "")
        )


def _sweep_stale(data_dir: Path, manifest: ClusterManifest) -> list[str]:
    """Post-commit cleanup: drop files the committed manifest never reads.

    Only our own artifacts are touched — ``snapshot*`` / ``journal*`` /
    ``store*`` files whose (backend, epoch) is not the shard's committed
    one, leftover ``*.tmp`` staging files, and whole ``shard-NN``
    directories beyond the committed shard count.  Best effort by
    design: everything here is invisible to recovery, so a crash
    mid-sweep is merely disk space.
    """
    removed: list[str] = []
    committed = backend_class(manifest.storage)
    for shard in range(manifest.shards):
        directory = data_dir / shard_dirname(shard)
        if not directory.exists():
            continue
        keep = committed.data_filenames(manifest.shard_epoch(shard))
        for entry in directory.iterdir():
            stale = entry.name not in keep and (
                entry.name.startswith(("snapshot", "journal", "store"))
                or entry.name.endswith(".tmp")
            )
            if entry.is_file() and stale:
                entry.unlink(missing_ok=True)
    for shard in discover_shard_dirs(data_dir):
        if shard >= manifest.shards:
            directory = data_dir / shard_dirname(shard)
            shutil.rmtree(directory, ignore_errors=True)
            removed.append(directory.name)
    return removed


def _iter_committed_shard(
    data_dir: Path, shard: int, epoch: int, storage: str, replica: int = 0
):
    """Read-only ``(name, values, version)`` iteration of one committed
    shard directory through its backend; an absent shard (no directory,
    or no backend files at ``epoch``) yields nothing.  ``replica`` is
    the shard's committed active replica — after a failover promotion
    the authoritative files live in a ``follower-KK`` subdirectory, not
    the shard root.  Side-effect free on the directory tree: backends
    open with ``create=False`` and torn journal tails are skipped, not
    truncated."""
    directory = replica_dir(data_dir, shard, replica)
    cls = backend_class(storage)
    if not any((directory / fn).exists() for fn in cls.data_filenames(epoch)):
        return
    backend = cls(directory, epoch=epoch, create=False)
    try:
        yield from backend.iter_sets()
    finally:
        backend.close()


def rebalance(
    data_dir: str | Path,
    shards: int,
    vnodes: int = DEFAULT_VNODES,
    fsync: bool = True,
    crash_at: str | None = None,
    storage: str | None = None,
) -> RebalanceResult:
    """Migrate ``data_dir`` to ``shards`` shards; see the module docstring.

    ``storage=None`` keeps the committed backend; naming one converts
    the shard files to it in the same staged-then-committed pass (a
    conversion rewrites every surviving shard even when the topology is
    unchanged).  Idempotent: rerunning after a crash (or against an
    already-migrated directory) is safe; a no-op run still sweeps stale
    staging files from a previously interrupted attempt.  ``crash_at``
    ("after-stage" | "after-commit") raises :class:`RebalanceAborted` at
    that point — the crash-injection hook the recovery drills use.

    Must not run concurrently with a server holding the same directory
    open: stop it first.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if storage is not None:
        backend_class(storage)  # fail fast on an unknown backend name
    data_dir = Path(data_dir)
    if not data_dir.exists():
        # a typo'd path must not be silently mkdir'd into a fresh,
        # empty-but-valid cluster while the real data sits elsewhere
        raise ReproError(
            f"data dir {data_dir} does not exist — nothing to rebalance "
            f"(a new directory is initialized by 'repro serve --data-dir')"
        )
    manifest = load_manifest(data_dir)
    if manifest is None:
        # a fresh directory: nothing to migrate, just commit the layout
        new_storage = storage or "journal"
        manifest = ClusterManifest(
            shards=shards, vnodes=vnodes, epoch=0, storage=new_storage
        )
        write_manifest(data_dir, manifest, fsync=fsync)
        return RebalanceResult(
            data_dir=str(data_dir), changed=False,
            old_shards=shards, new_shards=shards,
            old_epoch=0, new_epoch=0, vnodes=vnodes,
            old_storage=new_storage, new_storage=new_storage,
        )
    old_storage = manifest.storage
    new_storage = storage or old_storage
    converting = new_storage != old_storage
    if manifest.shards == shards and manifest.vnodes == vnodes \
            and not converting:
        # already there — but a crashed earlier attempt may have left
        # staged files behind; sweep them so they cannot outlive epochs
        removed = _sweep_stale(data_dir, manifest)
        return RebalanceResult(
            data_dir=str(data_dir), changed=False,
            old_shards=manifest.shards, new_shards=shards,
            old_epoch=manifest.epoch, new_epoch=manifest.epoch,
            vnodes=vnodes, old_storage=old_storage,
            new_storage=new_storage, removed_dirs=removed,
        )

    old_ring = HashRing(range(manifest.shards), vnodes=manifest.vnodes)
    new_ring = HashRing(range(shards), vnodes=vnodes)

    # 1. replay: the full committed state, and where each set lives now,
    # read through the backend the manifest is committed to
    states: dict[str, tuple] = {}      # name -> (values, version)
    location: dict[str, int] = {}      # name -> source shard
    for source in range(manifest.shards):
        for name, values, version in _iter_committed_shard(
            data_dir, source, manifest.shard_epoch(source), old_storage,
            replica=manifest.primary_replica[source],
        ):
            if name in location:
                raise ReproError(
                    f"{data_dir}: set {name!r} found on both shard "
                    f"{location[name]} and shard {source}; refusing to "
                    f"guess — repair the shard files first"
                )
            states[name] = (values, version)
            location[name] = source

    # 2. plan: physical moves come from where sets actually live, so a
    # rebalance also re-homes sets stranded off-ring by past surgery.
    # One ring lookup per name per ring (a salted SHA-256 each) — the
    # target map is reused by the staging pass below.
    targets = new_ring.assignments(states)
    old_assign = old_ring.assignments(states)
    moved = {
        name: (location[name], targets[name])
        for name in states
        if location[name] != targets[name]
    }
    # sets sitting on a shard the old ring would never have routed them
    # to (file surgery, an interrupted pre-manifest migration) — counted
    # for the operator's report; those whose target differs are in
    # `moved` and get re-homed by this run
    healed = sum(
        1 for name in states if location[name] != old_assign[name]
    )
    affected = {src for src, _ in moved.values()} | {
        dst for _, dst in moved.values()
    }
    affected.update(range(manifest.shards, shards))   # brand-new shards
    if converting:
        # every surviving shard's files are rewritten in the new format
        affected.update(range(shards))
    # a shard served from a promoted follower directory is rewritten at
    # its root: the new manifest resets every primary back to replica 0,
    # so the authoritative bytes must move there in the same commit
    affected.update(
        shard
        for shard in range(min(manifest.shards, shards))
        if manifest.primary_replica[shard] != 0
    )

    # 3. stage: complete new state per affected surviving shard, written
    # by the *new* backend under the next epoch's file names (the
    # committed epoch reads none of it)
    new_epoch = manifest.epoch + 1
    rewritten = sorted(shard for shard in affected if shard < shards)
    entries_by_shard: dict[int, list] = {shard: [] for shard in rewritten}
    for name in sorted(states):
        if targets[name] in entries_by_shard:
            values, version = states[name]
            entries_by_shard[targets[name]].append((name, values, version))
    stager = backend_class(new_storage)
    for shard in rewritten:
        stager.stage(
            data_dir / shard_dirname(shard), entries_by_shard[shard],
            epoch=new_epoch, fsync=fsync,
        )
    if crash_at == "after-stage":
        raise RebalanceAborted("injected crash after staging, before commit")

    # 4. commit: one atomic manifest replace
    new_manifest = ClusterManifest(
        shards=shards,
        vnodes=vnodes,
        epoch=new_epoch,
        shard_epochs=[
            new_epoch if shard in affected else manifest.shard_epoch(shard)
            for shard in range(shards)
        ],
        storage=new_storage,
        # replication survives the resize: the replica count carries
        # over, every primary returns to its shard root (promoted data
        # was staged there above), and surviving shards keep their ship
        # cursors so sequence numbering stays monotonic
        replicas=manifest.replicas,
        cursors=[
            manifest.cursors[shard] if shard < manifest.shards else 0
            for shard in range(shards)
        ],
    )
    write_manifest(data_dir, new_manifest, fsync=fsync)
    if crash_at == "after-commit":
        raise RebalanceAborted("injected crash after commit, before sweep")

    # 5. sweep superseded epochs (and, after a conversion, the old
    # backend's files) plus orphaned shard directories
    removed = _sweep_stale(data_dir, new_manifest)
    return RebalanceResult(
        data_dir=str(data_dir), changed=True,
        old_shards=manifest.shards, new_shards=shards,
        old_epoch=manifest.epoch, new_epoch=new_epoch, vnodes=vnodes,
        old_storage=old_storage, new_storage=new_storage,
        sets_total=len(states), moved=moved,
        rewritten_shards=rewritten, removed_dirs=removed, healed=healed,
    )
