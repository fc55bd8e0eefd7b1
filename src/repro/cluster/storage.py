"""The per-shard storage contract: what it means to persist a shard.

Until this module existed the persistence contract was implicit: the
router, the subprocess worker, and the offline rebalance all reached
directly into journal-file internals (``journal_filename``,
``snapshot-eN.bin``, ``write_snapshot``, ``replay_shard``).
:class:`StorageBackend` makes the contract explicit and narrow so the
journal files (:class:`repro.cluster.journal.JournalBackend`) and the
WAL-mode SQLite store (:class:`repro.cluster.sqlite.SqliteBackend`) are
interchangeable behind it — selected per data directory, recorded in the
cluster manifest, and surfaced as ``repro serve --storage``.

The durability / ack-ordering contract
--------------------------------------

Every backend MUST preserve the invariant the journal established in
PR 3: **a mutation is durable before it is visible**.  Concretely:

* :meth:`StorageBackend.record_diff` / :meth:`~StorageBackend.record_create`
  return only after the mutation is committed to the backend's durable
  medium (journal append + flush, SQLite transaction commit).  If they
  raise, *nothing* may have been persisted — the caller leaves the
  in-memory set untouched and the session is NOT acknowledged.
* The in-memory store mutates strictly *after* the durable write
  returns; no concurrent snapshot may observe state that a crash
  recovery would roll back.
* ``fsync=False`` backends may buffer in the OS (crash of the *machine*
  can lose the tail) but must already tolerate SIGKILL of the process:
  recovery finds every acknowledged mutation or a clean prefix of them
  (journal: torn-tail truncation; SQLite: WAL recovery).

There are two ways a backend wires into that protocol, declared by
:attr:`StorageBackend.concurrent_writes`:

* ``True`` (journal): the durable write is handed to the default
  thread-pool executor by :func:`apply_mutation` so appends commit in
  parallel across shards; the store then mutates with
  ``persisted=True`` so its own persistence hook stays quiet.
* ``False`` (SQLite — connections are bound to their opening thread):
  the store's injected persistence hook (see
  :class:`repro.service.store.SetStore`) performs the durable write
  inline, on the event loop, immediately before the in-memory apply.

Both routes end at the same place: durable first, visible second.
"""

from __future__ import annotations

import asyncio
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import ClassVar, Iterable, Iterator

import numpy as np

from repro.errors import ReproError
from repro.obs.logs import get_logger, slow_op_threshold_s
from repro.obs.metrics import REGISTRY, STORAGE_COMMIT
from repro.obs.trace import tracer
from repro.service.store import SetStore

log = get_logger("storage")

#: Registered backend names, in the order the CLI offers them.
BACKEND_NAMES = ("journal", "sqlite")


class StorageCorruptError(ReproError):
    """A backend's durable state failed to parse / open.

    Raised for damage that atomic installation should have made
    impossible (a torn snapshot, an unreadable SQLite header) — never
    for a torn journal/WAL tail, which is expected crash residue and is
    recovered from, not raised."""


class StorageBackend(ABC):
    """One shard's durable state behind a narrow, swappable API.

    Concrete backends are constructed as ``Backend(directory, epoch=...,
    create=..., **tuning)`` where ``tuning`` is the subset of
    :attr:`TUNING` keys the caller wants to override — use
    :func:`open_backend` rather than constructing directly so unknown
    keys are validated and irrelevant ones dropped.

    There is exactly one writing owner per shard directory at a time
    (the shard's :class:`~repro.cluster.worker.ShardWorker`, in the
    server process or in a worker subprocess); the owner serializes
    all ``record_*`` calls.  Read-only users (the
    offline rebalance, stats tooling) open a second instance with
    ``create=False`` and only call :meth:`iter_sets` / :meth:`stats`.
    """

    #: Backend name as recorded in the cluster manifest and accepted by
    #: ``--storage``.
    name: ClassVar[str]

    #: Whether ``record_*`` may be called from a worker thread while the
    #: event loop keeps serving (journal: yes).  ``False`` backends are
    #: driven inline through the store's persistence hook instead.
    concurrent_writes: ClassVar[bool]

    #: Whether :meth:`compact` needs the full ``(name, values, version)``
    #: entry list (journal snapshot rewrite) or compacts from its own
    #: durable state (SQLite WAL checkpoint) — the latter never
    #: materializes the whole store in memory.
    compact_from_entries: ClassVar[bool]

    #: Constructor tuning keys this backend understands.
    TUNING: ClassVar[frozenset]

    #: File-name prefixes of every durable file this backend may write
    #: in a shard directory, across *all* epochs (``data_filenames`` is
    #: the exact per-epoch name set; the prefixes also cover stale
    #: epochs and sidecars).  :meth:`discard` and the follower
    #: re-bootstrap in :mod:`repro.cluster.replication` delete by
    #: these, so a prefix must never collide with files the backend
    #: does not own.
    FILE_PREFIXES: ClassVar[tuple]

    epoch: int
    directory: Path

    # -- lifecycle -------------------------------------------------------------
    @abstractmethod
    def open_store(self) -> SetStore:
        """Recover the committed state and return the live store.

        The returned store is wired for write-through persistence: its
        ``persistence`` attribute is this backend, so direct
        ``store.apply_diff`` / ``store.create`` calls are durable before
        they are visible (recovery itself replays with the hook unset).
        Must be called exactly once, before any ``record_*`` call."""

    @abstractmethod
    def close(self) -> None:
        """Flush and release the durable medium.  Idempotent."""

    # -- durable writes (see the module docstring for ordering) ---------------
    @abstractmethod
    def record_create(self, name: str, values, version: int = 0) -> None:
        """Durably record a full-state replacement of one named set.

        Returns only after the record is committed; on error nothing is
        persisted and the caller must not mutate the in-memory set."""

    @abstractmethod
    def record_diff(self, name: str, add=(), remove=()) -> None:
        """Durably record one apply-diff against an existing set.

        Callers validate the target exists *before* calling (a DIFF must
        never precede its CREATE); backends that can detect a missing
        target anyway (SQLite) raise ``UnknownSetError`` without
        persisting.  Empty diffs are the caller's job to skip."""

    # -- committed-state readers ----------------------------------------------
    @abstractmethod
    def iter_sets(self) -> Iterator[tuple[str, np.ndarray, int]]:
        """Yield ``(name, values, version)`` for every committed set,
        ``values`` as an element array (:mod:`repro.core.elements`).

        Reads the durable state, not any live in-memory cache — this is
        what the rebalance migrates through, so it must reflect every
        acknowledged mutation."""

    # -- compaction ------------------------------------------------------------
    @abstractmethod
    def should_compact(self) -> bool:
        """Whether the reclaimable log (journal / WAL) has outgrown the
        backend's compaction threshold."""

    @abstractmethod
    def compact(self, entries=None) -> None:
        """Fold the log into the base state.  ``entries`` is the live
        ``store.items()`` listing for :attr:`compact_from_entries`
        backends and ``None`` otherwise.  Crash-safe at every point:
        either layout recovers the same sets."""

    # -- introspection ---------------------------------------------------------
    @abstractmethod
    def stats(self) -> dict:
        """JSON-able counters.  Every backend reports at least ``epoch``,
        ``records_appended``, ``compactions``, ``recovered_sets`` and
        ``tail_error`` ("" when recovery found no crash residue)."""

    # -- offline layout (rebalance) -------------------------------------------
    @classmethod
    @abstractmethod
    def data_filenames(cls, epoch: int = 0) -> set:
        """Every file name this backend may own in a shard directory at
        ``epoch`` — the rebalance sweep keeps exactly these."""

    @classmethod
    @abstractmethod
    def stage(cls, directory, entries: Iterable, epoch: int = 0,
              fsync: bool = True) -> int:
        """Write ``(name, values, version)`` entries as a complete,
        atomically-installed shard state at ``epoch`` next to whatever
        else the directory holds; returns the staged byte size.  Used by
        the rebalance to stage a new layout before the manifest commit,
        and by follower bootstrap to install the primary's snapshot."""

    @classmethod
    def discard(cls, directory) -> int:
        """Delete every file this backend owns in ``directory``.

        Only *files* matching :attr:`FILE_PREFIXES` (or ``.tmp``
        leftovers) are unlinked; subdirectories — including nested
        follower replica dirs — are never touched.  Returns the number
        of files removed.  This is how a follower replica is reset
        before a fresh snapshot bootstrap: stale state must never be
        double-applied on top of."""
        directory = Path(directory)
        if not directory.exists():
            return 0
        removed = 0
        for entry in directory.iterdir():
            if entry.is_file() and (
                entry.name.startswith(cls.FILE_PREFIXES)
                or entry.name.endswith(".tmp")
            ):
                entry.unlink()
                removed += 1
        return removed


def backend_class(name: str) -> type:
    """The :class:`StorageBackend` subclass registered under ``name``."""
    if name == "journal":
        from repro.cluster.journal import JournalBackend
        return JournalBackend
    if name == "sqlite":
        from repro.cluster.sqlite import SqliteBackend
        return SqliteBackend
    raise ReproError(
        f"unknown storage backend {name!r}; expected one of "
        + ", ".join(BACKEND_NAMES)
    )


def open_backend(
    name: str, directory, epoch: int = 0, create: bool = True, **tuning
) -> StorageBackend:
    """Construct the named backend, validating tuning keys.

    Keys no registered backend understands raise; keys another backend
    understands but this one does not (``cache_sets`` on journal) are
    dropped, so one :class:`repro.cluster.config.ClusterConfig` can
    carry the union of every backend's tuning."""
    cls = backend_class(name)
    known = frozenset().union(
        *(backend_class(n).TUNING for n in BACKEND_NAMES)
    )
    unknown = set(tuning) - known
    if unknown:
        raise ReproError(
            f"unknown storage tuning keys {sorted(unknown)} for "
            f"backend {name!r}"
        )
    kwargs = {k: v for k, v in tuning.items() if k in cls.TUNING}
    return cls(directory, epoch=epoch, create=create, **kwargs)


# -- the shared durable-first mutation protocol --------------------------------

async def apply_mutation(store: SetStore, storage: StorageBackend | None,
                         op: str, args: tuple, trace=None):
    """Apply one shard mutation with the durable-first protocol.

    ``trace`` (the originating session's span context, if any) parents
    the ``storage.commit`` span; mutations that actually hit the
    durable medium are also recorded into the storage-commit latency
    histogram and WARN-logged past the slow-op threshold.

    This is the *single* definition of how a shard mutates — the one
    :class:`~repro.cluster.worker.ShardWorker` loop runs it for every
    primary and follower under both executors, which is what keeps the
    executors' stores and shard files bit-for-bit interchangeable:

    * ``apply`` ``(name, add, remove)`` — raise the store's own
      ``UnknownSetError`` *before* the durable write (a DIFF record must
      never precede its CREATE), skip the write for empty diffs
      (converged re-sync passes change nothing), persist, then mutate;
      returns the changed-element count.
    * ``create`` / ``restore`` ``(name, values, version)`` — persist the
      full-state replacement, then replace the set.
    * ``sync`` — a no-op ordering barrier.

    For ``concurrent_writes`` backends the durable write runs in the
    default thread-pool executor so commits proceed in parallel across
    shards; same-thread backends persist inline through the store's own
    hook.  Either way the write completes *before* the store mutates: a
    failed write leaves the store untouched, and no concurrent snapshot
    can observe state a crash recovery would roll back.
    """
    durable = storage is not None and (
        op in ("create", "restore")
        or (op == "apply" and (len(args[1]) or len(args[2])))
    )
    if not durable:
        return await _mutate(store, storage, op, args)
    ts = time.time()
    start = time.perf_counter()
    result = await _mutate(store, storage, op, args)
    elapsed = time.perf_counter() - start
    REGISTRY.histogram(STORAGE_COMMIT).record(elapsed)
    trc = tracer()
    if trc.enabled:
        trc.emit(
            "storage.commit", trc.child(trace) or trc.mint(), trace,
            ts, elapsed, op=op, backend=storage.name,
        )
    if elapsed >= slow_op_threshold_s():
        log.warning(
            "slow storage commit",
            extra={
                "elapsed_ms": round(elapsed * 1e3, 3),
                "op": op,
                "backend": storage.name,
                "set": args[0],
                "trace": trace.hex() if trace is not None else "",
            },
        )
    return result


async def _mutate(store: SetStore, storage: StorageBackend | None,
                  op: str, args: tuple):
    loop = asyncio.get_running_loop()
    offload = storage is not None and storage.concurrent_writes
    if op == "apply":
        name, add, remove = args
        if not offload:
            # memory-only, or the store's persistence hook commits inline
            # repro: ignore[blocking-call-in-async] -- same-thread
            # backend contract: sqlite connections are thread-bound, so
            # the single-transaction commit runs inline by design
            return store.apply_diff(name, add=add, remove=remove)
        if name not in store:
            # raise the store's own error *before* the durable write
            # repro: ignore[blocking-call-in-async] -- no persistence
            # hook fires here: the call only raises UnknownSetError
            store.apply_diff(name)
        if len(add) or len(remove):
            await loop.run_in_executor(
                None, storage.record_diff, name, add, remove
            )
            # repro: ignore[blocking-call-in-async] -- persisted=True:
            # the durable write already ran in the executor above; this
            # is the in-memory apply only
            return store.apply_diff(
                name, add=add, remove=remove, persisted=True
            )
        # repro: ignore[blocking-call-in-async] -- empty diff: the
        # persistence hook only fires for non-empty diffs, so this is
        # a pure in-memory reconcile-counter bump
        return store.apply_diff(name, add=add, remove=remove)
    if op in ("create", "restore"):
        name, values, version = args
        if not offload:
            # repro: ignore[blocking-call-in-async] -- same-thread
            # backend contract: inline commit (see apply above)
            store.create(name, values, version=version)
            return None
        await loop.run_in_executor(
            None, storage.record_create, name, values, version
        )
        # repro: ignore[blocking-call-in-async] -- persisted=True: the
        # durable write already ran in the executor above
        store.create(name, values, version=version, persisted=True)
        return None
    if op == "sync":
        return None
    raise ReproError(f"unknown shard mutation op {op!r}")


async def compact_if_due(store: SetStore,
                         storage: StorageBackend | None) -> str | None:
    """Run a due background compaction (the shard worker's, after the
    ack of the mutation that made it due).

    Returns ``None`` when no compaction was due, ``""`` after a
    successful one, and the error string after a failed one — a failed
    compaction must never be charged to the (already durable, already
    applied) mutation that happened to trigger it.
    """
    if storage is None or not storage.should_compact():
        return None
    try:
        if storage.compact_from_entries:
            entries = store.items()
            await asyncio.get_running_loop().run_in_executor(
                None, storage.compact, entries
            )
        else:
            # compacts from its own durable state (e.g. a WAL
            # checkpoint) — cheap, same-thread, no materialization
            storage.compact()
        return ""
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
