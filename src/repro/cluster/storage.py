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

:func:`apply_mutation` is the one place that ordering lives: it is the
only caller of ``record_*`` on a live shard, and the store it mutates
afterwards (:class:`repro.service.store.SetStore`) is memory only.
:attr:`StorageBackend.concurrent_writes` says only *where* the durable
write runs: in the default thread-pool executor (journal), so appends
commit in parallel across shards, or inline on the event loop (SQLite,
whose connections are bound to their opening thread).

Two module constants set compaction, :data:`COMPACT_MIN_BYTES` and
:data:`COMPACT_FACTOR`; the one storage setting is ``fsync``.
"""

from __future__ import annotations

import asyncio
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import ClassVar, Iterable, Iterator

import numpy as np

from repro.core.elements import element_array
from repro.errors import ReproError
from repro.obs.logs import get_logger, slow_op_threshold_s
from repro.obs.metrics import REGISTRY, STORAGE_COMMIT
from repro.obs.trace import tracer
from repro.service.store import SetStore

log = get_logger("storage")

#: Registered backend names, in the order the CLI offers them.
BACKEND_NAMES = ("journal", "sqlite")

#: Compaction policy, shared by every backend: fold the log (journal,
#: WAL) into the base state (snapshot, database file) once the log
#: outgrows ``max(COMPACT_MIN_BYTES, COMPACT_FACTOR * base bytes)``.
COMPACT_MIN_BYTES = 1 << 16
COMPACT_FACTOR = 4


def compaction_due(log_bytes: int, base_bytes: int) -> bool:
    """Whether a log of ``log_bytes`` over a base of ``base_bytes`` has
    outgrown the compaction threshold."""
    return log_bytes > max(COMPACT_MIN_BYTES, COMPACT_FACTOR * base_bytes)


class StorageCorruptError(ReproError):
    """A backend's durable state failed to parse / open.

    Raised for damage that atomic installation should have made
    impossible (a torn snapshot, an unreadable SQLite header) — never
    for a torn journal/WAL tail, which is expected crash residue and is
    recovered from, not raised."""


class StorageBackend(ABC):
    """One shard's durable state behind a narrow, swappable API.

    Concrete backends are constructed as ``Backend(directory, fsync=...,
    epoch=..., create=...)``, by name through :func:`open_backend`.

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
    #: event loop keeps serving (journal: yes).  :func:`apply_mutation`
    #: writes to ``False`` backends inline, on the loop.
    concurrent_writes: ClassVar[bool]

    #: Whether :meth:`compact` needs the full ``(name, values, version)``
    #: entry list (journal snapshot rewrite) or compacts from its own
    #: durable state (SQLite WAL checkpoint) — the latter never
    #: materializes the whole store in memory.
    compact_from_entries: ClassVar[bool]

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

        The store is memory only: :func:`apply_mutation` records each
        mutation here before it mutates the store.  Must be called
        exactly once, before any ``record_*`` call."""

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
        compaction threshold (:func:`compaction_due`)."""

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
    name: str, directory, epoch: int = 0, create: bool = True,
    fsync: bool = False,
) -> StorageBackend:
    """Construct the backend registered under ``name``."""
    return backend_class(name)(
        directory, fsync=fsync, epoch=epoch, create=create
    )


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
    * ``create`` ``(name, values, version)`` — persist the full-state
      replacement, then replace the set.
    * ``sync`` — a no-op ordering barrier.

    The durable write completes *before* the store mutates: a failed
    write leaves the store untouched, and no concurrent snapshot can
    observe state a crash recovery would roll back.
    """
    durable = storage is not None and (
        op == "create"
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
    if op == "apply":
        name, add, remove = args
        add, remove = element_array(add), element_array(remove)
        # the mutation's one store lookup, before the write: it raises
        # UnknownSetError, and on SQLite it loads an uncached set, so
        # the apply counts against contents the diff is not yet part of
        target = store.entry(name)
        if storage is not None and (len(add) or len(remove)):
            await _persist(storage, storage.record_diff, name, add, remove)
        return target.apply(add, remove)
    if op == "create":
        name, values, version = args
        values = element_array(values)
        if storage is not None:
            await _persist(storage, storage.record_create, name, values,
                           version)
        # repro: ignore[blocking-call-in-async] -- the store is memory
        # only; the durable write returned above
        store.create(name, values, version=version)
        return None
    if op == "sync":
        return None
    raise ReproError(f"unknown shard mutation op {op!r}")


async def _persist(storage: StorageBackend, record, *args) -> None:
    """Run one ``record_*`` call: in the default thread-pool executor
    for ``concurrent_writes`` backends, so commits proceed in parallel
    across shards, else inline (SQLite connections are bound to their
    opening thread, so the one-transaction commit runs on the loop)."""
    if storage.concurrent_writes:
        await asyncio.get_running_loop().run_in_executor(None, record, *args)
    else:
        record(*args)


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
