"""The per-shard storage contract: what it means to persist a shard.

:class:`StorageBackend` is the narrow contract through which the shard
worker, the offline rebalance and follower bootstrap read and write
shard files, so the journal files
(:class:`repro.cluster.journal.JournalBackend`) and the WAL-mode SQLite
store (:class:`repro.cluster.sqlite.SqliteBackend`) are interchangeable
behind it — selected per data directory, recorded in the cluster
manifest, and surfaced as ``repro serve --storage``.

The durability / ack-ordering contract
--------------------------------------

Every backend MUST preserve the invariant the journal established in
PR 3: **a mutation is durable before it is visible**.  Concretely:

* :meth:`StorageBackend.record_diff` / :meth:`~StorageBackend.record_create`
  return only after the mutation is committed to the backend's durable
  medium (journal append + flush, SQLite transaction commit) — or,
  inside :meth:`StorageBackend.commit`, the block returns only after
  all of its records are, as one commit (one journal flush and fsync,
  one SQLite transaction).  If they raise, *nothing* of the commit may
  have been persisted — the caller leaves the in-memory sets untouched
  and the sessions are NOT acknowledged.
* The in-memory store mutates strictly *after* the durable write
  returns; no concurrent snapshot may observe state that a crash
  recovery would roll back.
* ``fsync=False`` backends may buffer in the OS (crash of the *machine*
  can lose the tail) but must already tolerate SIGKILL of the process:
  recovery finds every acknowledged mutation or a clean prefix of them
  (journal: torn-tail truncation; SQLite: WAL recovery).

:func:`apply_mutation` is the one place that ordering lives: it is the
only caller of ``record_*`` on a live shard, it writes every batch of
mutations the shard worker hands it as one commit, and the store it
mutates afterwards (:class:`repro.service.store.SetStore`) is memory
only.
:attr:`StorageBackend.concurrent_writes` says only *where* the durable
write runs: in the default thread-pool executor (journal), so commits
proceed in parallel across shards, or inline on the event loop (SQLite,
whose connections are bound to their opening thread).

Two module constants set compaction, :data:`COMPACT_MIN_BYTES` and
:data:`COMPACT_FACTOR`; the one storage setting is ``fsync``.
"""

from __future__ import annotations

import asyncio
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import ClassVar, ContextManager, Iterable, Iterator

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
    all ``record_*`` calls and commits.  Read-only users (the
    offline rebalance, stats tooling) open a second instance with
    ``create=False`` and only call :meth:`iter_sets` / :meth:`stats`.
    """

    #: Backend name as recorded in the cluster manifest and accepted by
    #: ``--storage``.
    name: ClassVar[str]

    #: Whether a commit may run on a worker thread while the event loop
    #: keeps serving (journal: yes).  :func:`apply_mutation` commits to
    #: ``False`` backends inline, on the loop.
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
    def commit(self) -> ContextManager[None]:
        """A context in which every ``record_*`` call joins one commit.

        The records are durable together when the block exits, and on
        an error inside it none is persisted.  A ``record_*`` call
        outside any ``commit()`` is a commit of its own; a ``commit()``
        inside another joins the outer one.  Each commit counts one in
        ``stats()["commits"]``."""

    @abstractmethod
    def record_create(self, name: str, values, version: int = 0) -> None:
        """Durably record a full-state replacement of one named set.

        Returns only after the record is committed (with the enclosing
        :meth:`commit`, if any); on error nothing is persisted and the
        caller must not mutate the in-memory set."""

    @abstractmethod
    def record_diff(self, name: str, add=(), remove=()) -> None:
        """Durably record one apply-diff against an existing set, or one
        an earlier record of the enclosing :meth:`commit` creates.

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
        ``records_appended``, ``commits`` (durable commits, each of one
        or more records), ``compactions``, ``recovered_sets`` and
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
                         batch) -> list:
    """Apply a batch of shard mutations as one durable-first group commit.

    ``batch`` is a list of ``(op, args, trace)`` mutations; the result
    is one ``(result, error)`` pair per mutation, in order.

    This is the *single* definition of how a shard mutates — the one
    :class:`~repro.cluster.worker.ShardWorker` loop runs it for every
    primary and follower under both executors, which is what keeps the
    executors' stores and shard files bit-for-bit interchangeable:

    * ``apply`` ``(name, add, remove)`` — changes a set that exists or
      that an earlier mutation of the batch creates; returns the
      changed-element count.  Empty diffs (converged re-syncs) are not
      written.
    * ``create`` ``(name, values, version)`` — replaces the set.

    Each mutation is validated in order; an apply to an unknown set, or
    an unknown op, fails that mutation alone, before anything is
    written.  The valid ones' records are written as one commit
    (:meth:`StorageBackend.commit`), on the thread pool for
    ``concurrent_writes`` backends, else inline; a failed commit fails
    every valid mutation with its error and changes nothing.  Only then
    is each applied to the store, in order, with no ``await`` in
    between, so the caller can ack the batch in the step it becomes
    visible.  Each commit is one storage-commit histogram sample,
    WARN-logged past the slow-op threshold, and each written mutation's
    ``trace`` parents a ``storage.commit`` span covering the commit.
    """
    outcomes: list = [(None, None)] * len(batch)
    steps = []       # (index, op, args, target) of the valid mutations
    records = []     # (index, op, args) to commit, in batch order
    targets = {}     # name -> live entry; None once the batch creates it
    reused = set()   # names an apply uses after the batch creates them
    for i, (op, args, _) in enumerate(batch):
        target = None
        try:
            if op == "apply":
                name, add, remove = args
                args = (name, element_array(add), element_array(remove))
                if name not in targets:
                    # the set's one store lookup, before the write: it
                    # raises UnknownSetError, and on SQLite it loads an
                    # uncached set, so the apply counts against contents
                    # the diff is not yet part of
                    targets[name] = store.entry(name)
                target = targets[name]
                if target is None:
                    reused.add(name)
                if len(args[1]) or len(args[2]):
                    records.append((i, op, args))
            elif op == "create":
                name, values, version = args
                args = (name, element_array(values), version)
                targets[name] = None
                records.append((i, op, args))
            else:
                raise ReproError(f"unknown shard mutation op {op!r}")
        except Exception as exc:
            outcomes[i] = (None, exc)
            continue
        steps.append((i, op, args, target))
    if storage is not None and records:
        ts = time.time()
        start = time.perf_counter()
        try:
            if storage.concurrent_writes:
                await asyncio.get_running_loop().run_in_executor(
                    None, _commit, storage, records
                )
            else:
                # SQLite connections are bound to their opening thread
                _commit(storage, records)
        except Exception as exc:
            for i, *_ in steps:
                outcomes[i] = (None, exc)
            return outcomes
        _observe_commit(storage, batch, records, ts,
                        time.perf_counter() - start)
    created = {}     # name -> the entry this batch's create made
    for i, op, args, target in steps:
        if op == "apply":
            if target is None:
                target = created[args[0]]
            outcomes[i] = (target.apply(args[1], args[2]), None)
        elif op == "create":
            # repro: ignore[blocking-call-in-async] -- the store is memory
            # only; the durable write returned above
            store.create(args[0], args[1], version=args[2])
            if args[0] in reused:
                # looked up at once: a SQLite cache may evict the new
                # set before the apply, and a reload would already hold
                # the apply's own committed diff
                created[args[0]] = store.entry(args[0])
    return outcomes


def _commit(storage: StorageBackend, records) -> None:
    """Write ``records`` as one durable commit of ``storage``."""
    with storage.commit():
        for _, op, args in records:
            if op == "create":
                storage.record_create(*args)
            else:
                storage.record_diff(*args)


def _observe_commit(storage: StorageBackend, batch, records, ts: float,
                    elapsed: float) -> None:
    REGISTRY.histogram(STORAGE_COMMIT).record(elapsed)
    trc = tracer()
    if trc.enabled:
        for i, op, _ in records:
            trace = batch[i][2]
            trc.emit(
                "storage.commit", trc.child(trace) or trc.mint(), trace,
                ts, elapsed, op=op, backend=storage.name,
                records=len(records),
            )
    if elapsed >= slow_op_threshold_s():
        i, op, args = records[0]
        trace = batch[i][2]
        log.warning(
            "slow storage commit",
            extra={
                "elapsed_ms": round(elapsed * 1e3, 3),
                "op": op,
                "backend": storage.name,
                "set": args[0],
                "records": len(records),
                "trace": trace.hex() if trace is not None else "",
            },
        )


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
