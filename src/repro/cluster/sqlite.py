"""The SQLite storage backend: one WAL-mode database file per shard.

:class:`repro.cluster.journal.JournalBackend` replays every byte into
RAM at open, so shard size is capped by memory — twice in proc mode
(worker + parent mirror).  This backend keeps the durable truth in one
SQLite file per shard (``store.sqlite``, epoch-qualified like the
journal files) and materializes sets **lazily**: the working set, not
the full store, determines RAM.

Why SQLite fits the PR-3 durability contract
--------------------------------------------

* ``PRAGMA journal_mode=WAL`` — writers append to a write-ahead log and
  readers see consistent snapshots; a SIGKILL mid-commit leaves either
  the old state or the new one, never a torn database.  This is the
  same torn-tail tolerance the record journal earned by hand.
* ``PRAGMA synchronous=NORMAL`` (the ``fsync=False`` mapping) — commits
  flush to the WAL without an fsync per transaction; a *process* kill
  loses nothing acknowledged, a *machine* crash can lose the recent
  tail — exactly the journal's ``fsync=False`` posture.  ``fsync=True``
  maps to ``synchronous=FULL`` (fsync on every commit), the journal's
  strict mode.
* ``PRAGMA busy_timeout`` — offline readers (stats tooling, the
  rebalance) briefly share the file with the owner; writers never spin
  on a transient lock.

Sets are versioned rows::

    sets(name TEXT PRIMARY KEY, version INTEGER NOT NULL)
    elements(set_name TEXT, value INTEGER, PRIMARY KEY(set_name, value))

One commit is one transaction, of one record or of a whole batch
(:meth:`~repro.cluster.storage.StorageBackend.commit`).  An apply-diff
inserts its adds, deletes its removes, and bumps the version iff any
row actually changed, so the durable version arithmetic is bit-for-bit
the in-memory :meth:`repro.service.store.SetStore.apply_diff`
arithmetic — the cross-backend equivalence the tests assert.  Element
values are 64-bit unsigned; SQLite INTEGERs are signed, so values
round-trip through a two's-complement mapping: an element array viewed
as ``int64``.

Elements are bound in bulk: up to :data:`BULK_VALUES` values per
statement, ``INSERT OR IGNORE ... SELECT ?, column1 FROM (VALUES (?),
...)`` for adds and ``DELETE ... WHERE set_name = ? AND value IN (...)``
for removes.  With the set name that is 500 parameters, under the 999
that SQLite builds before 3.32 allow.  Binding one row per statement
step (``executemany``) took twice as long: ~12 ms against ~6 ms per
committed 10^4-element create on a 2-vCPU host.

``sqlite3`` connections refuse cross-thread use, so this backend
declares ``concurrent_writes=False``:
:func:`~repro.cluster.storage.apply_mutation` commits inline on the
event loop, not on the thread pool, after it has loaded the target set
into the store's cache.  Compaction is a ``wal_checkpoint(TRUNCATE)`` —
it folds the WAL back into the main file from SQLite's own durable
state and never materializes the store.
"""

from __future__ import annotations

import os
import sqlite3
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.cluster.storage import (
    StorageBackend,
    StorageCorruptError,
    compaction_due,
)
from repro.core.elements import element_array
from repro.service.store import SetStore, UnknownSetError, _NamedSet

#: LRU cap on materialized sets per shard.  Sized for "many
#: small-to-medium sets": the hot working set stays resident, the long
#: tail stays on disk.
DEFAULT_CACHE_SETS = 1024

#: How long a writer waits out a reader's transient lock (ms).
BUSY_TIMEOUT_MS = 5_000

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta ("
    " key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS sets ("
    " name TEXT PRIMARY KEY, version INTEGER NOT NULL)",
    "CREATE TABLE IF NOT EXISTS elements ("
    " set_name TEXT NOT NULL, value INTEGER NOT NULL,"
    " PRIMARY KEY (set_name, value)) WITHOUT ROWID",
)


def db_filename(epoch: int = 0) -> str:
    """The database file name for a layout epoch (0 = bare name)."""
    return "store.sqlite" if epoch == 0 else f"store-e{epoch}.sqlite"


#: Values bound per bulk statement (see the module docstring).
BULK_VALUES = 499

_INSERT = (
    "INSERT OR IGNORE INTO elements (set_name, value)"
    " SELECT ?, column1 FROM (VALUES {})"
)
_DELETE = "DELETE FROM elements WHERE set_name = ? AND value IN ({})"


def _bulk(conn, sql: str, mark: str, name: str, values) -> None:
    """Run ``sql`` for set ``name`` over ``values``, up to
    :data:`BULK_VALUES` at a time: uint64 elements bound as SQLite
    INTEGERs (two's complement), ``mark`` per value in the ``{}`` slot."""
    signed = element_array(values).view(np.int64).tolist()
    for start in range(0, len(signed), BULK_VALUES):
        batch = signed[start : start + BULK_VALUES]
        conn.execute(sql.format(",".join([mark] * len(batch))), [name, *batch])


def _elements(cursor) -> np.ndarray:
    """Single-column SQLite INTEGER rows back as an element array."""
    signed = np.fromiter((v for (v,) in cursor), dtype=np.int64)
    return element_array(signed.view(np.uint64))


class SqliteBackend(StorageBackend):
    """One shard's durable state as a WAL-mode SQLite database.

    Lifecycle mirrors the journal backend: construct (``create=False``
    for read-only offline use — never creates the file), then
    :meth:`open_store` for the live owner, ``record_*`` writes, and an
    idempotent :meth:`close`.  All calls must come from the thread that
    constructed the instance (``concurrent_writes=False``)."""

    name = "sqlite"
    concurrent_writes = False
    compact_from_entries = False
    #: every epoch's ``store[-eN].sqlite`` plus the WAL/SHM sidecars
    FILE_PREFIXES = ("store",)

    def __init__(
        self,
        directory: str | Path,
        fsync: bool = False,
        epoch: int = 0,
        create: bool = True,
    ) -> None:
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {epoch}")
        self.directory = Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.epoch = epoch
        self.db_path = self.directory / db_filename(epoch)
        self.fsync = fsync
        self._conn: sqlite3.Connection | None = None
        self._pending: int | None = None   #: the open commit's records
        # -- counters for stats() (journal-compatible keys) --
        self.records_appended = 0
        self.commits = 0
        self.compactions = 0
        self.recovered_sets = 0
        self.tail_error = ""
        if create or self.db_path.exists():
            self._connect(initialize=create)

    def _connect(self, initialize: bool) -> None:
        try:
            conn = sqlite3.connect(self.db_path)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                "PRAGMA synchronous=" + ("FULL" if self.fsync else "NORMAL")
            )
            conn.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
            if initialize:
                with conn:
                    for stmt in _SCHEMA:
                        conn.execute(stmt)
                    conn.execute(
                        "INSERT OR IGNORE INTO meta (key, value)"
                        " VALUES ('backend', 'sqlite')"
                    )
            self.recovered_sets = conn.execute(
                "SELECT COUNT(*) FROM sets"
            ).fetchone()[0]
        except sqlite3.Error as exc:
            # an unreadable header / missing schema is damage that the
            # atomic staging protocol should have made impossible
            raise StorageCorruptError(f"{self.db_path}: {exc}") from None
        self._conn = conn

    def _require_conn(self) -> sqlite3.Connection:
        if self._conn is None:
            raise StorageCorruptError(
                f"{self.db_path}: backend is closed or was opened "
                f"read-only on a missing database"
            )
        return self._conn

    # -- StorageBackend protocol ----------------------------------------------
    def open_store(self) -> SetStore:
        """The live store: a lazy, LRU-bounded view over this database."""
        self._require_conn()
        return LazySetStore(self)

    @contextmanager
    def commit(self):
        """Run every record of the block in one transaction: committed
        (under ``fsync``, with one fsync) when the block exits, rolled
        back whole on an error inside it."""
        conn = self._require_conn()
        if self._pending is not None:
            yield      # joins the enclosing commit
            return
        self._pending = 0
        try:
            with conn:
                yield
            if self._pending:
                self.records_appended += self._pending
                self.commits += 1
        finally:
            self._pending = None

    def record_create(self, name: str, values, version: int = 0) -> None:
        with self.commit():
            conn = self._conn
            conn.execute(
                "INSERT OR REPLACE INTO sets (name, version) VALUES (?, ?)",
                (name, int(version)),
            )
            conn.execute("DELETE FROM elements WHERE set_name = ?", (name,))
            _bulk(conn, _INSERT, "(?)", name, values)
            self._pending += 1

    def record_diff(self, name: str, add=(), remove=()) -> None:
        """The version bumps iff a row really changed.

        ``total_changes`` counts exactly the inserts that were not
        already present and the deletes that were — the same quantity
        the in-memory arithmetic calls ``changed``, which is what keeps
        the two version counters in lock-step."""
        with self.commit():
            conn = self._conn
            row = conn.execute(
                "SELECT 1 FROM sets WHERE name = ?", (name,)
            ).fetchone()
            if row is None:
                # nothing persisted: the open transaction rolls back
                raise UnknownSetError(f"no such set: {name!r}")
            before = conn.total_changes
            _bulk(conn, _INSERT, "(?)", name, add)
            _bulk(conn, _DELETE, "?", name, remove)
            if conn.total_changes != before:
                conn.execute(
                    "UPDATE sets SET version = version + 1 WHERE name = ?",
                    (name,),
                )
            self._pending += 1

    def iter_sets(self):
        """``(name, values, version)`` straight from the database,
        sorted by name, one set materialized at a time."""
        conn = self._conn
        if conn is None:
            return
        for name, version in conn.execute(
            "SELECT name, version FROM sets ORDER BY name"
        ).fetchall():
            values = _elements(conn.execute(
                "SELECT value FROM elements WHERE set_name = ?", (name,)
            ))
            yield name, values, int(version)

    # -- lazy-store support ----------------------------------------------------
    def has_set(self, name: str) -> bool:
        conn = self._conn
        if conn is None:
            return False
        return (
            conn.execute(
                "SELECT 1 FROM sets WHERE name = ?", (name,)
            ).fetchone()
            is not None
        )

    def load_set(self, name: str) -> tuple[np.ndarray, int] | None:
        """One set's committed ``(values, version)``, or ``None``."""
        conn = self._conn
        if conn is None:
            return None
        row = conn.execute(
            "SELECT version FROM sets WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return None
        values = _elements(conn.execute(
            "SELECT value FROM elements WHERE set_name = ?", (name,)
        ))
        return values, int(row[0])

    def versions(self) -> list[tuple[str, int]]:
        """``(name, version)`` for every set, from the ``sets`` table
        alone (no element row is read)."""
        conn = self._conn
        if conn is None:
            return []
        return [
            (name, int(version))
            for name, version in conn.execute(
                "SELECT name, version FROM sets ORDER BY name"
            )
        ]

    def count(self, name: str) -> int:
        """One set's committed size: a scan of its primary-key prefix."""
        return self._require_conn().execute(
            "SELECT COUNT(*) FROM elements WHERE set_name = ?", (name,)
        ).fetchone()[0]

    # -- compaction ------------------------------------------------------------
    def _wal_bytes(self) -> int:
        try:
            return (
                self.db_path.with_name(self.db_path.name + "-wal")
                .stat()
                .st_size
            )
        except OSError:
            return 0

    def _db_bytes(self) -> int:
        try:
            return self.db_path.stat().st_size
        except OSError:
            return 0

    def should_compact(self) -> bool:
        return compaction_due(self._wal_bytes(), self._db_bytes())

    def compact(self, entries=None) -> None:
        """Fold the WAL back into the main file (``entries`` unused —
        ``compact_from_entries`` is False, the WAL *is* the log)."""
        conn = self._require_conn()
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        self.compactions += 1

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "db_bytes": self._db_bytes(),
            "wal_bytes": self._wal_bytes(),
            "records_appended": self.records_appended,
            "commits": self.commits,
            "compactions": self.compactions,
            "recovered_sets": self.recovered_sets,
            "tail_error": self.tail_error,
        }

    # -- offline layout (rebalance) -------------------------------------------
    @classmethod
    def data_filenames(cls, epoch: int = 0) -> set:
        base = db_filename(epoch)
        return {base, base + "-wal", base + "-shm"}

    @classmethod
    def stage(cls, directory, entries, epoch: int = 0,
              fsync: bool = True) -> int:
        """Build a complete database in a temp file, fsync, atomically
        install it (and drop any stale WAL sidecars of the target)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / db_filename(epoch)
        tmp_path = path.with_name(path.name + ".tmp")
        if tmp_path.exists():
            tmp_path.unlink()
        conn = sqlite3.connect(tmp_path)
        try:
            # atomicity comes from the final os.replace, not from a
            # rollback journal on the temp file
            conn.execute("PRAGMA journal_mode=OFF")
            conn.execute("PRAGMA synchronous=OFF")
            with conn:
                for stmt in _SCHEMA:
                    conn.execute(stmt)
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value)"
                    " VALUES ('backend', 'sqlite')"
                )
                for name, values, version in entries:
                    conn.execute(
                        "INSERT OR REPLACE INTO sets (name, version)"
                        " VALUES (?, ?)",
                        (name, int(version)),
                    )
                    _bulk(conn, _INSERT, "(?)", name, values)
        finally:
            conn.close()
        with open(tmp_path, "rb") as fh:
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        for suffix in ("-wal", "-shm"):
            side = path.with_name(path.name + suffix)
            if side.exists():
                side.unlink()
        if fsync:
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        return path.stat().st_size


class LazySetStore(SetStore):
    """A :class:`SetStore` whose truth lives in a :class:`SqliteBackend`.

    The ``_sets`` dict becomes a bounded LRU *cache* of at most
    :data:`DEFAULT_CACHE_SETS` materialized sets: reads fault a set in
    from the database on first touch, and eviction is always safe
    because :func:`~repro.cluster.storage.apply_mutation` commits every
    mutation to the database before it changes the cached copy — an
    evicted set re-faults bit-for-bit.  Only the per-set ``reconciles``
    session counter is cache-resident (it is not durable under the
    journal backend either: a restart zeroes it there too).

    ``items()`` still materializes everything (the proc executor's READY
    dump and the journal-style compaction path want full listings);
    bigger-than-RAM operation relies on the lazy read path plus the
    WAL-checkpoint compaction, which never calls ``items()``.
    """

    def __init__(self, backend: SqliteBackend) -> None:
        super().__init__()
        self._backend = backend
        #: ``(size, version)`` of sets not in the cache, remembered at
        #: eviction or counted once.  Only a resident set mutates, so a
        #: size goes stale only when a batch evicts a set between
        #: loading it and applying its diff — which bumps the version
        self._sizes: dict[str, tuple[int, int]] = {}
        self.cache_hits = 0
        self.cache_faults = 0
        self.cache_evictions = 0

    # -- LRU plumbing ----------------------------------------------------------
    def _touch(self, name: str) -> None:
        entry = self._sets.pop(name, None)
        if entry is not None:
            self._sets[name] = entry

    def _evict(self) -> None:
        while len(self._sets) > DEFAULT_CACHE_SETS:
            name = next(iter(self._sets))
            entry = self._sets.pop(name)
            self._sizes[name] = (len(entry), entry.version)
            self.cache_evictions += 1

    def entry(self, name: str) -> _NamedSet:
        entry = self._sets.get(name)
        if entry is not None:
            self.cache_hits += 1
            self._touch(name)
            return entry
        loaded = self._backend.load_set(name)
        if loaded is None:
            raise UnknownSetError(f"no such set: {name!r}")
        values, version = loaded
        entry = _NamedSet(base=values, version=version)
        self._sets[name] = entry
        self.cache_faults += 1
        self._evict()
        return entry

    # -- registry overrides (the database is the registry) ---------------------
    def names(self) -> list[str]:
        return [name for name, _ in self._backend.versions()]

    def __contains__(self, name: str) -> bool:
        return name in self._sets or self._backend.has_set(name)

    def create(self, name: str, values=(), version: int = 0) -> None:
        super().create(name, values, version=version)
        self._touch(name)
        self._evict()

    def items(self) -> list[tuple[str, np.ndarray, int]]:
        return list(self._backend.iter_sets())

    def cache_stats(self) -> dict:
        """LRU effectiveness for the metrics endpoint: a hit rate near 1
        means the working set fits the cache; a low rate with high
        evictions means reads are faulting sets back in from SQLite."""
        lookups = self.cache_hits + self.cache_faults
        return {
            "resident": len(self._sets),
            "capacity": DEFAULT_CACHE_SETS,
            "hits": self.cache_hits,
            "faults": self.cache_faults,
            "evictions": self.cache_evictions,
            "hit_rate": self.cache_hits / lookups if lookups else 1.0,
        }

    def stats(self) -> dict:
        """The per-set summary without loading a set: names and versions
        from the ``sets`` table, sizes from the cache or :attr:`_sizes`,
        so a set's element rows are read at most once while it stays
        out of the cache."""
        out = {}
        for name, version in self._backend.versions():
            entry = self._sets.get(name)
            if entry is not None:
                size, reconciles = len(entry), entry.reconciles
            else:
                size, seen = self._sizes.get(name, (0, None))
                if seen != version:
                    size = self._backend.count(name)
                    self._sizes[name] = (size, version)
                reconciles = 0
            out[name] = {
                "size": size, "version": version, "reconciles": reconciles,
            }
        return out
