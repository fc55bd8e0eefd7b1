"""Per-shard durability: append-only apply-diff journal + snapshot.

Every mutation a shard accepts is appended to ``journal.log`` as one
length-prefixed, checksummed record *before* the session's RESULT is
acknowledged; periodically the whole shard state is rewritten as
``snapshot.bin`` (atomically, via ``os.replace``) and the journal is
truncated.  Recovery is therefore always *snapshot, then journal*: the
snapshot must parse completely (it was installed atomically), while the
journal tolerates a torn tail — a crash mid-append loses at most the
record being written, and replay stops cleanly at the last complete,
checksum-verified record.

Record framing (all integers big-endian, like :mod:`repro.service.wire`)::

    | payload_len (4) | checksum (4) | payload ... |

where ``checksum`` is the paper's set checksum ``c(S)`` of §2.2.3
(:func:`repro.core.checksum.set_checksum`) taken over the payload bytes.
Payloads::

    CREATE:  op=1 | name_len (2) | name | version (8) | count (4) | elements
    DIFF:    op=2 | name_len (2) | name | n_add (4) | n_rm (4) | adds | rms

Elements are 8-byte big-endian unsigned, ascending.  A snapshot file is a
sequence of CREATE records (one per named set, version included), so one
codec serves both files and replaying a snapshot is replaying a journal.

File names are *epoch-qualified*: layout epoch 0 (the pre-manifest
layout) uses the bare ``snapshot.bin`` / ``journal.log`` names, epoch
``e > 0`` uses ``snapshot-e{e}.bin`` / ``journal-e{e}.log``.  The
cluster manifest (:mod:`repro.cluster.manifest`) records which epoch
each shard directory is at; a rebalance stages a whole new epoch's
files next to the old ones and commits by atomically replacing the
manifest, so a crash mid-rebalance never damages the current layout
(see :mod:`repro.cluster.rebalance`).
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cluster.storage import (
    StorageBackend,
    StorageCorruptError,
    compaction_due,
)
from repro.core.checksum import set_checksum
from repro.core.elements import element_array
from repro.errors import ReproError
from repro.service.store import SetStore, UnknownSetError

__all__ = [
    "JournalBackend",
    "JournalCorruptError",
    "Record",
    "encode_create",
    "encode_diff",
    "journal_filename",
    "read_records",
    "replay_shard",
    "snapshot_filename",
    "write_snapshot",
]

OP_CREATE = 1
OP_DIFF = 2

_HEADER = struct.Struct("!II")

#: Upper bound on one record's payload — a corrupt length prefix must not
#: make replay attempt a multi-gigabyte read.
MAX_RECORD_BYTES = 1 << 28


class JournalCorruptError(StorageCorruptError):
    """A snapshot file failed to parse (journals tolerate torn tails)."""


def snapshot_filename(epoch: int = 0) -> str:
    """The snapshot file name for a layout epoch (0 = legacy bare name)."""
    return "snapshot.bin" if epoch == 0 else f"snapshot-e{epoch}.bin"


def journal_filename(epoch: int = 0) -> str:
    """The journal file name for a layout epoch (0 = legacy bare name)."""
    return "journal.log" if epoch == 0 else f"journal-e{epoch}.log"


@dataclass
class Record:
    """One decoded journal record."""

    op: int
    name: str
    version: int = 0                      #: CREATE only
    add: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))
    remove: np.ndarray = field(default_factory=lambda: np.empty(0, np.uint64))


def _checksum(payload: bytes) -> int:
    """The §2.2.3 set checksum over *position-weighted* payload bytes.

    ``c(S)`` is additive, so summing raw bytes would be blind to
    reorderings; weighting each byte by its 1-based offset (c(S) over the
    multiset ``{(i+1) * b_i}``, Fletcher-style) makes transpositions and
    shifted splices change the sum.  Compensating corruptions can still
    collide (it is a sum, not a CRC), but torn tails are additionally
    caught by the length prefix and the structural decode."""
    data = np.frombuffer(payload, dtype=np.uint8).astype(np.uint64)
    weights = np.arange(1, len(data) + 1, dtype=np.uint64)
    return set_checksum(data * weights, log_u=32)


def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), _checksum(payload)) + payload


def _name_bytes(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ReproError(f"set name too long to journal: {name[:40]!r}...")
    return struct.pack("!H", len(raw)) + raw


def _elements_bytes(values) -> bytes:
    return element_array(values).astype(">u8").tobytes()


def encode_create(name: str, values, version: int = 0) -> bytes:
    """A full-state record: replaces the named set on replay."""
    body = _elements_bytes(values)
    payload = (
        struct.pack("!B", OP_CREATE)
        + _name_bytes(name)
        + struct.pack("!QI", version, len(body) // 8)
        + body
    )
    return _frame(payload)


def encode_diff(name: str, add=(), remove=()) -> bytes:
    """An apply-diff record: merged into the named set on replay."""
    add_body = _elements_bytes(add)
    rm_body = _elements_bytes(remove)
    payload = (
        struct.pack("!B", OP_DIFF)
        + _name_bytes(name)
        + struct.pack("!II", len(add_body) // 8, len(rm_body) // 8)
        + add_body
        + rm_body
    )
    return _frame(payload)


def _decode_payload(payload: bytes) -> Record:
    (op,) = struct.unpack_from("!B", payload)
    (name_len,) = struct.unpack_from("!H", payload, 1)
    offset = 3 + name_len
    name = payload[3:offset].decode("utf-8")
    if op == OP_CREATE:
        version, count = struct.unpack_from("!QI", payload, offset)
        offset += 12
        if len(payload) != offset + 8 * count:
            raise ReproError("CREATE record length mismatch")
        values = np.frombuffer(payload, dtype=">u8", count=count,
                               offset=offset).astype(np.uint64)
        return Record(op=op, name=name, version=version, add=values)
    if op == OP_DIFF:
        n_add, n_rm = struct.unpack_from("!II", payload, offset)
        offset += 8
        if len(payload) != offset + 8 * (n_add + n_rm):
            raise ReproError("DIFF record length mismatch")
        add = np.frombuffer(payload, dtype=">u8", count=n_add,
                            offset=offset).astype(np.uint64)
        remove = np.frombuffer(payload, dtype=">u8", count=n_rm,
                               offset=offset + 8 * n_add).astype(np.uint64)
        return Record(op=op, name=name, add=add, remove=remove)
    raise ReproError(f"unknown journal op {op}")


def read_records(data: bytes) -> tuple[list[Record], int, str]:
    """Decode back-to-back records, stopping at the first damaged one.

    Returns ``(records, clean_offset, tail_error)`` where ``clean_offset``
    is the byte offset just past the last complete, verified record and
    ``tail_error`` describes why scanning stopped ("" when the whole
    buffer parsed).  This is the crash-tolerance contract: a torn tail is
    data loss bounded by one record, never a failed recovery.
    """
    records: list[Record] = []
    view = memoryview(data)
    offset = 0
    while offset < len(view):
        if offset + _HEADER.size > len(view):
            return records, offset, "truncated record header"
        length, checksum = _HEADER.unpack_from(view, offset)
        if length > MAX_RECORD_BYTES:
            return records, offset, f"implausible record length {length}"
        start = offset + _HEADER.size
        if start + length > len(view):
            return records, offset, "truncated record body"
        payload = bytes(view[start : start + length])
        if _checksum(payload) != checksum:
            return records, offset, "record checksum mismatch"
        try:
            records.append(_decode_payload(payload))
        except (ReproError, UnicodeDecodeError, struct.error) as exc:
            return records, offset, f"undecodable record: {exc}"
        offset = start + length
    return records, offset, ""


class JournalBackend(StorageBackend):
    """One shard's on-disk state: ``snapshot.bin`` + ``journal.log``.

    The original (PR 3) storage backend, now behind the
    :class:`repro.cluster.storage.StorageBackend` protocol — the
    whole store lives in memory and every byte is replayed at open, so
    it is the low-latency choice for stores that fit in RAM
    (``SqliteBackend`` is the bigger-than-RAM one).  The caller owns
    serialization — appends must not interleave — and decides *when* to
    compact; this class owns the bytes and the crash-safety protocol.
    There is exactly one writing owner per shard directory: the inline
    shard worker task (:mod:`repro.cluster.router`) or the shard's
    worker subprocess (:mod:`repro.cluster.proc`), selected by the
    store's executor.

    Lifecycle: :meth:`open_store` (replay + open for appends), then any
    number of :meth:`record_diff` / :meth:`record_create` (alone, or
    grouped by :meth:`commit`) and :meth:`compact` calls, then
    :meth:`close` (idempotent).
    :meth:`replay` is the read-only half used by offline tooling
    (:func:`replay_shard`, the rebalance).  Durable writes are
    ``concurrent_writes`` (appends run on worker threads while the event
    loop serves) and honour the durable-before-visible ordering of
    :mod:`repro.cluster.storage`.
    """

    name = "journal"
    concurrent_writes = True
    compact_from_entries = True
    #: every epoch's ``snapshot-eN.bin`` / ``journal-eN.log`` variants
    FILE_PREFIXES = ("snapshot", "journal")

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
        self.snapshot_path = self.directory / snapshot_filename(epoch)
        self.journal_path = self.directory / journal_filename(epoch)
        self.fsync = fsync
        self._journal_file = None
        self._journal_bytes = 0
        self._snapshot_bytes = 0
        self._pending: int | None = None   #: the open commit's records
        # -- counters for stats() --
        self.records_appended = 0
        self.commits = 0
        self.compactions = 0
        self.recovered_sets = 0
        self.recovered_records = 0
        self.skipped_records = 0
        self.truncated_bytes = 0
        self.tail_error = ""

    # -- StorageBackend protocol ----------------------------------------------
    def open_store(self) -> SetStore:
        """Recover snapshot-then-journal into a fresh live store."""
        store = SetStore()
        self.recover(store)
        return store

    @contextmanager
    def commit(self):
        """Append every record of the block, then flush and (under
        ``fsync``) fsync the journal once.  An error inside the block
        truncates the journal back to where the commit began, so the
        next commit never follows a partial one."""
        if self._pending is not None:
            yield      # joins the enclosing commit
            return
        assert self._journal_file is not None, "recover() before append()"
        start = self._journal_bytes
        self._pending = 0
        try:
            yield
            self._journal_file.flush()
            if self.fsync and self._pending:
                os.fsync(self._journal_file.fileno())
        except BaseException:
            self._journal_bytes = start
            with suppress(OSError):
                self._journal_file.truncate(start)
            raise
        finally:
            records, self._pending = self._pending, None
        if records:
            self.records_appended += records
            self.commits += 1

    def record_create(self, name: str, values, version: int = 0) -> None:
        """Durably append one full-state CREATE record."""
        self.append(encode_create(name, values, version=version))

    def record_diff(self, name: str, add=(), remove=()) -> None:
        """Durably append one DIFF record (caller validated the target)."""
        self.append(encode_diff(name, add=add, remove=remove))

    def iter_sets(self):
        """``(name, values, version)`` from the committed files.

        Re-reads snapshot + journal from disk (offline readers open
        their own ``create=False`` instance; the live owner's appends
        are flushed on every write, so its committed state is on disk
        too).  Replays via a scratch instance so this instance's
        recovery counters stay truthful."""
        scratch = JournalBackend(self.directory, epoch=self.epoch,
                                 create=False)
        store = SetStore()
        scratch.replay(store)
        yield from store.items()

    @classmethod
    def data_filenames(cls, epoch: int = 0) -> set:
        return {snapshot_filename(epoch), journal_filename(epoch)}

    @classmethod
    def stage(cls, directory, entries, epoch: int = 0,
              fsync: bool = True) -> int:
        return write_snapshot(directory, entries, epoch=epoch,
                              dir_fsync=fsync)

    # -- recovery --------------------------------------------------------------
    def recover(self, store: SetStore) -> None:
        """Load snapshot-then-journal into ``store`` and open for appends.

        The journal file is truncated back to its last complete record so
        post-recovery appends never follow garbage.  A snapshot with a
        missing or zero-length journal (an operator may legitimately
        delete a journal to drop its tail) recovers the snapshot state.
        """
        self.replay(store, truncate_tail=True)
        self._journal_file = open(self.journal_path, "ab")

    def replay(self, store: SetStore, truncate_tail: bool = False) -> None:
        """Load snapshot-then-journal into ``store`` without opening for
        appends — the read-only half of :meth:`recover`, reused by the
        offline rebalance (:func:`replay_shard`).

        Unless ``truncate_tail`` is set the files are not modified: a torn
        tail is merely skipped (and counted in :attr:`truncated_bytes`),
        which keeps offline planning passes side-effect free.
        """
        if self.snapshot_path.exists():
            data = self.snapshot_path.read_bytes()
            records, offset, error = read_records(data)
            if error:
                # snapshots are installed with an atomic rename; a torn
                # one means the storage itself is damaged, not a crash
                raise JournalCorruptError(
                    f"{self.snapshot_path}: {error} at byte {offset}"
                )
            for record in records:
                if record.op != OP_CREATE:
                    raise JournalCorruptError(
                        f"{self.snapshot_path}: non-CREATE record in snapshot"
                    )
                store.create(record.name, record.add, version=record.version)
            self._snapshot_bytes = len(data)
            self.recovered_sets = len(records)
        if self.journal_path.exists():
            data = self.journal_path.read_bytes()
            records, offset, error = read_records(data)
            self.tail_error = error
            for record in records:
                if record.op == OP_CREATE:
                    store.create(record.name, record.add,
                                 version=record.version)
                else:
                    try:
                        store.apply_diff(record.name, add=record.add,
                                         remove=record.remove)
                    except UnknownSetError:
                        # a diff with no preceding CREATE (writers journal
                        # before mutating and validate the target first,
                        # so only file surgery produces this) — skipping
                        # one record beats refusing the whole shard
                        self.skipped_records += 1
            self.recovered_records = len(records)
            if offset < len(data):
                self.truncated_bytes = len(data) - offset
                if truncate_tail:
                    with open(self.journal_path, "r+b") as fh:
                        fh.truncate(offset)
            self._journal_bytes = offset

    # -- writes ----------------------------------------------------------------
    def append(self, record: bytes) -> None:
        """Durably append one encoded record, with the enclosing
        :meth:`commit` if any (caller serializes)."""
        with self.commit():
            self._journal_file.write(record)
            self._journal_bytes += len(record)
            self._pending += 1

    def should_compact(self) -> bool:
        return compaction_due(self._journal_bytes, self._snapshot_bytes)

    def compact(self, entries) -> None:
        """Rewrite the snapshot from ``(name, values, version)`` entries
        and reset the journal.

        The snapshot lands via write-temp / fsync / ``os.replace``; only
        after it is durably installed is the journal truncated, so a
        crash at any point leaves a recoverable pair of files.
        """
        assert self._journal_file is not None, "recover() before compact()"
        self._snapshot_bytes = write_snapshot(
            self.directory, entries, epoch=self.epoch, dir_fsync=self.fsync
        )
        self._journal_file.truncate(0)
        self._journal_file.flush()
        self._journal_bytes = 0
        self.compactions += 1

    def close(self) -> None:
        if self._journal_file is not None:
            self._journal_file.flush()
            if self.fsync:
                os.fsync(self._journal_file.fileno())
            self._journal_file.close()
            self._journal_file = None

    # -- introspection ---------------------------------------------------------
    @property
    def journal_bytes(self) -> int:
        return self._journal_bytes

    @property
    def snapshot_bytes(self) -> int:
        return self._snapshot_bytes

    def stats(self) -> dict:
        return {
            "epoch": self.epoch,
            "journal_bytes": self._journal_bytes,
            "snapshot_bytes": self._snapshot_bytes,
            "records_appended": self.records_appended,
            "commits": self.commits,
            "compactions": self.compactions,
            "recovered_sets": self.recovered_sets,
            "recovered_records": self.recovered_records,
            "skipped_records": self.skipped_records,
            "truncated_bytes": self.truncated_bytes,
            "tail_error": self.tail_error,
        }


# -- offline helpers (rebalance / tooling) -------------------------------------

def write_snapshot(
    directory: str | Path, entries, epoch: int = 0, dir_fsync: bool = True
) -> int:
    """Atomically install ``(name, values, version)`` entries as the
    directory's snapshot for ``epoch``; returns the snapshot's byte size.

    The file itself is always fsync'd before the rename (a half-written
    snapshot must never become current); ``dir_fsync`` additionally
    fsyncs the directory entry, which the offline rebalance wants and a
    crash-only compaction may skip.  Shared by :meth:`JournalBackend.compact`
    and the rebalance staging pass.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / snapshot_filename(epoch)
    blob = b"".join(
        encode_create(name, values, version=version)
        for name, values, version in entries
    )
    tmp_path = path.with_name(path.name + ".tmp")
    with open(tmp_path, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp_path, path)
    if dir_fsync:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    return len(blob)


def replay_shard(
    directory: str | Path, epoch: int = 0
) -> tuple[SetStore, dict]:
    """Read-only offline replay of one shard directory at one epoch.

    Returns ``(store, stats)`` with the shard's recovered state and the
    recovery counters (``recovered_sets``, ``tail_error``, ...).  Truly
    read-only: nothing is modified or created — torn tails are skipped,
    not truncated, and a missing directory is an empty shard, not a
    mkdir — so a rebalance planning pass leaves the directory tree
    byte-identical.
    """
    storage = JournalBackend(directory, epoch=epoch, create=False)
    store = SetStore()
    storage.replay(store)
    return store, storage.stats()
