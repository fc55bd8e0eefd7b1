"""Shard replication: log shipping, quorum acks, follower promotion.

Journals are per-shard and local, so before this module a dead disk
lost the shard outright — crash recovery (PR 3) only ever survived the
*process* dying.  Replication closes that hole by keeping ``R`` extra
copies of every shard's durable state in follower replica directories
(``shard-NN/follower-KK``, see :func:`repro.cluster.manifest.replica_dir`)
and streaming every acknowledged mutation to them in ack order.

The design in one paragraph
---------------------------

The primary ships **logical operations** — the same ``(op, args)``
tuples that :func:`repro.cluster.storage.apply_mutation` consumes — so
each follower produces backend-native durable records (journal appends /
SQLite transactions) for its own copy, and the two storage backends
replicate identically.  A follower that (re)starts never trusts its
local files: it is wiped (:meth:`StorageBackend.discard`) and
re-bootstrapped from an atomically-staged snapshot of the primary's
live state (:meth:`StorageBackend.stage`), which makes restart-in-any-
order safe — stale state is never double-applied on top of.  Progress
is tracked by a per-replica durable cursor file written *after* the op
is durable and *before* the op is counted as acknowledged, so a
replica's cursor never overstates what its files contain.

Durability modes
----------------

* ``async`` (default): the client ack only waits for the primary's own
  durable write, exactly as before; shipping is fire-and-forget.  A
  dead primary *disk* may lose the un-shipped tail.
* ``quorum``: the ack additionally waits until a strict majority of
  the ``R + 1`` replicas — :func:`quorum_size` — is durable (the
  primary counts as one).  A quorum-acknowledged mutation survives the
  loss of any minority of replicas, including the primary's disk: the
  election (:func:`elect_replica`) picks the replica with the highest
  durable cursor, and every quorum-acked op is at or below the cursor
  of at least ``quorum - 1`` follower replicas.

Failover
--------

Two promotion paths share the election:

* **startup** — if the manifest's active replica directory is
  unreadable (:class:`StorageCorruptError`), ``ClusterStore.start()``
  elects among the survivors and commits the winner by atomically
  rewriting ``manifest.primary_replica`` (the *only* commit point);
* **online** (subprocess executor) — when a primary worker stays down
  past its respawn budget (``promote_after`` consecutive failed
  respawns), the supervisor path in :mod:`repro.cluster.router` stops
  the followers, elects, commits the manifest, and respawns the worker
  on the promoted directory; the demoted directories rejoin as
  followers and re-bootstrap.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path

from repro.cluster.manifest import replica_dir
from repro.cluster.storage import backend_class, open_backend
from repro.errors import ReproError
from repro.obs.logs import get_logger

log = get_logger("replication")

#: How long a quorum-mode ack waits for follower durability before the
#: session is failed (the mutation *is* durable on the primary — the
#: client retries, at-least-once, like every other shed path).
QUORUM_TIMEOUT_S = 30.0

#: First retry delay after a follower bootstrap/apply failure; doubles
#: up to the cap, mirroring the worker respawn backoff.
FOLLOWER_BACKOFF_S = 0.25
FOLLOWER_BACKOFF_CAP_S = 5.0

#: The durable cursor file inside a replica directory.  Deliberately
#: outside every backend's ``FILE_PREFIXES`` so a wipe-and-bootstrap
#: (or the rebalance sweep) never deletes the replica's own data files
#: by way of its cursor.
CURSOR_NAME = "repl-cursor.json"


class ReplicationError(ReproError):
    """A replication-layer failure (quorum loss, no electable replica)."""


class QuorumTimeoutError(ReplicationError):
    """Follower durability did not reach quorum within the timeout.

    The mutation is durable on the primary but NOT quorum-acknowledged;
    the session errors out so the client retries."""


def quorum_size(total_replicas: int) -> int:
    """Strict majority of ``total_replicas`` (primary + followers).

    ``⌈(R + 1) / 2⌉``: 1 of 1, 2 of 2, 2 of 3, 3 of 4, 3 of 5 — the
    DLS-style majority so any two quorums intersect."""
    return total_replicas // 2 + 1


# -- durable replica cursors ---------------------------------------------------

def read_cursor(directory: str | Path) -> int:
    """The replica's durable cursor, or ``-1`` when none was written."""
    path = Path(directory) / CURSOR_NAME
    try:
        return int(json.loads(path.read_text())["seq"])
    except (OSError, ValueError, KeyError, TypeError):
        return -1


def write_cursor(directory: str | Path, seq: int,
                 fsync: bool = False) -> None:
    """Atomically persist the replica cursor (write-temp / replace).

    Ordering contract: called only after the op at ``seq`` is durable
    in the replica's backend, and the op is only *acknowledged* (and
    counted toward a quorum) after this returns — so a cursor can
    understate a replica's contents but never overstate them, which is
    what makes electing by cursor safe."""
    directory = Path(directory)
    path = directory / CURSOR_NAME
    tmp = directory / (CURSOR_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"seq": seq}, fh)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    os.replace(tmp, path)


# -- election ------------------------------------------------------------------

def has_data(directory: str | Path, epoch: int, storage: str) -> bool:
    """Whether a replica directory holds any of its backend's data files
    at ``epoch`` (an empty directory is *readable* but carries nothing —
    startup treats an empty active replica as failed when a follower has
    state, since a replaced disk comes up blank, not corrupt)."""
    cls = backend_class(storage)
    directory = Path(directory)
    return any(
        (directory / fn).exists() for fn in cls.data_filenames(epoch)
    )


def probe_replica(directory: str | Path, epoch: int, storage: str) -> bool:
    """Whether a replica directory's committed state is fully readable.

    A directory with no data files is readable-empty (a follower that
    never bootstrapped); damage anywhere in the committed state makes
    it ineligible."""
    if not has_data(directory, epoch, storage):
        return True
    try:
        backend = open_backend(storage, directory, epoch=epoch, create=False)
        try:
            for _ in backend.iter_sets():
                pass
        finally:
            backend.close()
    except Exception:
        return False
    return True


def elect_replica(
    data_dir: str | Path, shard: int, epoch: int, storage: str,
    replicas: int, exclude: frozenset | set = frozenset(),
) -> int:
    """The most-advanced *readable* replica of one shard.

    Candidates are every replica index ``0..replicas`` not in
    ``exclude`` (promotion excludes the failed active replica);
    advancement is the durable cursor file, ties break toward the
    lowest index for determinism.  Blocking — callers on the event
    loop run it in an executor.  Raises :class:`ReplicationError` when
    no candidate is readable."""
    best, best_cursor = None, None
    for replica in range(replicas + 1):
        if replica in exclude:
            continue
        directory = replica_dir(data_dir, shard, replica)
        if not probe_replica(directory, epoch, storage):
            continue
        cursor = read_cursor(directory)
        if best is None or cursor > best_cursor:
            best, best_cursor = replica, cursor
    if best is None:
        raise ReplicationError(
            f"shard {shard}: no readable replica to promote "
            f"(candidates 0..{replicas}, excluded {sorted(exclude)})"
        )
    return best


# -- the follower applier ------------------------------------------------------

class FollowerApplier:
    """A follower replica's shard worker, opened through the cluster's
    worker factory exactly like the shard's primary — in-process under
    the inline executor, a worker child under the subprocess executor —
    so followers apply shipped ops through the one durable-first loop
    and compact like any shard.

    The router sets ``open_worker``: a coroutine function returning
    the handle of a worker on ``directory`` (whose death, if it is a
    child, wakes the follower driver).
    """

    def __init__(self, directory: Path, epoch: int, storage: str,
                 fsync: bool) -> None:
        self.directory = Path(directory)
        self.epoch = epoch
        self.storage_name = storage
        self.fsync = fsync
        self.open_worker = None
        self.handle = None

    async def restart(self, entries) -> None:
        """Wipe, stage ``entries`` as the new base state, reopen.

        The wipe and stage are pure file I/O and run off the loop; the
        worker opens its backend where every worker does."""
        await self.close(graceful=False)
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._stage_sync, entries)
        self.handle = await self.open_worker()

    def _stage_sync(self, entries) -> None:
        cls = backend_class(self.storage_name)
        self.directory.mkdir(parents=True, exist_ok=True)
        cls.discard(self.directory)
        # the old cursor goes with the old state: a crash between the
        # stage and the fresh cursor write must read as "never
        # bootstrapped" (-1), not as the stale cursor overstating the
        # now-empty directory
        (self.directory / CURSOR_NAME).unlink(missing_ok=True)
        cls.stage(self.directory, entries, epoch=self.epoch,
                  fsync=self.fsync)

    async def apply(self, op: str, args: tuple) -> None:
        await self.handle.submit(op, args)

    async def close(self, graceful: bool = True) -> None:
        handle, self.handle = self.handle, None
        if handle is not None:
            await handle.close(graceful=graceful)


# -- the follower driver -------------------------------------------------------

class Follower:
    """One follower replica: an ordered ship queue and the driver task
    that bootstraps, applies, and advances the durable cursor.

    Lifecycle: constructed dead (``alive=False``); the driver's first
    act is a snapshot bootstrap.  Any failure — bootstrap, apply, or
    the worker process dying — marks it dead again, and the driver
    retries the wipe-and-bootstrap with exponential backoff.  The
    driver hands every op queued for it to the worker at once, so they
    commit as one batch, and writes the cursor once per batch.  Its ack
    ordering (durable apply of the whole batch, then durable cursor,
    then count the ack) is what :func:`elect_replica` relies on."""

    def __init__(self, repl: "ShardReplication", replica: int,
                 directory: Path, applier) -> None:
        self._repl = repl
        self.replica = replica
        self.directory = Path(directory)
        self.applier = applier
        self.queue: asyncio.Queue = asyncio.Queue()
        self.task: asyncio.Task | None = None
        self.alive = False
        self.acked_seq = -1
        self.bootstraps = 0
        self.last_error = ""
        self._stopping = False
        self._stop_event = asyncio.Event()
        #: death-notice generation: bumped by every mark_dead so a
        #: bootstrap that was already in flight when the notice arrived
        #: is discarded and redone (its snapshot may predate the event
        #: that made the resync necessary)
        self._gen = 0

    def start(self) -> None:
        self.task = asyncio.ensure_future(self._run())

    def enqueue(self, op: str, args: tuple, seq: int) -> None:
        if self._stopping:
            return
        self.queue.put_nowait(("op", op, args, seq))

    def mark_dead(self, error: str) -> None:
        """Out-of-band death or resync notice — the follower worker
        process exited, or the primary's state was rebuilt behind the
        ship stream (a respawned worker's journal replay can surface a
        mutation the stream never carried).  Forces a wipe-and-
        re-bootstrap even if one is already in flight."""
        if self._stopping:
            return
        self._gen += 1
        self.alive = False
        self.last_error = error
        self.queue.put_nowait(("wake", None, None, -1))

    async def stop(self, graceful: bool = True) -> None:
        """Drain queued ops (when alive and ``graceful``) and shut the
        applier down.  A dead follower exits without draining — it
        would re-bootstrap on next start anyway."""
        if self._stopping:
            return
        self._stopping = True
        self._stop_event.set()
        self.queue.put_nowait(("stop", None, None, -1))
        if self.task is not None:
            await self.task
            self.task = None
        await self.applier.close(graceful=graceful and self.alive)
        self.alive = False

    async def _run(self) -> None:
        delay = 0.0
        while True:
            if not self.alive:
                if self._stopping:
                    return
                if delay:
                    try:
                        await asyncio.wait_for(
                            self._stop_event.wait(), delay
                        )
                    except asyncio.TimeoutError:
                        pass
                    if self._stopping:
                        return
                gen = self._gen
                entries, seq = self._repl.bootstrap_source()
                try:
                    await self.applier.restart(entries)
                    await self._write_cursor(seq)
                except Exception as exc:
                    if self._stopping:
                        return
                    self.last_error = f"{type(exc).__name__}: {exc}"
                    delay = min(
                        max(delay * 2, self._repl.backoff_s),
                        FOLLOWER_BACKOFF_CAP_S,
                    )
                    continue
                if self._gen != gen:
                    # a death notice raced the bootstrap: its snapshot
                    # may predate the notice's cause — redo immediately
                    delay = 0.0
                    continue
                self.acked_seq = seq
                self.alive = True
                self.bootstraps += 1
                self.last_error = ""
                delay = 0.0
                self._repl._on_ack()
                continue
            items = [await self.queue.get()]
            while not self.queue.empty():
                items.append(self.queue.get_nowait())
            # a re-shipped prefix after a bootstrap is skipped; a wake
            # left this follower dead, and the bootstrap it now runs
            # covers every op already queued
            ops = [
                (op, args, seq) for kind, op, args, seq in items
                if kind == "op" and seq > self.acked_seq
            ]
            if ops and self.alive:
                seq = ops[-1][2]
                try:
                    # every op at once, so the worker commits them as
                    # one batch; durable apply first, durable cursor
                    # second, ack third — the cursor must never
                    # overstate the replica's applied prefix
                    await asyncio.gather(*[
                        self.applier.apply(op, args) for op, args, _ in ops
                    ])
                    await self._write_cursor(seq)
                except Exception as exc:
                    if self._stopping:
                        return
                    self.alive = False
                    self.last_error = f"{type(exc).__name__}: {exc}"
                    delay = self._repl.backoff_s
                    log.warning(
                        "follower apply failed; re-bootstrapping",
                        extra={
                            "shard": self._repl.shard_id,
                            "replica": self.replica,
                            "error": self.last_error,
                        },
                    )
                else:
                    self.acked_seq = seq
                    self._repl._on_ack()
            if items[-1][0] == "stop":
                return

    async def _write_cursor(self, seq: int) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, write_cursor, self.directory, seq, self.applier.fsync
        )

    def stats(self) -> dict:
        return {
            "replica": self.replica,
            "alive": self.alive,
            "acked_seq": self.acked_seq,
            "lag": max(0, self._repl.seq - self.acked_seq),
            "bootstraps": self.bootstraps,
            "last_error": self.last_error,
        }


# -- per-shard replication state ----------------------------------------------

class ShardReplication:
    """The primary side of one shard's replication: the shipped-op
    sequence, the follower set, and quorum accounting.

    ``ship()`` must be called in ack order, in the event-loop step in
    which the mutation becomes visible in the primary's read view (no
    ``await`` in between) — the router does it in its one ack callback,
    which a worker handle runs right as its read view changes: the
    in-process worker's own store after :func:`~repro.cluster.storage.
    apply_mutation` returns, or a child's mirror in the RPC reader.
    That makes ``bootstrap_source()`` — which captures ``(entries_fn(),
    seq)`` in one event-loop step — a consistent snapshot by
    construction.
    """

    def __init__(
        self, shard_id: int, replicas: int, mode: str,
        entries_fn, active_replica: int = 0, seq0: int = 0,
        backoff_s: float = FOLLOWER_BACKOFF_S,
        quorum_timeout_s: float = QUORUM_TIMEOUT_S,
    ) -> None:
        self.shard_id = shard_id
        self.replicas = replicas
        self.mode = mode
        self.entries_fn = entries_fn
        self.active_replica = active_replica
        self.seq = seq0
        self.backoff_s = backoff_s
        self.quorum_timeout_s = quorum_timeout_s
        self.quorum = (
            quorum_size(replicas + 1) if mode == "quorum" else 1
        )
        self.promotions = 0
        self.followers: list[Follower] = []
        self._waiters: list = []

    # -- wiring ---------------------------------------------------------------
    def add_follower(self, replica: int, directory: Path,
                     applier) -> Follower:
        follower = Follower(self, replica, directory, applier)
        self.followers.append(follower)
        return follower

    def start(self) -> None:
        for follower in self.followers:
            follower.start()

    async def stop(self, graceful: bool = True) -> None:
        for follower in self.followers:
            await follower.stop(graceful=graceful)
        self.followers = []
        self._fail_waiters("replication stopped")

    def bootstrap_source(self):
        """``(entries, seq)`` captured in one event-loop step — see the
        class docstring for why this is ship-consistent."""
        return self.entries_fn(), self.seq

    # -- the ship / ack path --------------------------------------------------
    def ship(self, op: str, args: tuple) -> int:
        """Enqueue one primary-durable op to every follower; returns
        its sequence number for :meth:`wait_durable`."""
        self.seq += 1
        for follower in self.followers:
            follower.enqueue(op, args, self.seq)
        return self.seq

    def durable_seq(self) -> int:
        """The highest sequence number that is durable on a quorum."""
        need = self.quorum - 1
        if need <= 0:
            return self.seq
        acks = sorted(
            (f.acked_seq for f in self.followers), reverse=True
        )
        if len(acks) < need:
            return -1
        return acks[need - 1]

    async def wait_durable(self, seq: int) -> None:
        """Block until ``seq`` is quorum-durable (no-op in async mode).

        Raises :class:`QuorumTimeoutError` after ``quorum_timeout_s``:
        the op stays durable on the primary, but the session is failed
        rather than acknowledged below quorum."""
        if self.durable_seq() >= seq:
            return
        fut = asyncio.get_running_loop().create_future()
        self._waiters.append((seq, fut))
        try:
            await asyncio.wait_for(fut, self.quorum_timeout_s)
        except asyncio.TimeoutError:
            raise QuorumTimeoutError(
                f"shard {self.shard_id}: seq {seq} not durable on "
                f"{self.quorum} of {self.replicas + 1} replicas within "
                f"{self.quorum_timeout_s:.0f}s "
                f"({sum(f.alive for f in self.followers)} followers live)"
            ) from None
        finally:
            self._waiters = [
                (s, f) for (s, f) in self._waiters if not f.done()
            ]

    def _on_ack(self) -> None:
        durable = self.durable_seq()
        pending = []
        for seq, fut in self._waiters:
            if seq <= durable and not fut.done():
                fut.set_result(None)
            elif not fut.done():
                pending.append((seq, fut))
        self._waiters = pending

    def _fail_waiters(self, reason: str) -> None:
        for _seq, fut in self._waiters:
            if not fut.done():
                fut.set_exception(ReplicationError(reason))
        self._waiters = []

    # -- introspection --------------------------------------------------------
    def quorum_ok(self) -> bool:
        """Whether an ack could currently reach quorum (primary plus
        live followers).  Always true in async mode."""
        if self.mode != "quorum":
            return True
        return 1 + sum(f.alive for f in self.followers) >= self.quorum

    def stats(self) -> dict:
        return {
            "replicas": self.replicas,
            "mode": self.mode,
            "quorum": self.quorum,
            "active_replica": self.active_replica,
            "seq": self.seq,
            "durable_seq": min(self.durable_seq(), self.seq),
            "quorum_ok": self.quorum_ok(),
            "promotions": self.promotions,
            "followers": [f.stats() for f in self.followers],
        }
