"""The sharded store: N shard workers behind one async facade.

:class:`ClusterStore` is the store every reconciliation server serves
from; plain ``repro serve`` runs a 1-shard memory cluster, and
``repro serve --shards N --data-dir DIR`` a sharded, durable one.  A
consistent-hash ring (:mod:`repro.cluster.ring`) maps every named set to
one of N *shard workers*.  Each is a :class:`~repro.cluster.worker.
ShardWorker`: it owns the shard's ``SetStore`` and its
:class:`~repro.cluster.storage.StorageBackend` (the append-only journal
or the WAL-mode SQLite store, chosen by ``ClusterConfig.storage``), and
applies mutations strictly in arrival order.  Followers of a replicated
shard are shard workers too.  The executor decides only where a worker
runs — :meth:`ClusterStore._open_worker` is the one place that asks:

* ``executor="inline"`` (default) — on the server's event loop, behind
  a direct-call :class:`~repro.cluster.worker.LocalHandle`.  Zero extra
  processes; decode CPU is bounded by one core.
* ``executor="subprocess"`` (``repro serve --workers proc``) — in a
  child process (:mod:`repro.cluster.proc`), behind a
  :class:`~repro.cluster.proc.WorkerHandle` speaking the service's frame
  format as an internal RPC.  The handle keeps a read *mirror* of a
  primary's ``SetStore`` (updated in ack order, so reads stay
  synchronous and versions stay bit-for-bit), BCH decode work is
  proxied to the owning child, and a worker that dies is respawned and
  replays its storage.  Decode CPU scales across cores; each worker
  batches decode work with its own coalescer.

Everything else — submit, ack, ship, quorum wait, start, close, stats —
is one code path over the handle's surface, and the cluster keeps its
three core properties under either executor:

* **Independent progress** — sessions for sets on different shards never
  contend on a store or a journal; only same-shard writes serialize.
  (Reads — snapshots, sizes — are direct synchronous calls against the
  handle's event-loop-consistent read view.)
* **Durable acks** — an ``apply_diff`` resolves only after the diff's
  journal record is on disk (appends commit in a thread pool, so shard
  journals commit in parallel while the event loop keeps serving) and,
  under quorum replication, after a majority of replicas has it.
* **Deterministic recovery** — ``start()`` replays snapshot-then-journal
  per shard; versions are re-derived by replay, so a recovered store is
  bit-for-bit the pre-crash store up to the last complete record.

The shard count is fixed for a store's lifetime: changing it is the
offline :func:`~repro.cluster.rebalance.rebalance` between a close and
the next start (``repro rebalance``, ``repro serve --rebalance``).

With the inline executor the server's cross-session
:class:`~repro.service.scheduler.DecodeCoalescer` sits *above* this
layer and batches decode work across all shards; in proc mode each
worker coalesces its own shard's sessions instead (see
:meth:`ClusterStore.decode_remote`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from pathlib import Path

from repro.cluster.config import ClusterConfig
from repro.cluster.manifest import (
    ClusterManifest,
    load_or_init,
    replica_dir,
    write_manifest,
)
from repro.cluster.proc import (
    WorkerHandle,
    WorkerUnavailableError,
    spawn_worker,
)
from repro.cluster.replication import (
    Follower,
    ReplicationError,
    ShardReplication,
    elect_replica,
    has_data,
    probe_replica,
    read_cursor,
)
from repro.cluster.ring import HashRing
from repro.cluster.worker import LocalHandle, ShardWorker
from repro.core.elements import element_array
from repro.errors import ReproError
from repro.obs.logs import get_logger
from repro.service.store import SetStore, Snapshot

__all__ = ["ClusterStore"]

log = get_logger("cluster")

#: Pause before respawning a dead worker (doubling, capped at 5 s, while
#: respawns keep failing).  Long enough that a crash-looping shard does
#: not busy-spin spawn+replay, short enough that a one-off kill heals
#: within a client retry backoff or two; also the RETRY hint for
#: sessions that hit a shard while its worker is down.
RESTART_BACKOFF_S = 0.25

#: Consecutive failed primary-worker respawns before the supervisor
#: fails a replicated shard over to its most-advanced follower.
PROMOTE_AFTER = 2


@dataclass
class _Shard:
    """One shard: its worker's handle, counters and replication."""

    shard_id: int
    #: a :class:`LocalHandle` (inline) or :class:`WorkerHandle`
    #: (subprocess); ``None`` until the first start
    worker: LocalHandle | WorkerHandle | None = None
    applies: int = 0
    creates: int = 0
    #: the shard's primary-side replication state: ship sequence,
    #: follower drivers, quorum accounting (None = replication off)
    repl: ShardReplication | None = None
    restarts: int = 0             #: successful respawns after worker death
    restart_error: str = ""       #: last failed respawn attempt (diagnosis)

    @property
    def store(self) -> SetStore:
        """The read view: the in-process worker's own store, or a
        child's mirror — a drained shard's last state after close."""
        return self.worker.store if self.worker is not None else SetStore()


class ClusterStore:
    """Sharded, journaled set store: what every server serves from.

    Mutations (:meth:`apply_diff`, :meth:`create`, and the create-missing
    path of :meth:`snapshot`) are coroutines — they resolve after the
    owning shard worker has applied *and journaled* the change.  Reads
    are plain synchronous methods, like ``SetStore``'s.

    ``config.executor`` picks where the shard workers run — ``"inline"``
    (on the event loop; default) or ``"subprocess"`` (one child process
    per worker: decode CPU scales across cores through
    :meth:`decode_remote`, and workers are respawned on death).  Both
    executors run the same worker and expose identical semantics and
    identical on-disk formats; a data dir written by one recovers under
    the other.  ``data_dir=None`` keeps every shard in memory.

    >>> # inside a coroutine:
    >>> # store = ClusterStore("data", ClusterConfig(
    >>> #     shards=4, executor="subprocess"))
    >>> # await store.start()
    >>> # await store.apply_diff("inv", add=[1, 2, 3])
    """

    def __init__(
        self,
        data_dir: str | Path | None = None,
        config: ClusterConfig | None = None,
    ) -> None:
        """``data_dir`` names *which* durable state the cluster owns;
        ``config`` says *how* it behaves (default: ``ClusterConfig()``).
        :func:`repro.cluster.config.open_cluster` is the same call."""
        config = config if config is not None else ClusterConfig()
        self.config = config
        self.ring = HashRing(range(config.shards))
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.executor = config.executor
        #: RETRY hint the server sends for sessions hitting a shard whose
        #: worker is down (a restart is usually one backoff away)
        self.unavailable_retry_after_s = RESTART_BACKOFF_S
        self._shards = [_Shard(shard_id=i) for i in range(config.shards)]
        #: the committed layout (set by :meth:`start` when journaling)
        self.manifest: ClusterManifest | None = None
        self._started = False
        self._closing = False
        self._close_done: asyncio.Event | None = None
        self._restart_tasks: set[asyncio.Task] = set()

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Recover every shard and open its worker.

        With a data dir, the directory's manifest is checked first: a
        shard/vnode count differing from the committed layout raises
        :class:`~repro.cluster.manifest.TopologyMismatchError` instead of
        silently remapping set names to shards that never journaled them
        (run ``repro rebalance`` to migrate), and shard directories
        without a manifest raise
        :class:`~repro.cluster.manifest.ManifestError`.  Shard storage
        opens at each shard's committed layout epoch.  A memory-only
        shard starts empty.
        """
        if self._started:
            return
        if self.config.replicas > 0 and self.data_dir is None:
            raise ReproError(
                "replication (replicas > 0) requires a data dir: "
                "followers replicate durable state, and a memory-only "
                "cluster has none"
            )
        if self.data_dir is not None:
            self.manifest = load_or_init(
                self.data_dir, len(self._shards), self.ring.vnodes,
                storage=self.config.storage,
            )
            if self.config.replicas > 0 or any(self.manifest.primary_replica):
                # blocking (probes every replica directory): off the loop
                await asyncio.get_running_loop().run_in_executor(
                    None, self._prepare_replication_sync
                )
        results = await asyncio.gather(
            *[
                self._open_worker(
                    shard.shard_id,
                    self._shard_dir(shard.shard_id),
                    self._shard_epoch(shard.shard_id),
                    self._on_worker_death,
                )
                for shard in self._shards
            ],
            return_exceptions=True,
        )
        failure = next(
            (r for r in results if isinstance(r, BaseException)), None
        )
        if failure is not None:
            # partial start (e.g. one corrupt shard): close the workers
            # that did come up so nothing outlives the error
            for result in results:
                if not isinstance(result, BaseException):
                    await result.close(graceful=False)
            raise failure
        for shard, handle in zip(self._shards, results):
            shard.worker = handle
        self._start_replication()
        self._started = True
        self._closing = False
        self._close_done = None
        # a worker child that came up and died while its siblings were
        # still spawning was ignored by the death callback: heal it now
        for shard in self._shards:
            if not shard.worker.alive:
                self._on_worker_death(shard.shard_id)

    async def close(self) -> None:
        """Drain every worker, flush and close the journals.

        Each worker applies its queued mutations and closes its storage
        first; worker children are then joined — escalating to
        terminate/kill only if one hangs — so no orphan processes or
        stray tmp files survive a graceful shutdown.

        Anything submitted after close() begins is rejected immediately
        (never silently stranded on an unserviced queue).  Idempotent
        and safe in any state: a second (even concurrent) close awaits
        the first instead of double-draining queues or double-closing
        journal handles, and a close before :meth:`start` is a no-op.
        A drained shard's last state stays readable.
        """
        if self._close_done is not None:
            await self._close_done.wait()
            return
        if not self._started:
            return
        self._close_done = asyncio.Event()
        self._closing = True
        try:
            await self._cancel_restarts()
            for shard in self._shards:
                await shard.worker.close()
            # after the primaries: their final acks have shipped by now,
            # so a graceful follower drain catches everything
            await self._stop_replication()
            self._started = False
        finally:
            self._close_done.set()

    async def _cancel_restarts(self) -> None:
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(*self._restart_tasks, return_exceptions=True)
            self._restart_tasks.clear()

    # -- replication -----------------------------------------------------------
    def _prepare_replication_sync(self) -> None:
        """Blocking startup pass (runs in an executor thread): reconcile
        the manifest's replication fields with the config, fail over any
        shard whose active replica directory is unreadable — or blank
        while a follower holds state (a replaced disk comes up empty,
        not corrupt) — and seed each shard's ship cursor above every
        durable cursor on disk, so stale follower cursors from an
        earlier run can never outrank a freshly bootstrapped follower
        at election time."""
        manifest = self.manifest
        changed = False
        # never shrink below a committed promotion target: a manifest
        # that says "shard 2's primary is follower-01" must stay valid
        # even if the operator restarts with --replicas 0
        replicas = max(self.config.replicas, max(manifest.primary_replica))
        if manifest.replicas != replicas:
            manifest.replicas = replicas
            changed = True
        for shard_id in range(manifest.shards):
            epoch = manifest.shard_epoch(shard_id)
            active = manifest.primary_replica[shard_id]
            active_dir = replica_dir(self.data_dir, shard_id, active)
            if self.config.replicas > 0 and (
                not probe_replica(active_dir, epoch, self.config.storage)
                or not has_data(active_dir, epoch, self.config.storage)
            ):
                # the election includes the active replica: if every
                # directory is blank (a brand-new cluster) it wins its
                # own tie and nothing changes, but damage or emptiness
                # loses to any follower with a durable cursor
                elected = elect_replica(
                    self.data_dir, shard_id, epoch, self.config.storage,
                    manifest.replicas,
                )
                if elected != active:
                    log.warning(
                        "startup failover: shard %d primary replica "
                        "%d -> %d", shard_id, active, elected,
                    )
                    manifest.primary_replica[shard_id] = elected
                    changed = True
            floor = manifest.cursors[shard_id]
            for replica in range(manifest.replicas + 1):
                floor = max(floor, read_cursor(
                    replica_dir(self.data_dir, shard_id, replica)
                ))
            if manifest.cursors[shard_id] != floor:
                manifest.cursors[shard_id] = floor
                changed = True
        if changed:
            write_manifest(self.data_dir, manifest)

    def _start_replication(self) -> None:
        """Build and start each shard's follower set (post worker start)."""
        if self.config.replicas < 1 or self.data_dir is None:
            return
        for shard in self._shards:
            self._open_shard_replication(shard)

    def _open_shard_replication(
        self, shard: _Shard, seq0: int | None = None, promotions: int = 0
    ) -> None:
        """Wire one shard's :class:`ShardReplication`: a follower driver
        per non-active replica directory, each applying through a shard
        worker opened by the same factory as the primary's."""
        active = self.manifest.primary_replica[shard.shard_id]
        repl = ShardReplication(
            shard_id=shard.shard_id,
            replicas=self.config.replicas,
            mode=self.config.replication,
            # attribute lookup at call time: the shard's worker (and so
            # its read view) is replaced on respawn, and bootstraps must
            # snapshot the current one
            entries_fn=lambda s=shard: s.store.items(),
            active_replica=active,
            seq0=(
                self.manifest.cursors[shard.shard_id]
                if seq0 is None else seq0
            ),
        )
        repl.promotions = promotions
        epoch = self._shard_epoch(shard.shard_id)
        repl.followers = [
            Follower(
                repl, replica,
                replica_dir(self.data_dir, shard.shard_id, replica),
                epoch, self.config.storage, self.config.fsync,
                self._open_worker,
            )
            for replica in range(self.config.replicas + 1)
            if replica != active
        ]
        shard.repl = repl
        repl.start()

    async def _stop_replication(self) -> None:
        """Stop every follower (draining live queues first) and persist
        the ship cursors in the manifest, so a restarted primary resumes
        numbering above everything it ever shipped."""
        changed = False
        for shard in self._shards:
            repl = shard.repl
            if repl is None:
                continue
            await repl.stop(graceful=True)
            if (
                self.manifest is not None
                and self.manifest.cursors[shard.shard_id] != repl.seq
            ):
                self.manifest.cursors[shard.shard_id] = repl.seq
                changed = True
        if changed and self.data_dir is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, write_manifest, self.data_dir, self.manifest,
            )

    async def _promote(self, shard: _Shard) -> bool:
        """Fail one shard over to its most-advanced readable follower.

        Stops the follower set (draining live queues — that maximizes
        the electable cursors), elects offline by durable cursor,
        commits by atomically rewriting ``manifest.primary_replica``
        (the *only* commit point a promotion has), respawns the worker
        on the promoted directory, and rebuilds the follower set — the
        demoted directory rejoins as a follower and is wiped on its
        first bootstrap.  Returns whether the shard came back up; on
        ``False`` the caller keeps retrying (a later pass may promote
        again among the survivors).
        """
        repl = shard.repl
        if repl is None or self.manifest is None or self.data_dir is None:
            return False
        shard.repl = None
        await repl.stop(graceful=True)
        epoch = self._shard_epoch(shard.shard_id)
        old_active = self.manifest.primary_replica[shard.shard_id]
        loop = asyncio.get_running_loop()
        try:
            elected = await loop.run_in_executor(
                None, elect_replica, self.data_dir, shard.shard_id,
                epoch, self.config.storage, self.manifest.replicas,
                frozenset({old_active}),
            )
        except ReplicationError as exc:
            shard.restart_error = f"{type(exc).__name__}: {exc}"
            self._open_shard_replication(
                shard, seq0=repl.seq, promotions=repl.promotions
            )
            return False
        self.manifest.primary_replica[shard.shard_id] = elected
        self.manifest.cursors[shard.shard_id] = repl.seq
        await loop.run_in_executor(
            None, write_manifest, self.data_dir, self.manifest,
        )
        log.warning(
            "promoted shard %d: primary replica %d -> %d (seq %d)",
            shard.shard_id, old_active, elected, repl.seq,
        )
        try:
            handle = await self._open_worker(
                shard.shard_id,
                self._shard_dir(shard.shard_id),
                epoch,
                self._on_worker_death,
            )
        except Exception as exc:
            shard.restart_error = f"{type(exc).__name__}: {exc}"
            self._open_shard_replication(
                shard, seq0=repl.seq, promotions=repl.promotions + 1
            )
            return False
        shard.worker = handle
        shard.restarts += 1
        shard.restart_error = ""
        self._open_shard_replication(
            shard, seq0=repl.seq, promotions=repl.promotions + 1
        )
        return True

    # -- workers -----------------------------------------------------------------
    def _shard_dir(self, shard_id: int) -> Path | None:
        if self.data_dir is None:
            return None
        replica = (
            self.manifest.primary_replica[shard_id]
            if self.manifest is not None
            else 0
        )
        return replica_dir(self.data_dir, shard_id, replica)

    def _shard_epoch(self, shard_id: int) -> int:
        return (
            self.manifest.shard_epoch(shard_id)
            if self.manifest is not None
            else 0
        )

    async def _open_worker(self, shard_id: int, directory, epoch: int,
                           on_death=None, role: str = ""):
        """The worker factory: every primary and follower opens here.

        Inline, a :class:`ShardWorker` on this event loop behind a
        :class:`LocalHandle`; under the subprocess executor, a worker
        child behind a :class:`WorkerHandle` (``on_death`` fires if the
        child dies; ``role`` tags follower children)."""
        if self.executor == "inline":
            return LocalHandle(ShardWorker(
                self.config.storage, directory, epoch, self.config.fsync
            ))
        return await spawn_worker(
            shard_id, directory, epoch, on_death,
            storage=self.config.storage, fsync=self.config.fsync,
            window_s=self.config.worker_window_s, role=role,
        )

    def _on_worker_death(self, shard_id: int) -> None:
        """Reader-task callback: a worker died unexpectedly — heal it.

        A store that has not started, or is closing, lets deaths lie:
        :meth:`start` heals a worker that died while its siblings were
        still spawning once every handle is installed.
        """
        if self._closing or not self._started:
            return
        shard = self._shards[shard_id]
        task = asyncio.create_task(
            self._restart_worker(shard), name=f"shard-{shard_id}-restart"
        )
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart_worker(self, shard: _Shard) -> None:
        """Respawn a dead worker after a backoff; the child replays its
        journal and the mirror is rebuilt from the replayed state (which
        may include journaled-but-unacked mutations from the crash — the
        standard at-least-once WAL outcome).  With replication on, a
        worker that stays down past :data:`PROMOTE_AFTER` consecutive
        failed respawns (its directory is gone, not just its process) is
        failed over to the most-advanced follower via :meth:`_promote`."""
        backoff = RESTART_BACKOFF_S
        failures = 0
        while True:
            await asyncio.sleep(backoff)
            if self._closing or shard.worker.alive:
                return
            # reap the condemned handle before its successor opens the
            # same journal: close() terminates the old child if it is
            # somehow still running (a parent-side reader failure, not a
            # real death — two live children must never append to one
            # journal) and releases its socket and process object
            await shard.worker.close(graceful=False)
            try:
                handle = await self._open_worker(
                    shard.shard_id,
                    self._shard_dir(shard.shard_id),
                    self._shard_epoch(shard.shard_id),
                    self._on_worker_death,
                )
            except Exception as exc:
                # keep trying, but leave the why in cluster_stats — a
                # shard that can never come back (unreplayable journal,
                # spawn failures) must be diagnosable while it sheds
                shard.restart_error = f"{type(exc).__name__}: {exc}"
                backoff = min(backoff * 2, 5.0)
                failures += 1
                if (
                    shard.repl is not None
                    and failures >= PROMOTE_AFTER
                ):
                    if await self._promote(shard):
                        return
                    # promotion did not bring the shard up (no electable
                    # replica, or the promoted spawn failed too); reset
                    # the budget so a later pass may promote again
                    failures = 0
                continue
            if (
                shard.repl is not None
                and shard.repl.seq > 0
                and not handle.store.names()
                and any(f.acked_seq > 0 for f in shard.repl.followers)
            ):
                # The respawned child recovered *nothing* while a
                # follower holds shipped state: the primary's files were
                # lost outright (a wiped directory or a fully-torn
                # journal recovers empty rather than corrupt, so the
                # spawn "succeeds").  Resyncing followers from this
                # empty mirror would destroy acked data — fail over to
                # the most-advanced follower instead.
                await handle.close(graceful=False)
                shard.restart_error = "respawn recovered empty behind followers"
                if await self._promote(shard):
                    return
                failures = 0
                continue
            shard.worker = handle
            shard.restarts += 1
            shard.restart_error = ""
            if shard.repl is not None:
                # the replayed journal may contain a mutation that was
                # never acked — so never shipped; the rebuilt mirror is
                # ahead of the ship stream and every follower must
                # resync from a fresh snapshot
                for follower in shard.repl.followers:
                    follower.mark_dead("primary restarted; resyncing")
            return

    def shard_available(self, shard_id: int) -> bool:
        """Is the shard's worker able to take new sessions right now?

        False while the shard's worker child is dead or restarting (the
        server sheds new sessions for it with RETRY instead of queueing
        against a corpse); an in-process worker never dies.
        """
        if not self._started:
            return True
        return self._shards[shard_id].worker.alive

    async def __aenter__(self) -> "ClusterStore":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- routing ---------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    def shard_for(self, name: str) -> int:
        """Which shard owns ``name`` (the server's routing hook)."""
        return self.ring.lookup(name)

    def _shard(self, name: str) -> _Shard:
        return self._shards[self.ring.lookup(name)]

    # -- mutations (through the shard worker) ----------------------------------
    async def apply_diff(self, name: str, add=(), remove=(),
                         trace=None) -> int:
        """Merge a completed session's diff; durable before it resolves.

        ``trace`` (the session's span context, if any) parents the
        storage-commit span — across the RPC boundary in proc mode, so
        the commit appears inside the session's trace tree even though
        it runs in the worker child.
        """
        return await self._submit(
            self._shard(name), "apply",
            (name, element_array(add), element_array(remove)), trace,
        )

    async def create(self, name: str, values=(), trace=None) -> None:
        """Create (or replace) a named set, journaled as full state."""
        await self._submit(
            self._shard(name), "create", (name, element_array(values), 0),
            trace,
        )

    async def snapshot(self, name: str, create_missing: bool = False) -> Snapshot:
        """Freeze one set for a session (creating it, durably, if asked)."""
        shard = self._shard(name)
        if create_missing and name not in shard.store:
            await self._submit(shard, "create", (name, (), 0))
        return shard.store.snapshot(name)

    async def _submit(self, shard: _Shard, op: str, args: tuple,
                      trace=None):
        """The one mutation path: hand ``op`` to the shard's worker.

        ``op`` is a :func:`~repro.cluster.storage.apply_mutation` op
        (public creates carry version 0).  The handle runs the ack
        callback in the event-loop step in which the mutation becomes
        visible in the shard's read view; it counts the mutation and
        ships it to the followers, so the ship stream and
        ``bootstrap_source()`` stay consistent.  The quorum wait then
        runs here, in the submitting coroutine — the shard's worker
        keeps applying other mutations meanwhile.
        """
        if not self._started:
            raise ReproError("ClusterStore.start() before use")
        if self._closing:
            raise ReproError("ClusterStore is closing")
        worker = shard.worker
        if not worker.alive:
            raise WorkerUnavailableError(
                f"shard {shard.shard_id} worker is down (restarting)"
            )
        # capture the repl for the whole call: ship and quorum wait must
        # hit the same object even if a promotion swaps shard.repl
        repl = shard.repl
        shipped: list[int] = []

        def on_ack() -> None:
            if op == "apply":
                shard.applies += 1
            elif op == "create":
                shard.creates += 1
            # ship exactly what was persisted: empty diffs were not
            if repl is not None and (
                op != "apply" or len(args[1]) or len(args[2])
            ):
                shipped.append(repl.ship(op, args))

        result = await worker.submit(op, args, trace, on_ack)
        if shipped:
            # quorum mode blocks here until a majority of replicas is
            # durable; async mode returns at once
            await repl.wait_durable(shipped[0])
        return result

    async def decode_remote(
        self, shard_id: int, codec, deltas, trace=None, lone: bool = False
    ):
        """Decode sketch deltas on the shard's worker process (proc mode).

        The server routes each session's BCH decode work here instead of
        its own in-process coalescer, so decode CPU runs on the worker's
        core; the worker's own :class:`DecodeCoalescer` still merges
        submissions from concurrent sessions of that shard into shared
        ``decode_many`` batches.  ``lone`` is forwarded to that
        coalescer: the caller's session is the only open one on this
        shard, so no batch could form.  Returns the same ``(decoded, seconds)``
        contract as :meth:`DecodeCoalescer.decode`.  Raises
        :class:`~repro.cluster.proc.WorkerUnavailableError` while the
        worker is dead — the session fails and the client retries.
        """
        if self.executor != "subprocess":
            raise ReproError("decode_remote requires the subprocess executor")
        worker = self._shards[shard_id].worker
        if not worker.alive:
            raise WorkerUnavailableError(
                f"shard {shard_id} worker is down (restarting)"
            )
        trace_t = tuple(trace) if trace is not None else None
        return await worker.decode(
            codec.field.m, codec.t, deltas, trace_t, lone
        )

    # -- reads (synchronous, event-loop consistent) ----------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._shard(name).store

    def names(self) -> list[str]:
        out: list[str] = []
        for shard in self._shards:
            out.extend(shard.store.names())
        return sorted(out)

    def get(self, name: str) -> set[int]:
        return self._shard(name).store.get(name)

    def size(self, name: str) -> int:
        return self._shard(name).store.size(name)

    def version(self, name: str) -> int:
        return self._shard(name).store.version(name)

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict:
        """Per-set summary (the ``SetStore.stats`` shape, plus the shard)."""
        out: dict = {}
        for shard in self._shards:
            for name, entry in shard.store.stats().items():
                entry["shard"] = shard.shard_id
                out[name] = entry
        return dict(sorted(out.items()))

    def cluster_stats(self) -> dict:
        """Shard-level summary for metrics: load, queues, journal health.

        In proc mode each shard entry additionally carries a ``worker``
        block (pid, liveness, restart count — how crash recovery
        surfaces in metrics) and, once decode work has flowed, the
        worker-local ``coalescer`` counters; journal stats come from the
        child's last acknowledgement or compaction.
        """
        out = {
            "shards": self.n_shards,
            "executor": self.executor,
            "layout": (
                self.manifest.to_dict() if self.manifest is not None else None
            ),
            "worker_restarts": sum(s.restarts for s in self._shards),
            "per_shard": [self._shard_stats(shard) for shard in self._shards],
        }
        repls = [s.repl for s in self._shards if s.repl is not None]
        if repls:
            out["replication"] = {
                "replicas": self.config.replicas,
                "mode": self.config.replication,
                "promotions": sum(r.promotions for r in repls),
                "quorum_ok": all(r.quorum_ok() for r in repls),
            }
        return out

    def _shard_stats(self, shard: _Shard) -> dict:
        # the per-set summary, not size() per name: a SQLite shard
        # answers it from the database without loading any set
        sets = shard.store.stats()
        entry = {
            "shard": shard.shard_id,
            "sets": len(sets),
            "elements": sum(s["size"] for s in sets.values()),
            "applies": shard.applies,
            "creates": shard.creates,
            "compact_error": "",
            "queue_depth": 0,
        }
        if shard.worker is not None:
            # storage counters (a child's as of its latest ack or
            # compaction), plus a child's worker block and coalescer/obs
            # riders
            entry.update(shard.worker.stats())
        if "worker" in entry:
            entry["worker"].update(
                restarts=shard.restarts, restart_error=shard.restart_error
            )
        if shard.repl is not None:
            entry["replication"] = shard.repl.stats()
        return entry
