"""The sharded store: N shard workers behind one async facade.

:class:`ClusterStore` is the store every reconciliation server serves
from; plain ``repro serve`` runs a 1-shard memory cluster, and
``repro serve --shards N --data-dir DIR`` a sharded, durable one.  A
consistent-hash ring (:mod:`repro.cluster.ring`) maps every named set to
one of N *shard workers*; each worker owns its own ``SetStore`` and its own
:class:`~repro.cluster.storage.StorageBackend` (the append-only journal
or the WAL-mode SQLite store, chosen by ``ClusterConfig.storage``), and
applies mutations strictly in arrival order.  Two executors decide what
a "worker" physically is:

* ``executor="inline"`` (default) — one asyncio task per shard on the
  server's event loop, fed through a per-shard queue.  Zero extra
  processes; decode CPU is bounded by one core.
* ``executor="subprocess"`` (``repro serve --workers proc``) — one child
  process per shard (:mod:`repro.cluster.proc`), driven over a loopback
  socket speaking the service's frame format as an internal RPC.  The
  parent keeps a read *mirror* of each shard's ``SetStore`` (updated in
  ack order, so reads stay synchronous and versions stay bit-for-bit),
  proxies mutations and BCH decode work to the owning child, and
  respawns-and-replays a worker that dies.  Decode CPU scales across
  cores; each worker batches decode work with its own coalescer.

Either way the cluster keeps its three core properties:

* **Independent progress** — sessions for sets on different shards never
  contend on a store or a journal; only same-shard writes serialize.
  (Reads — snapshots, sizes — are direct synchronous calls against
  event-loop-consistent state: the inline worker's store, or the proc
  executor's mirror.)
* **Durable acks** — an ``apply_diff`` resolves only after the diff's
  journal record is on disk (via the thread-pool executor inline, via
  the child's journal-first apply loop in proc mode), so shard journals
  commit in parallel while the event loop keeps serving.
* **Deterministic recovery** — ``start()`` replays snapshot-then-journal
  per shard; versions are re-derived by replay, so a recovered store is
  bit-for-bit the pre-crash store up to the last complete record.

With the inline executor the server's cross-session
:class:`~repro.service.scheduler.DecodeCoalescer` sits *above* this
layer and batches decode work across all shards; in proc mode each
worker coalesces its own shard's sessions instead (see
:meth:`ClusterStore.decode_remote`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster.config import EXECUTORS, ClusterConfig
from repro.cluster.manifest import (
    ClusterManifest,
    load_or_init,
    replica_dir,
    write_manifest,
)
from repro.cluster.proc import (
    RpcType,
    WorkerHandle,
    WorkerSupervisor,
    WorkerUnavailableError,
)
from repro.cluster.rebalance import RebalanceResult, rebalance
from repro.cluster.replication import (
    InlineApplier,
    ProcApplier,
    ReplicationError,
    ShardReplication,
    elect_replica,
    has_data,
    probe_replica,
    read_cursor,
)
from repro.cluster.ring import HashRing
from repro.cluster.storage import (
    StorageBackend,
    apply_mutation,
    compact_if_due,
    open_backend,
)
from repro.core.elements import element_array
from repro.errors import ReproError
from repro.obs.logs import get_logger
from repro.service.store import SetStore, Snapshot

__all__ = ["EXECUTORS", "ClusterStore"]

log = get_logger("cluster")


@dataclass
class _Shard:
    """One worker's world: a store, optional durability, and a mailbox.

    Inline executor: ``store`` is the shard's authoritative ``SetStore``
    and ``task``/``queue`` drive it.  Subprocess executor: ``store`` is
    the parent's read mirror, ``worker`` is the RPC handle to the child
    that owns the authoritative state and journal.
    """

    shard_id: int
    store: SetStore
    storage: StorageBackend | None
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    task: asyncio.Task | None = None
    applies: int = 0
    creates: int = 0
    compact_error: str = ""       #: last failed background compaction
    # -- replication (both executors; requires a data dir) --
    #: the shard's primary-side replication state: ship sequence,
    #: follower drivers, quorum accounting (None = replication off)
    repl: ShardReplication | None = None
    # -- subprocess executor only --
    worker: WorkerHandle | None = None
    restarts: int = 0             #: successful respawns after worker death
    restart_error: str = ""       #: last failed respawn attempt (diagnosis)
    last_storage_stats: dict = field(default_factory=dict)
    last_coalescer_stats: dict = field(default_factory=dict)
    #: the child's latest cumulative histogram dump (rides every ack;
    #: latest-wins, merged by :func:`repro.service.metrics.
    #: merged_histograms` into the server-wide latency view)
    last_obs: dict = field(default_factory=dict)


class ClusterStore:
    """Sharded, journaled set store: what every server serves from.

    Mutations (:meth:`apply_diff`, :meth:`create`, and the create-missing
    path of :meth:`snapshot`) are coroutines — they resolve after the
    owning shard worker has applied *and journaled* the change.  Reads
    are plain synchronous methods, like ``SetStore``'s.

    ``config.executor`` picks where the shard workers run — ``"inline"``
    (asyncio tasks; default) or ``"subprocess"`` (one child process per
    shard: decode CPU scales across cores through :meth:`decode_remote`,
    and workers are respawned on death).  Both executors expose
    identical semantics and identical on-disk formats; a data dir
    written by one recovers under the other.  ``data_dir=None`` keeps
    every shard in memory.

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
        :func:`repro.cluster.open_cluster` is the same call."""
        config = config if config is not None else ClusterConfig()
        self.config = config
        self.ring = HashRing(range(config.shards), vnodes=config.vnodes)
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.executor = config.executor
        self.worker_window_s = config.worker_window_s
        self.restart_backoff_s = config.restart_backoff_s
        #: RETRY hint the server sends for sessions hitting a shard whose
        #: worker is down (a restart is usually one backoff away)
        self.unavailable_retry_after_s = config.restart_backoff_s
        self._storage_kwargs = config.storage_kwargs()
        self._shards = [
            _Shard(shard_id=i, store=SetStore(), storage=None)
            for i in range(config.shards)
        ]
        #: the committed layout (set by :meth:`start` when journaling)
        self.manifest: ClusterManifest | None = None
        self._started = False
        self._closing = False
        self._close_done: asyncio.Event | None = None
        self._resize_gate: asyncio.Event | None = None
        self._supervisor: WorkerSupervisor | None = None
        self._restart_tasks: set[asyncio.Task] = set()
        # -- resize counters (cluster_stats / metrics) --
        self.resizes = 0
        self.sets_moved = 0

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Recover every shard from disk and start the worker tasks.

        With a data dir, the directory's manifest is checked first: a
        shard/vnode count differing from the committed layout raises
        :class:`~repro.cluster.manifest.TopologyMismatchError` instead of
        silently remapping set names to shards that never journaled them
        (run ``repro rebalance`` — or :meth:`resize` — to migrate), and
        shard directories without a manifest raise
        :class:`~repro.cluster.manifest.ManifestError`.  Shard storage
        opens at each shard's committed layout epoch.
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
        if self.executor == "subprocess":
            # _closing drops *before* the spawns: a worker that comes up
            # and dies again inside this window must schedule a restart
            # (the death callback ignores deaths only while closing)
            self._closing = False
            await self._start_proc()
            self._start_replication()
            self._started = True
            self._close_done = None
            return
        try:
            for shard in self._shards:
                # a fresh mailbox every start: a drained queue from a
                # previous close() may still hold stop sentinels
                shard.queue = asyncio.Queue()
                if self.data_dir is not None:
                    shard.storage = open_backend(
                        self.config.storage,
                        self._shard_dir(shard.shard_id),
                        epoch=self.manifest.shard_epoch(shard.shard_id),
                        **self._storage_kwargs,
                    )
                    # recovery defines the state; the returned store is
                    # wired for write-through persistence
                    shard.store = shard.storage.open_store()
                shard.task = asyncio.create_task(
                    self._worker(shard), name=f"shard-{shard.shard_id}"
                )
            self._start_replication()
        except BaseException:
            # partial recovery (e.g. one corrupt shard): unwind the shards
            # already started so nothing leaks a worker task or journal fd
            for shard in self._shards:
                if shard.task is not None:
                    shard.task.cancel()
            await asyncio.gather(
                *(s.task for s in self._shards if s.task is not None),
                return_exceptions=True,
            )
            for shard in self._shards:
                shard.task = None
                if shard.storage is not None:
                    shard.storage.close()
                    shard.storage = None
            raise
        self._started = True
        self._closing = False
        self._close_done = None

    async def close(self) -> None:
        """Drain every worker, flush and close the journals.

        Under the subprocess executor this also reaps every worker
        child: each gets a CLOSE RPC (applying queued mutations and
        closing its journal first) and is then joined — escalating to
        terminate/kill only if it hangs — so no orphan processes or
        stray tmp files survive a graceful shutdown.

        Mutations already queued are applied; anything submitted after
        close() begins is rejected immediately (never silently stranded
        on an unserviced queue).  Idempotent and safe in any state: a
        second (even concurrent) close awaits the first instead of
        double-draining queues or double-closing journal handles, a
        close before :meth:`start` is a no-op, and a close racing a
        :meth:`resize` waits the resize out and then closes the swapped
        store (close never returns while workers may be restarted).
        """
        while self._resize_gate is not None:
            await self._resize_gate.wait()
        await self._drain()

    async def _drain(self) -> None:
        """The close body, minus the resize fence (resize drains through
        here itself — fencing would deadlock on its own gate)."""
        if self._close_done is not None:
            await self._close_done.wait()
            return
        if not self._started:
            return
        self._close_done = asyncio.Event()
        self._closing = True
        try:
            if self.executor == "subprocess":
                await self._close_proc()
            else:
                for shard in self._shards:
                    await shard.queue.put(None)
                for shard in self._shards:
                    if shard.task is not None:
                        await shard.task
                        shard.task = None
                    if shard.storage is not None:
                        # keep the closed storage around: its stats stay
                        # readable after close; start() replaces it anyway
                        shard.storage.close()
                await self._stop_replication()
            self._started = False
        finally:
            self._close_done.set()

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
        per non-active replica directory, applied in-process under the
        inline executor and through a worker child (the same token-
        authenticated RPC as primaries) under the subprocess executor."""
        active = self.manifest.primary_replica[shard.shard_id]
        repl = ShardReplication(
            shard_id=shard.shard_id,
            replicas=self.config.replicas,
            mode=self.config.replication,
            # attribute lookup at call time: shard.store is replaced on
            # worker respawn, and bootstraps must snapshot the current one
            entries_fn=lambda s=shard: s.store.items(),
            active_replica=active,
            seq0=(
                self.manifest.cursors[shard.shard_id]
                if seq0 is None else seq0
            ),
            storage_kwargs=self._storage_kwargs,
            backoff_s=self.restart_backoff_s,
        )
        repl.promotions = promotions
        epoch = self._shard_epoch(shard.shard_id)
        for replica in range(self.config.replicas + 1):
            if replica == active:
                continue
            directory = replica_dir(self.data_dir, shard.shard_id, replica)
            if self.executor == "subprocess":
                applier = ProcApplier(
                    self._supervisor, shard.shard_id, directory, epoch,
                    self.config.storage, self._storage_kwargs,
                )
                follower = repl.add_follower(replica, directory, applier)
                applier.on_death = (
                    lambda f=follower: f.mark_dead("follower worker died")
                )
            else:
                repl.add_follower(replica, directory, InlineApplier(
                    directory, epoch, self.config.storage,
                    self._storage_kwargs,
                ))
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
                and shard.shard_id < len(self.manifest.cursors)
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
            handle, entries, stats = await self._supervisor.spawn(
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
        shard.store = self._mirror_from(entries)
        shard.worker = handle
        shard.last_storage_stats = dict(stats)
        shard.restarts += 1
        shard.restart_error = ""
        self._open_shard_replication(
            shard, seq0=repl.seq, promotions=repl.promotions + 1
        )
        return True

    # -- subprocess executor lifecycle -----------------------------------------
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

    @staticmethod
    def _mirror_from(entries) -> SetStore:
        store = SetStore()
        for name, values, version in entries:
            store.create(name, values, version=version)
        return store

    async def _start_proc(self) -> None:
        """Spawn one worker child per shard and seed the read mirrors."""
        supervisor = WorkerSupervisor(
            window_s=self.worker_window_s,
            storage=self.config.storage,
            **self._storage_kwargs,
        )
        await supervisor.start()
        self._supervisor = supervisor
        results = await asyncio.gather(
            *[
                supervisor.spawn(
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
            # partial spawn (e.g. one corrupt shard journal): reap the
            # children that did come up so nothing outlives the error —
            # including any replacement a death-during-start restart
            # may have already installed on a shard
            for result in results:
                if not isinstance(result, BaseException):
                    await result[0].close(graceful=False)
            for shard in self._shards:
                if shard.worker is not None and shard.worker.alive:
                    await shard.worker.close(graceful=False)
            await supervisor.close()
            self._supervisor = None
            raise failure
        for shard, (handle, entries, stats) in zip(self._shards, results):
            if shard.worker is not None and shard.worker.alive:
                # this shard's original worker died during the spawn
                # window and a restart already installed (and seeded the
                # mirror from) a fresh one — keep it, reap the corpse
                await handle.close(graceful=False)
                continue
            shard.store = self._mirror_from(entries)
            shard.worker = handle
            shard.storage = None
            shard.last_storage_stats = dict(stats)

    async def _close_proc(self) -> None:
        """Gracefully stop every worker child and reap the processes."""
        for task in list(self._restart_tasks):
            task.cancel()
        if self._restart_tasks:
            await asyncio.gather(
                *self._restart_tasks, return_exceptions=True
            )
            self._restart_tasks.clear()
        for shard in self._shards:
            if shard.worker is not None:
                stats = await shard.worker.close()
                if stats:
                    # the post-close journal counters stay readable,
                    # like the inline executor's closed storage backend
                    shard.last_storage_stats = dict(stats)
        # after the primaries: their final acks have shipped by now, so
        # a graceful follower drain catches everything
        await self._stop_replication()
        if self._supervisor is not None:
            await self._supervisor.close()
            self._supervisor = None

    def _on_worker_death(self, shard_id: int) -> None:
        """Reader-task callback: a worker died unexpectedly — heal it.

        Deliberately *not* gated on ``_started``: a worker that reports
        READY and then dies while the remaining shards are still
        spawning (start() in progress) must heal like any other death,
        or its shard would shed sessions forever.  Only a closing store
        lets deaths lie.
        """
        if self._closing or self._supervisor is None:
            return
        if not 0 <= shard_id < len(self._shards):
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
        worker that stays down past ``promote_after`` consecutive failed
        respawns (its directory is gone, not just its process) is failed
        over to the most-advanced follower via :meth:`_promote`."""
        backoff = self.restart_backoff_s
        failures = 0
        while True:
            await asyncio.sleep(backoff)
            if (
                self._closing
                or self._supervisor is None
                or shard not in self._shards       # resized away meanwhile
                or (shard.worker is not None and shard.worker.alive)
            ):
                return
            if shard.worker is not None:
                # reap the condemned handle before its successor opens
                # the same journal: close() terminates the old child if
                # it is somehow still running (a parent-side reader
                # failure, not a real death — two live children must
                # never append to one journal) and releases its socket
                # and process object
                await shard.worker.close(graceful=False)
            try:
                handle, entries, stats = await self._supervisor.spawn(
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
                    and failures >= self.config.promote_after
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
                and not entries
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
            shard.store = self._mirror_from(entries)
            shard.worker = handle
            shard.last_storage_stats = dict(stats)
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

        Always true inline; in proc mode false while the shard's child
        is dead or restarting (the server sheds new sessions for it with
        RETRY instead of queueing against a corpse).  A stale shard id
        from before a shrink reports available — admission control owns
        that case.
        """
        if self.executor != "subprocess" or not self._started:
            return True
        if not 0 <= shard_id < len(self._shards):
            return True
        worker = self._shards[shard_id].worker
        return worker is not None and worker.alive

    async def resize(self, shards: int, admission=None) -> dict:
        """Live-resize to ``shards`` shards without losing a byte.

        Drains every shard worker (queued mutations apply and journal
        first; subprocess workers are closed and later respawned under
        the new layout), runs the offline move plan — :func:`rebalance`
        for a journaled store (in an executor, so reads and the event
        loop keep serving while it replays and stages), an in-memory
        redistribution otherwise — then swaps the ring and restarts the
        workers under
        the new layout.  Sessions keep working across the swap: reads
        serve the pre-resize view until the switch, mutations submitted
        during the resize wait behind a gate and then route through the
        new ring, and sessions holding pre-resize snapshots re-route
        their later ``apply_diff`` calls the same way.  If the move plan
        fails, the store reopens under the old layout (the rebalance
        commit is atomic, so disk always holds exactly one valid epoch)
        and the error propagates.

        ``admission`` (the server's per-shard
        :class:`~repro.cluster.admission.AdmissionController`, if any) is
        re-shaped to the new shard count after the swap, so caps apply to
        the new topology immediately.  Returns a summary dict.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not self._started:
            raise ReproError("ClusterStore.start() before resize()")
        if self._closing:
            # a close() is already draining: restarting workers behind
            # its back would hand the caller a "closed" store that is
            # secretly alive (leaked tasks, reopened journal handles)
            raise ReproError("ClusterStore is closing")
        if self._resize_gate is not None:
            raise ReproError("a resize is already in progress")
        old_shards = self.n_shards
        old_ring = self.ring
        old_shard_list = self._shards
        if shards == old_shards:
            return {
                "old_shards": old_shards, "new_shards": shards,
                "moved": 0, "changed": False,
            }
        self._resize_gate = asyncio.Event()
        result: RebalanceResult | None = None
        entries: list[tuple] | None = None
        try:
            await self._drain()
            if self.data_dir is not None:
                fsync = self._storage_kwargs.get("fsync", False)
                result = await asyncio.get_running_loop().run_in_executor(
                    None,
                    lambda: rebalance(
                        self.data_dir, shards, vnodes=old_ring.vnodes,
                        fsync=fsync, storage=self.config.storage,
                    ),
                )
                moved = result.moved_count
            else:
                entries = [
                    (name, values, version)
                    for shard in self._shards
                    for name, values, version in shard.store.items()
                ]
            self.ring = HashRing(range(shards), vnodes=old_ring.vnodes)
            self._shards = [
                _Shard(shard_id=i, store=SetStore(), storage=None)
                for i in range(shards)
            ]
            await self.start()
            if entries is not None:
                moved = 0
                for name, values, version in entries:
                    target = self.ring.lookup(name)
                    if old_ring.lookup(name) != target:
                        moved += 1
                    target_shard = self._shards[target]
                    if target_shard.worker is not None:
                        # proc executor: the child owns the state — push
                        # the versioned create through it (mirror updates
                        # on the ack, like any other mutation)
                        await self._proc_restore(
                            target_shard, name, values, version
                        )
                    else:
                        # repro: ignore[blocking-call-in-async] -- live
                        # resize redistributes in memory on drained
                        # shards; no storage hook is attached here
                        target_shard.store.create(
                            name, values, version=version
                        )
        except BaseException:
            # best-effort rollback: reopen under the old layout (a
            # pre-commit failure left the old manifest current; after a
            # committed rebalance this restart refuses the stale
            # topology, and the store stays closed for the caller).  If
            # the new layout's workers already started (a failure in the
            # restore loop), drain them first — otherwise start() would
            # see _started and silently do nothing, stranding the store
            # half-swapped (and, in proc mode, leaking worker children).
            if self._started:
                try:
                    await self._drain()
                except Exception:
                    pass
            self.ring = old_ring
            self._shards = old_shard_list
            try:
                await self.start()
                if entries is not None and self.executor == "subprocess":
                    # in-memory proc rollback: the respawned children
                    # start empty — push the saved entries back through
                    # them under the old ring
                    for name, values, version in entries:
                        await self._proc_restore(
                            self._shards[old_ring.lookup(name)],
                            name, values, version,
                        )
            except Exception:
                pass
            raise
        finally:
            gate, self._resize_gate = self._resize_gate, None
            gate.set()
        if admission is not None:
            admission.resize(shards)
        self.resizes += 1
        self.sets_moved += moved
        return {
            "old_shards": old_shards,
            "new_shards": shards,
            "moved": moved,
            "changed": True,
            "epoch": self.manifest.epoch if self.manifest is not None else None,
            "rebalance": result.to_dict() if result is not None else None,
        }

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
    async def _resize_barrier(self) -> None:
        """Park mutations while a :meth:`resize` swaps the layout.

        No suspension points separate the wait's resolution from the
        caller's ``_submit`` (single event loop), so a released waiter
        always routes through the fully-swapped ring.
        """
        while self._resize_gate is not None:
            await self._resize_gate.wait()

    async def apply_diff(self, name: str, add=(), remove=(),
                         trace=None) -> int:
        """Merge a completed session's diff; durable before it resolves.

        ``trace`` (the session's span context, if any) parents the
        storage-commit span — across the RPC boundary in proc mode, so
        the commit appears inside the session's trace tree even though
        it runs in the worker child.
        """
        await self._resize_barrier()
        return await self._submit(
            self._shard(name), "apply", name,
            element_array(add), element_array(remove),
            trace=trace,
        )

    async def create(self, name: str, values=(), trace=None) -> None:
        """Create (or replace) a named set, journaled as full state."""
        await self._resize_barrier()
        await self._submit(
            self._shard(name), "create", name, element_array(values),
            trace=trace,
        )

    async def flush(self) -> None:
        """Barrier: resolves after every queued mutation has been applied."""
        await self._resize_barrier()
        await asyncio.gather(
            *[self._submit(shard, "sync") for shard in self._shards]
        )

    async def snapshot(self, name: str, create_missing: bool = False) -> Snapshot:
        """Freeze one set for a session (creating it, durably, if asked)."""
        await self._resize_barrier()
        shard = self._shard(name)
        if name not in shard.store:
            if not create_missing:
                # raises UnknownSetError with the standard message
                return shard.store.snapshot(name, create_missing=False)
            await self._submit(shard, "create", name, ())
        return shard.store.snapshot(name)

    def _submit(self, shard: _Shard, op: str, *args, trace=None):
        """Route one mutation to the shard's worker; returns an awaitable
        (a queue-backed future inline, a coroutine in proc mode)."""
        if not self._started:
            raise ReproError("ClusterStore.start() before use")
        if self._closing:
            raise ReproError("ClusterStore is closing")
        if self.executor == "subprocess":
            return self._proc_submit(shard, op, args, trace)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        shard.queue.put_nowait((op, args, future, trace))
        return future

    @staticmethod
    def _ack(shard: _Shard, body) -> None:
        """Fold one mutation ack's stats riders into the shard entry."""
        shard.last_storage_stats = body[1] or shard.last_storage_stats
        shard.last_obs = body[2] or shard.last_obs

    async def _proc_submit(self, shard: _Shard, op: str, args, trace=None):
        """One mutation RPC to the shard's child, mirror updated on ack.

        The mirror callback runs in the worker handle's reader task, in
        reply order — which is the child's apply order — so the mirror's
        contents and versions track the child's bit-for-bit.  Mutation
        bodies are ``(args, trace)`` pairs: the span context (as a plain
        id tuple) rides to the child, whose storage-commit span then
        joins the session's trace tree.
        """
        worker = shard.worker
        if worker is None or not worker.alive:
            raise WorkerUnavailableError(
                f"shard {shard.shard_id} worker is down (restarting)"
            )
        # capture the repl for the whole RPC: ship and quorum wait must
        # hit the same object even if a promotion swaps shard.repl
        repl = shard.repl
        trace_t = tuple(trace) if trace is not None else None
        if op == "apply":
            name, add, remove = args
            shipped: list[int] = []

            def on_apply(body):
                shard.store.apply_diff(name, add=add, remove=remove)
                shard.applies += 1
                self._ack(shard, body)
                # inside the reader callback = synchronously with the
                # child's durable ack, in ack order — the ship stream
                # and bootstrap_source() stay consistent (empty diffs
                # are not persisted by the child, so not shipped)
                if repl is not None and (len(add) or len(remove)):
                    shipped.append(
                        repl.ship("apply", (name, add, remove))
                    )

            result = (await worker.call(
                RpcType.APPLY, ((name, add, remove), trace_t),
                on_ok=on_apply,
            ))[0]
            if shipped:
                await repl.wait_durable(shipped[0])
            return result
        if op == "create":
            (name, values) = args
            shipped = []

            def on_create(body):
                shard.store.create(name, values)
                shard.creates += 1
                self._ack(shard, body)
                if repl is not None:
                    shipped.append(repl.ship("create", (name, values, 0)))

            await worker.call(
                RpcType.CREATE, ((name, values, 0), trace_t),
                on_ok=on_create,
            )
            if shipped:
                await repl.wait_durable(shipped[0])
            return None
        await worker.call(RpcType.SYNC, (None, None))   # "sync" barrier
        return None

    async def _proc_restore(self, shard: _Shard, name, values, version) -> None:
        """Versioned create through the child (in-memory resize path)."""
        repl = shard.repl
        shipped: list[int] = []

        def on_restore(body):
            shard.store.create(name, values, version=version)
            self._ack(shard, body)
            if repl is not None:
                shipped.append(
                    repl.ship("restore", (name, values, version))
                )

        await shard.worker.call(
            RpcType.RESTORE, ((name, values, version), None),
            on_ok=on_restore,
        )
        if shipped:
            await repl.wait_durable(shipped[0])

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
        worker is dead or the shard id predates a shrink — the session
        fails and the client retries under the new conditions.
        """
        if self.executor != "subprocess":
            raise ReproError("decode_remote requires the subprocess executor")
        await self._resize_barrier()
        if not 0 <= shard_id < len(self._shards):
            raise WorkerUnavailableError(
                f"shard {shard_id} no longer exists (cluster resized)"
            )
        shard = self._shards[shard_id]
        worker = shard.worker
        if worker is None or not worker.alive:
            raise WorkerUnavailableError(
                f"shard {shard_id} worker is down (restarting)"
            )
        trace_t = tuple(trace) if trace is not None else None
        decoded, share, stats, obs = await worker.call(
            RpcType.DECODE, (codec.field.m, codec.t, deltas, trace_t, lone)
        )
        shard.last_coalescer_stats = stats
        shard.last_obs = obs or shard.last_obs
        return decoded, share

    async def _worker(self, shard: _Shard) -> None:
        """Apply this shard's mutations in order (inline executor).

        The durable-first protocol itself — raise-before-persist,
        empty-diff skip, persist-then-mutate, compaction charging — is
        :func:`repro.cluster.storage.apply_mutation` /
        :func:`~repro.cluster.storage.compact_if_due`, shared verbatim
        with the subprocess executor's child loop so the two executors
        cannot drift apart.
        """
        while True:
            item = await shard.queue.get()
            if item is None:
                # fail anything that raced past the _closing gate rather
                # than stranding its future (a hung session) forever
                while not shard.queue.empty():
                    raced = shard.queue.get_nowait()
                    if raced is not None and not raced[2].done():
                        raced[2].set_exception(
                            ReproError("ClusterStore closed")
                        )
                return
            op, args, future, trace = item
            try:
                if op == "create":
                    args = (*args, 0)   # public creates journal version 0
                result = await apply_mutation(
                    shard.store, shard.storage, op, args, trace=trace
                )
                if op == "apply":
                    shard.applies += 1
                elif op == "create":
                    shard.creates += 1
                # ship synchronously with the durable apply — no await
                # between apply_mutation resolving and ship(), so
                # bootstrap_source() snapshots are consistent by
                # construction; ship exactly what was persisted (empty
                # diffs were not, sync barriers carry nothing)
                seq = None
                if shard.repl is not None and (
                    op in ("create", "restore")
                    or (op == "apply" and (len(args[1]) or len(args[2])))
                ):
                    seq = shard.repl.ship(op, args)
                compact_error = await compact_if_due(
                    shard.store, shard.storage
                )
                if compact_error is not None:
                    shard.compact_error = compact_error
                if seq is not None:
                    # quorum mode blocks here until a majority of
                    # replicas is durable; async mode returns at once
                    await shard.repl.wait_durable(seq)
                if not future.done():
                    future.set_result(result)
            except Exception as exc:  # surfaced to the awaiting session
                if not future.done():
                    future.set_exception(exc)

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
        child's last acknowledgement.
        """
        out = {
            "shards": self.n_shards,
            "executor": self.executor,
            "layout": (
                self.manifest.to_dict() if self.manifest is not None else None
            ),
            "resizes": self.resizes,
            "sets_moved": self.sets_moved,
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
        entry = {
            "shard": shard.shard_id,
            "sets": len(shard.store.names()),
            "elements": sum(
                shard.store.size(n) for n in shard.store.names()
            ),
            "applies": shard.applies,
            "creates": shard.creates,
            "compact_error": shard.compact_error,
            "queue_depth": shard.queue.qsize(),
        }
        if self.executor == "subprocess":
            entry["worker"] = {
                "pid": shard.worker.pid if shard.worker is not None else None,
                "alive": bool(shard.worker is not None
                              and shard.worker.alive),
                "restarts": shard.restarts,
                "restart_error": shard.restart_error,
                "death_reason": (
                    shard.worker.death_reason
                    if shard.worker is not None
                    else ""
                ),
            }
            entry.update(shard.last_storage_stats)
            if shard.last_coalescer_stats:
                entry["coalescer"] = shard.last_coalescer_stats
            if shard.last_obs:
                entry["obs"] = shard.last_obs
        elif shard.storage is not None:
            entry.update(shard.storage.stats())
        if shard.repl is not None:
            entry["replication"] = shard.repl.stats()
        if hasattr(shard.store, "cache_stats"):
            # inline SQLite shard: the LazySetStore's LRU hit rate (in
            # proc mode the child ships it inside last_storage_stats)
            entry["set_cache"] = shard.store.cache_stats()
        return entry
