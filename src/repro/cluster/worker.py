"""The shard worker: one shard's store, storage and ordered mutations.

:class:`ShardWorker` is the only place a shard mutates.  It opens the
shard's :class:`~repro.cluster.storage.StorageBackend` (or keeps a bare
``SetStore`` when there is no data dir) and applies mutations strictly
in arrival order, through the shared durable-first protocol: whenever
it takes a mutation it also takes every one queued behind it, and runs
the batch through :func:`~repro.cluster.storage.apply_mutation` (one
durable commit), then acks each mutation in order, then runs a due
:func:`~repro.cluster.storage.compact_if_due`.  It never waits for more
work, so a lone mutation is a batch of one.

Both executors run this one worker, for primaries and followers alike:

* ``inline`` — in the server process, behind a direct-call
  :class:`LocalHandle` (this module);
* ``subprocess`` — in a child process, behind the stdin/stdout pipe
  RPC of :mod:`repro.cluster.proc`, whose parent-side
  :class:`~repro.cluster.proc.WorkerHandle` offers the same surface.

A handle exposes ``store`` (the shard's read view), ``alive``,
``submit(op, args, trace, on_ack)``, ``stats()`` and ``close()``.
``on_ack`` runs synchronously in the event-loop step in which the
mutation becomes visible in ``store`` — the router ships it to the
shard's followers there, so a follower bootstrap that snapshots
``store`` can never disagree with the ship stream.
"""

from __future__ import annotations

import asyncio

from repro.cluster.storage import apply_mutation, compact_if_due, open_backend
from repro.errors import ReproError
from repro.service.store import SetStore


class ShardWorker:
    """One shard's store, storage backend and ordered mutation loop.

    Construct on a running event loop: the backend is opened and
    recovered right here, on the loop thread (SQLite connections refuse
    cross-thread use), and the mutation loop starts at once.
    """

    def __init__(self, storage: str, shard_dir, epoch: int = 0,
                 fsync: bool = False) -> None:
        self.storage = None
        if shard_dir is None:
            self.store = SetStore()
        else:
            self.storage = open_backend(
                storage, shard_dir, epoch=epoch, fsync=fsync
            )
            try:
                # recovery defines the state
                self.store = self.storage.open_store()
            except BaseException:
                self.storage.close()
                raise
        self.compact_error = ""       #: last failed background compaction
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False
        self._task = asyncio.create_task(self._run(), name="shard-worker")

    @property
    def running(self) -> bool:
        return not self._closed

    def submit(self, op: str, args: tuple, trace, ack) -> None:
        """Queue one mutation; ``ack(result, error)`` reports its end.

        Mutations submitted in one event-loop step reach the loop
        together and commit as one batch.

        ``ack`` is called exactly once, and must not raise: with the
        result after the mutation is durable and visible, or with the
        exception that stopped it (a mutation submitted after
        :meth:`close` fails at once rather than stranding its caller).
        """
        if self._closed:
            ack(None, ReproError("shard worker closed"))
            return
        self._queue.put_nowait((op, args, trace, ack))

    async def _run(self) -> None:
        closing = False
        while not closing:
            batch = [await self._queue.get()]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            # close() queues its sentinel last: nothing is submitted after
            closing = batch[-1] is None
            if closing:
                batch.pop()
            if not batch:
                continue
            try:
                outcomes = await apply_mutation(
                    self.store, self.storage,
                    [(op, args, trace) for op, args, trace, _ in batch],
                )
            except Exception as exc:  # surfaced to every submitter
                outcomes = [(None, exc)] * len(batch)
            # no await between the batch becoming visible and its acks:
            # each mutation is shipped in the step it becomes visible,
            # and a compaction is never charged to the (already durable)
            # mutations that happened to trigger it
            for (_, _, _, ack), (result, error) in zip(batch, outcomes):
                ack(result, error)
            compact_error = await compact_if_due(self.store, self.storage)
            if compact_error is not None:
                self.compact_error = compact_error

    async def close(self) -> None:
        """Apply every queued mutation, then close the storage.

        Idempotent; the closed store stays readable (a drained shard's
        last state), and so do :meth:`stats`.
        """
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(None)
        await asyncio.shield(self._task)
        if self.storage is not None:
            self.storage.close()

    def stats(self) -> dict:
        """Storage counters plus the worker's own: what ``cluster_stats``
        reports per shard (and a child ships on every ack)."""
        out = self.storage.stats() if self.storage is not None else {}
        out["compact_error"] = self.compact_error
        out["queue_depth"] = self._queue.qsize()
        if hasattr(self.store, "cache_stats"):
            # the SQLite backend's LazySetStore: LRU residency/hit-rate
            out["set_cache"] = self.store.cache_stats()
        return out


class LocalHandle:
    """Direct-call endpoint of an in-process :class:`ShardWorker`
    (the ``inline`` executor): the worker's own store is the read view,
    and an ack is a resolved future."""

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self.store = worker.store

    @property
    def alive(self) -> bool:
        return self.worker.running

    def submit(self, op: str, args: tuple, trace=None,
               on_ack=None) -> asyncio.Future:
        """Queue one mutation; the future resolves with its result after
        ``on_ack`` ran (which it does even if the future was cancelled
        meanwhile — the mutation is applied either way)."""
        future = asyncio.get_running_loop().create_future()

        def ack(result, error) -> None:
            if error is None and on_ack is not None:
                try:
                    on_ack()
                except Exception as exc:
                    error = exc
            if future.done():
                return
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)

        self.worker.submit(op, args, trace, ack)
        return future

    def stats(self) -> dict:
        return self.worker.stats()

    async def close(self, graceful: bool = True) -> None:
        """Drain and close the worker.  Always graceful: the queue holds
        only mutations already accepted, and applying them is cheap."""
        await self.worker.close()
