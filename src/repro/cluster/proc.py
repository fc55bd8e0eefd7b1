"""Subprocess shard executors: one OS process per shard worker.

The inline executor (:mod:`repro.cluster.router`'s default) runs every
shard worker as an asyncio task on the server's event loop — correct,
simple, and bounded by **one core**: PR 1's batched BCH decode engine
saturates a single CPU no matter how many shards are configured.  This
module is the ``subprocess`` executor: each shard worker becomes a child
process that owns the shard's :class:`~repro.service.store.SetStore` and
:class:`~repro.cluster.storage.StorageBackend` (journal files or the
SQLite store, per the cluster config) for
its shard directory, and the router proxies mutations *and decode work*
to it over a local socket speaking the service's own length-prefixed
framing (:mod:`repro.service.wire`) as an internal RPC.  Decode CPU then
scales across cores: every worker runs its own
:class:`~repro.service.scheduler.DecodeCoalescer`, so sessions routed to
the same shard still merge into shared BCH batches *within* that worker.

Topology of one proc-mode cluster::

    parent (server process)                     children (one per shard)
    ┌────────────────────────────┐   loopback   ┌───────────────────────┐
    │ ClusterStore               │   socket     │ worker_main(shard 0)  │
    │  ├─ mirror SetStore / shard│<───framing──>│  SetStore + journal   │
    │  ├─ WorkerHandle / shard ──┼──────────────│  DecodeCoalescer      │
    │  └─ WorkerSupervisor       │<───framing──>│ worker_main(shard 1)  │
    └────────────────────────────┘              └───────────────────────┘

Design decisions, in the order they matter:

* **Durable before ack, still.**  A mutation RPC is answered only after
  the child's journal append returned (the child runs the same
  journal-first apply loop as the inline worker), so a RESULT frame to a
  reconciliation client keeps implying the diff is on disk.
* **Reads stay synchronous.**  The parent keeps a *mirror*
  ``SetStore`` per shard, updated from each mutation's acknowledgement
  in ack order — so snapshots, sizes, and versions are served without
  an RPC round trip, and mirror versions are bit-for-bit the child's
  (both sides run the identical, deterministic ``SetStore`` arithmetic
  in the identical order).  The mirror is rebuilt from the child's
  recovery dump whenever a worker (re)starts.
* **Crash containment.**  A worker death fails only its own in-flight
  RPCs; the supervisor respawns it after a backoff, the child replays
  snapshot-then-journal, and the parent rebuilds the mirror from the
  replayed state.  While a shard is down, new sessions for it are shed
  with RETRY (see ``ReconciliationServer``) and restarts are counted in
  ``cluster_stats``.  A mutation that was journaled but not yet acked
  when the worker died simply reappears after replay — the standard
  at-least-once WAL story.
* **Same trust domain.**  Workers are children of the server process:
  the RPC listener binds to 127.0.0.1 and every child must present a
  per-supervisor random token in its first frame before anything else
  is processed.  Payloads after authentication are pickled — exactly
  the trust model of :mod:`multiprocessing`'s own pipes.

Processes are started with the ``spawn`` method: the parent runs an
asyncio loop and executor threads (journal appends), and forking a
threaded interpreter is a deadlock lottery.  Children ignore SIGINT
(terminal Ctrl-C goes to the whole process group; shutdown is the
parent's CLOSE RPC, which flushes and closes the journal first) and
exit on EOF when the parent dies, so a killed server leaves no orphans.
"""

from __future__ import annotations

import asyncio
import enum
import os
import pickle
import secrets
import signal
import struct
import sys
import time
from dataclasses import dataclass

from repro.bch.codec import BCHCodec
from repro.cluster.storage import (
    StorageBackend,
    apply_mutation,
    compact_if_due,
    open_backend,
)
from repro.errors import ReproError
from repro.gf import field_for
from repro.obs.logs import (
    configure_logging,
    logging_config,
    set_slow_op_threshold,
    slow_op_threshold_s,
)
from repro.obs.metrics import REGISTRY, WORKER_RPC
from repro.obs.trace import TraceContext, configure_tracing, tracer
from repro.service.scheduler import DEFAULT_WINDOW_S, DecodeCoalescer
from repro.service.store import SetStore
from repro.service.wire import encode_frame, read_frame

#: How long the parent waits for a spawned child to connect back and
#: authenticate before declaring the spawn failed (numpy import plus
#: journal replay; generous because CI machines are slow).
SPAWN_TIMEOUT_S = 60.0

#: Default pause before respawning a dead worker.  Long enough that a
#: crash-looping shard does not busy-spin fork+replay, short enough that
#: a one-off kill heals within a client retry backoff or two.
DEFAULT_RESTART_BACKOFF_S = 0.25

#: How long a graceful close waits for a child to exit after CLOSE was
#: acknowledged, before escalating to terminate/kill.
JOIN_TIMEOUT_S = 10.0

_RID = struct.Struct("!I")

#: Frame-body cap for the internal RPC.  Same-host, token-authenticated
#: traffic between a server and its own children: a recovered shard's
#: READY state dump (or a large diff) may far exceed the client
#: protocol's abuse cap, so the RPC allows up to the length field's
#: practical limit.  Shards bigger than this need the worker-side
#: snapshot-read follow-on (ROADMAP) before proc mode can carry them.
RPC_MAX_FRAME_BYTES = (1 << 31) - 1


class RpcType(enum.IntEnum):
    """Discriminator byte of one internal-RPC frame (disjoint from the
    client protocol's :class:`~repro.service.wire.FrameType` values so a
    frame from the wrong socket can never be mistaken for valid)."""

    READY = 32      #: child -> parent: token + recovered state dump
    APPLY = 33      #: parent -> child: journal + apply one diff
    CREATE = 34     #: parent -> child: journal + create one set
    RESTORE = 35    #: parent -> child: create at an explicit version
    SYNC = 36       #: parent -> child: mutation-queue barrier
    DECODE = 37     #: parent -> child: BCH-decode sketch deltas
    CLOSE = 39      #: parent -> child: drain, close journal, exit
    OK = 40         #: child -> parent: success reply
    ERR = 41        #: child -> parent: failure reply


class WorkerUnavailableError(ReproError):
    """The shard's worker process is dead or restarting; retry shortly."""


def _pack(rid: int, body) -> bytes:
    return _RID.pack(rid) + pickle.dumps(body, pickle.HIGHEST_PROTOCOL)


def _unpack(payload: bytes) -> tuple[int, object]:
    (rid,) = _RID.unpack_from(payload)
    return rid, pickle.loads(payload[_RID.size :])


@dataclass
class WorkerConfig:
    """Everything a spawned child needs, as plain picklable fields."""

    shard_id: int
    port: int                  #: parent's loopback RPC listener
    token: bytes               #: supervisor secret the child must present
    generation: int            #: spawn counter (stale children don't match)
    shard_dir: str | None      #: storage directory (None = in-memory shard)
    epoch: int = 0             #: layout epoch of the shard's files
    storage: str = "journal"   #: storage backend name (see cluster.storage)
    fsync: bool = False
    compact_min_bytes: int | None = None
    compact_factor: int | None = None
    cache_sets: int | None = None   #: sqlite backend's LRU cap
    #: worker-local decode-coalescer window (the service default)
    window_s: float = DEFAULT_WINDOW_S
    coalesce: bool = True      #: False = decode each session separately
    batch: bool = True         #: forwarded to decode_many
    #: distinguishes replica children ("follower-01") from primaries
    #: ("") in process names and trace roles
    role: str = ""
    # -- observability, replicated from the parent process at spawn --
    log_level: str = "info"
    log_json: bool = False
    slow_op_s: float | None = None   #: slow-op WARNING threshold
    trace_dir: str | None = None     #: span JSONL directory (None = off)
    trace_max_bytes: int | None = None   #: span-file rotation cap


# -- the child process ---------------------------------------------------------

def worker_main(config: WorkerConfig) -> None:
    """Entry point of one shard worker child (multiprocessing target)."""
    # Ctrl-C in a terminal signals the whole foreground process group;
    # shutdown must stay the parent's CLOSE RPC so the journal is closed
    # after the last acked append, never mid-mutation.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # replicate the parent's observability posture: same log format and
    # slow-op threshold, spans into the same trace dir under this
    # worker's own role (one JSONL file per process)
    configure_logging(config.log_level, config.log_json)
    if config.slow_op_s is not None:
        set_slow_op_threshold(config.slow_op_s)
    if config.trace_dir:
        role = f"worker-{config.shard_id}"
        if config.role:
            role = f"{role}-{config.role}"
        configure_tracing(
            config.trace_dir, role=role,
            max_bytes=config.trace_max_bytes,
        )
    try:
        asyncio.run(_worker_async(config))
    except (ConnectionError, EOFError, asyncio.IncompleteReadError):
        # parent vanished mid-exchange; recovery already has everything
        # the parent acked, so a quiet exit is the correct behavior
        pass


async def _worker_async(cfg: WorkerConfig) -> None:
    storage: StorageBackend | None = None
    if cfg.shard_dir is not None:
        kwargs = {"fsync": cfg.fsync}
        if cfg.compact_min_bytes is not None:
            kwargs["compact_min_bytes"] = cfg.compact_min_bytes
        if cfg.compact_factor is not None:
            kwargs["compact_factor"] = cfg.compact_factor
        if cfg.cache_sets is not None:
            kwargs["cache_sets"] = cfg.cache_sets
        storage = open_backend(
            cfg.storage, cfg.shard_dir, epoch=cfg.epoch, **kwargs
        )
        store = storage.open_store()
    else:
        store = SetStore()
    reader, writer = await asyncio.open_connection("127.0.0.1", cfg.port)
    worker = _Worker(cfg, store, storage, reader, writer)
    try:
        await worker.run()
    finally:
        if storage is not None:
            storage.close()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _Worker:
    """The child's event loop: ordered mutations, concurrent decodes."""

    def __init__(self, cfg, store, storage, reader, writer) -> None:
        self.cfg = cfg
        self.store = store
        self.storage = storage
        self.reader = reader
        self.writer = writer
        self.coalescer = DecodeCoalescer(
            window_s=cfg.window_s, enabled=cfg.coalesce, batch=cfg.batch
        )
        self.compact_error = ""
        self._codecs: dict[tuple[int, int], BCHCodec] = {}
        self._mutations: asyncio.Queue = asyncio.Queue()
        self._decodes: set[asyncio.Task] = set()
        self._write_lock = asyncio.Lock()
        self._closing = False

    async def run(self) -> None:
        # the raw 32-byte token leads the READY payload so the parent
        # can authenticate on plain bytes *before* unpickling anything
        ready = self.cfg.token + _pack(
            0,
            (self.cfg.shard_id, self.cfg.generation,
             self.store.items(), self._stats()),
        )
        async with self._write_lock:
            self.writer.write(
                encode_frame(RpcType.READY, ready,
                             max_bytes=RPC_MAX_FRAME_BYTES)
            )
            await self.writer.drain()
        mutation_task = asyncio.create_task(self._mutation_loop())
        try:
            while not self._closing:
                try:
                    ftype, payload = await read_frame(
                        self.reader, frame_enum=RpcType,
                        max_bytes=RPC_MAX_FRAME_BYTES,
                    )
                except (asyncio.IncompleteReadError, ConnectionError):
                    break   # parent went away: flush and exit
                rid, body = _unpack(payload)
                if ftype is RpcType.DECODE:
                    task = asyncio.create_task(self._handle_decode(rid, body))
                    self._decodes.add(task)
                    task.add_done_callback(self._decodes.discard)
                else:
                    self._mutations.put_nowait((ftype, rid, body))
                    if ftype is RpcType.CLOSE:
                        self._closing = True
        finally:
            await self._mutations.put(None)
            await mutation_task
            if self._decodes:
                await asyncio.gather(*self._decodes, return_exceptions=True)

    # -- plumbing --------------------------------------------------------------
    async def _send(self, ftype: RpcType, rid: int, body) -> None:
        async with self._write_lock:
            self.writer.write(
                encode_frame(ftype, _pack(rid, body),
                             max_bytes=RPC_MAX_FRAME_BYTES)
            )
            await self.writer.drain()

    async def _reply_ok(self, rid: int, body) -> None:
        await self._send(RpcType.OK, rid, body)

    async def _reply_err(self, rid: int, exc: Exception) -> None:
        try:
            body = pickle.dumps(exc)    # probe: is it picklable at all?
            del body
            await self._send(RpcType.ERR, rid, exc)
        except Exception:
            await self._send(
                RpcType.ERR, rid, ReproError(f"{type(exc).__name__}: {exc}")
            )

    def _stats(self) -> dict:
        out = self.storage.stats() if self.storage is not None else {}
        out["compact_error"] = self.compact_error
        if hasattr(self.store, "cache_stats"):
            # the SQLite backend's LazySetStore: LRU residency/hit-rate
            out["set_cache"] = self.store.cache_stats()
        return out

    # -- mutations (strictly ordered, journal-first) ---------------------------

    #: RPC frame type -> the shared-protocol op it carries
    _MUTATION_OPS = {
        RpcType.APPLY: "apply",
        RpcType.CREATE: "create",
        RpcType.RESTORE: "restore",
        RpcType.SYNC: "sync",
    }

    async def _mutation_loop(self) -> None:
        """Apply mutations in arrival order via the *shared*
        durable-first protocol (:func:`repro.cluster.storage.
        apply_mutation` — the same code the inline executor runs, so the
        executors stay bit-for-bit interchangeable)."""
        while True:
            item = await self._mutations.get()
            if item is None:
                return
            ftype, rid, body = item
            try:
                if ftype in self._MUTATION_OPS:
                    # mutation bodies are (args, trace) pairs: the trace
                    # context crosses the process boundary so the child's
                    # storage-commit span joins the session's trace tree
                    args, trace_t = body
                    result = await apply_mutation(
                        self.store, self.storage,
                        self._MUTATION_OPS[ftype], args,
                        trace=TraceContext(*trace_t) if trace_t else None,
                    )
                elif ftype is RpcType.CLOSE:
                    # in-flight decodes finish before the ack: a closing
                    # parent must never see a decode fail with EOF
                    if self._decodes:
                        await asyncio.gather(*self._decodes,
                                             return_exceptions=True)
                    if self.storage is not None:
                        self.storage.close()
                    await self._reply_ok(rid, self._stats())
                    return
                else:
                    raise ReproError(f"unexpected RPC frame {ftype.name}")
                compact_error = await compact_if_due(self.store, self.storage)
                if compact_error is not None:
                    self.compact_error = compact_error
                # every ack ships the child's cumulative histogram dump;
                # latest-wins on the parent, so merging stays exact
                await self._reply_ok(
                    rid, (result, self._stats(), REGISTRY.to_dict())
                )
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            except Exception as exc:
                await self._reply_err(rid, exc)

    # -- decode (concurrent; the worker-local coalescer batches) ---------------
    def _codec(self, m: int, t: int) -> BCHCodec:
        key = (m, t)
        if key not in self._codecs:
            self._codecs[key] = BCHCodec(field_for(m), t)
        return self._codecs[key]

    async def _handle_decode(self, rid: int, body) -> None:
        try:
            m, t, deltas, trace_t, lone = body
            decoded, share = await self.coalescer.decode(
                self._codec(m, t), deltas,
                trace=TraceContext(*trace_t) if trace_t else None,
                lone=lone,
            )
            await self._reply_ok(
                rid,
                (decoded, share, self.coalescer.stats.to_dict(),
                 REGISTRY.to_dict()),
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:
            await self._reply_err(rid, exc)


# -- the parent side -----------------------------------------------------------

class WorkerHandle:
    """Parent-side endpoint of one live worker: pending calls + liveness."""

    def __init__(self, shard_id, process, reader, writer, on_death) -> None:
        self.shard_id = shard_id
        self.process = process
        self.reader = reader
        self.writer = writer
        self.pid: int = process.pid
        self.alive = True
        #: why the reader stopped: "" while alive, "eof" for a clean
        #: child death, else the parent-side exception (surfaced in
        #: cluster_stats so a condemned worker is diagnosable)
        self.death_reason = ""
        self._on_death = on_death
        self._expected_close = False
        self._closed = False
        self._pending: dict[int, tuple[asyncio.Future, object]] = {}
        self._next_rid = 1
        self._reader_task = asyncio.create_task(
            self._read_loop(), name=f"shard-{shard_id}-rpc"
        )

    def call(self, ftype: RpcType, body, on_ok=None) -> asyncio.Future:
        """Issue one RPC; the future resolves with the reply body.

        ``on_ok`` runs *inside the reader task* before the future
        resolves — mirror updates go through it so they happen in
        exactly the child's apply order, with no scheduling ambiguity.
        """
        if not self.alive:
            raise WorkerUnavailableError(
                f"shard {self.shard_id} worker (pid {self.pid}) is down"
            )
        rid = self._next_rid
        self._next_rid += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[rid] = (future, on_ok)
        start = time.perf_counter()

        def _observe(fut: asyncio.Future) -> None:
            # successful round trips only: a worker-death rejection would
            # put its (arbitrary) time-to-failure in the latency histogram
            if not fut.cancelled() and fut.exception() is None:
                REGISTRY.histogram(WORKER_RPC).record(
                    time.perf_counter() - start
                )

        future.add_done_callback(_observe)
        self.writer.write(
            encode_frame(ftype, _pack(rid, body),
                         max_bytes=RPC_MAX_FRAME_BYTES)
        )
        # no drain await: writes must hit the socket buffer in call
        # order, and the loopback buffer dwarfs any plausible backlog
        return future

    async def _read_loop(self) -> None:
        try:
            while True:
                ftype, payload = await read_frame(
                    self.reader, frame_enum=RpcType,
                    max_bytes=RPC_MAX_FRAME_BYTES,
                )
                rid, body = _unpack(payload)
                entry = self._pending.pop(rid, None)
                if entry is None:
                    continue
                future, on_ok = entry
                if future.done():
                    continue
                if ftype is RpcType.ERR:
                    future.set_exception(
                        body if isinstance(body, BaseException)
                        else ReproError(str(body))
                    )
                    continue
                try:
                    if on_ok is not None:
                        on_ok(body)
                except Exception as exc:
                    future.set_exception(exc)
                else:
                    future.set_result(body)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            self.death_reason = "eof"
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            # e.g. a reply body that fails to unpickle: the worker is
            # condemned (protocol state is unrecoverable) but the cause
            # must survive for the operator, not die with this task
            self.death_reason = f"{type(exc).__name__}: {exc}"
        finally:
            self.alive = False
            died = WorkerUnavailableError(
                f"shard {self.shard_id} worker (pid {self.pid}) died "
                f"mid-call"
            )
            for future, _ in self._pending.values():
                if not future.done():
                    future.set_exception(died)
            self._pending.clear()
            if not self._expected_close and self._on_death is not None:
                self._on_death(self.shard_id)

    async def close(self, graceful: bool = True) -> dict | None:
        """Stop the worker: CLOSE RPC (drains + closes the journal),
        then reap the process — escalating to terminate/kill if the
        child does not exit in :data:`JOIN_TIMEOUT_S`.  Idempotent: a
        second close returns immediately (the process object is already
        released and must not be joined again)."""
        if self._closed:
            return None
        self._closed = True
        self._expected_close = True
        stats: dict | None = None
        if graceful and self.alive:
            try:
                stats = await asyncio.wait_for(
                    self.call(RpcType.CLOSE, None), JOIN_TIMEOUT_S
                )
            except (ReproError, asyncio.TimeoutError, ConnectionError,
                    OSError):
                pass
        self.alive = False
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await self._join_process()
        return stats

    async def _join_process(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.process.join, JOIN_TIMEOUT_S
        )
        if self.process.is_alive():
            self.process.terminate()
            await loop.run_in_executor(None, self.process.join, 2.0)
        if self.process.is_alive():
            self.process.kill()
            await loop.run_in_executor(None, self.process.join, 2.0)
        # release the multiprocessing bookkeeping fds promptly
        if hasattr(self.process, "close") and not self.process.is_alive():
            self.process.close()


class WorkerSupervisor:
    """Spawns shard workers and matches their loopback connections.

    One supervisor serves one :class:`ClusterStore`: it owns the
    127.0.0.1 RPC listener, the shared authentication token, and the
    spawn-generation counter that keeps a straggler child from a failed
    earlier spawn from being mistaken for the current one.
    """

    def __init__(
        self,
        fsync: bool = False,
        compact_min_bytes: int | None = None,
        compact_factor: int | None = None,
        window_s: float = DEFAULT_WINDOW_S,
        coalesce: bool = True,
        batch: bool = True,
        storage: str = "journal",
        cache_sets: int | None = None,
    ) -> None:
        self.storage = storage
        self.fsync = fsync
        self.compact_min_bytes = compact_min_bytes
        self.compact_factor = compact_factor
        self.cache_sets = cache_sets
        self.window_s = window_s
        self.coalesce = coalesce
        self.batch = batch
        self.token = secrets.token_bytes(32)
        self.port: int | None = None
        self._server: asyncio.AbstractServer | None = None
        self._generation = 0
        #: generation -> future resolving to (reader, writer, entries, stats)
        self._waiting: dict[int, asyncio.Future] = {}

    async def start(self) -> None:
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._accept, "127.0.0.1", 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for future in self._waiting.values():
            if not future.done():
                future.set_exception(ReproError("supervisor closed"))
        self._waiting.clear()

    async def _accept(self, reader, writer) -> None:
        """Authenticate one child: first frame must be READY + token.

        The frame is consumed in two stages: first only the 5-byte
        header plus the 32-byte raw token, then — exclusively for an
        authenticated peer — the state-dump remainder.  An unrelated
        local process connecting to the loopback port can thus neither
        drive the pickle machinery nor make the server buffer more than
        a few dozen bytes before being dropped.
        """
        try:
            prefix = await asyncio.wait_for(
                reader.readexactly(5 + len(self.token)), SPAWN_TIMEOUT_S
            )
            (body_len,) = struct.unpack_from("!I", prefix)
            authentic = (
                prefix[4] == RpcType.READY
                and 1 + len(self.token) <= body_len <= RPC_MAX_FRAME_BYTES
                and secrets.compare_digest(prefix[5:], self.token)
            )
            if not authentic:
                raise ReproError("unexpected or unauthenticated worker")
            rest = await asyncio.wait_for(
                reader.readexactly(body_len - 1 - len(self.token)),
                SPAWN_TIMEOUT_S,
            )
            _, body = _unpack(rest)
            shard_id, generation, entries, stats = body
            waiter = self._waiting.get(generation)
            if waiter is None or waiter.done():
                raise ReproError("no spawn waiting for this worker")
        except Exception:
            writer.close()
            return
        waiter.set_result((reader, writer, entries, stats))

    async def spawn(
        self, shard_id: int, shard_dir: str | None, epoch: int, on_death,
        *, role: str = "",
    ) -> tuple[WorkerHandle, list, dict]:
        """Start one worker and wait for its authenticated READY.

        Returns ``(handle, entries, stats)`` where ``entries`` is the
        child's post-recovery ``SetStore.items()`` dump (the parent
        seeds its read mirror from it) and ``stats`` the recovery
        counters.  ``role`` tags replica children (``"follower-01"``)
        so primaries and followers are distinguishable in ``ps`` output
        and per-process trace files.
        """
        await self.start()
        # spawn, not fork: the parent runs executor threads (journal
        # appends) and forking a threaded interpreter can deadlock the
        # child inside inherited locks
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        self._generation += 1
        generation = self._generation
        # snapshot the parent's observability posture at spawn time so a
        # respawned worker comes back logging and tracing like its peers
        log_level, log_json = logging_config()
        trc = tracer()
        cfg = WorkerConfig(
            shard_id=shard_id,
            port=self.port,
            token=self.token,
            generation=generation,
            shard_dir=str(shard_dir) if shard_dir is not None else None,
            epoch=epoch,
            storage=self.storage,
            fsync=self.fsync,
            compact_min_bytes=self.compact_min_bytes,
            compact_factor=self.compact_factor,
            cache_sets=self.cache_sets,
            window_s=self.window_s,
            coalesce=self.coalesce,
            batch=self.batch,
            role=role,
            log_level=log_level,
            log_json=log_json,
            slow_op_s=slow_op_threshold_s(),
            trace_dir=str(trc.trace_dir) if trc.enabled else None,
            trace_max_bytes=trc.max_bytes,
        )
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        self._waiting[generation] = waiter
        name = f"repro-shard-{shard_id}"
        if role:
            name = f"{name}-{role}"
        process = ctx.Process(
            target=worker_main, args=(cfg,), name=name, daemon=True,
        )
        process.start()
        # race READY against child death: a worker that crashes during
        # startup (say, a corrupt shard journal) must fail the spawn
        # immediately with its exit code, not burn the whole timeout
        exited: asyncio.Future = loop.create_future()
        loop.add_reader(
            process.sentinel,
            lambda: exited.done() or exited.set_result(None),
        )
        try:
            await asyncio.wait(
                {waiter, exited},
                timeout=SPAWN_TIMEOUT_S,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if waiter.done():
                reader, writer, entries, stats = waiter.result()
            elif exited.done():
                raise ReproError(
                    f"shard {shard_id} worker (pid {process.pid}) exited "
                    f"with code {process.exitcode} before READY — see its "
                    f"stderr for the recovery error"
                )
            else:
                raise ReproError(
                    f"shard {shard_id} worker (pid {process.pid}) did not "
                    f"come up within {SPAWN_TIMEOUT_S:.0f}s"
                )
        except BaseException:
            process.terminate()
            process.join(2.0)
            if process.is_alive():
                process.kill()
                process.join(2.0)
            raise
        finally:
            loop.remove_reader(process.sentinel)
            self._waiting.pop(generation, None)
            if not waiter.done():
                waiter.cancel()
        handle = WorkerHandle(shard_id, process, reader, writer, on_death)
        return handle, entries, stats


def fork_safe_cpu_count() -> int:
    """Usable cores for sizing proc-executor deployments (affinity-aware
    where the platform exposes it — container CPU quotas usually do)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


if __name__ == "__main__":  # pragma: no cover - debugging aid
    sys.exit("workers are spawned by ClusterStore, not run directly")
