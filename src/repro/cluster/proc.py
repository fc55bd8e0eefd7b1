"""Subprocess shard executor: the shard worker in a child process.

Under the ``inline`` executor every :class:`~repro.cluster.worker.
ShardWorker` runs on the server's event loop — correct, simple, and
bounded by **one core**: the batched BCH decode engine saturates a
single CPU no matter how many shards are configured.  This module is
the ``subprocess`` executor: each worker (primary or follower) runs in a
child process, and the router drives it over a local socket speaking
the service's own length-prefixed framing (:mod:`repro.service.wire`)
as an internal RPC — the same ``ShardWorker`` and mutation loop, plus
*decode work*.  Decode CPU then scales across cores: every child runs
its own :class:`~repro.service.scheduler.DecodeCoalescer`, so sessions
routed to the same shard still merge into shared BCH batches *within*
that worker.

Topology of one proc-mode cluster::

    parent (server process)                     children (one per worker)
    ┌────────────────────────────┐   loopback   ┌───────────────────────┐
    │ ClusterStore               │   socket     │ worker_main(shard 0)  │
    │  ├─ WorkerHandle / worker ─┼<───framing──>│  ShardWorker          │
    │  │   └─ mirror SetStore    │              │  DecodeCoalescer      │
    │  └─ WorkerSupervisor       │<───framing──>│ worker_main(shard 1)  │
    └────────────────────────────┘              └───────────────────────┘

Design decisions, in the order they matter:

* **Durable before ack, still.**  A mutation RPC is answered only after
  the child's ``ShardWorker`` applied it durable-first, so a RESULT
  frame to a reconciliation client keeps implying the diff is on disk.
* **Reads stay synchronous.**  A primary's :class:`WorkerHandle` keeps a
  *mirror* ``SetStore``, updated from each mutation's acknowledgement
  in ack order — so snapshots, sizes, and versions are served without
  an RPC round trip, and mirror versions are bit-for-bit the child's
  (both sides run the identical, deterministic ``SetStore`` arithmetic
  in the identical order).  The mirror is built from the child's READY
  state dump whenever a worker (re)starts; a follower's READY carries
  none, since nothing reads a follower.
* **Crash containment.**  A worker death fails only its own in-flight
  RPCs; the supervisor respawns it after a backoff, the child replays
  snapshot-then-journal, and the new handle's mirror is the replayed
  state.  While a shard is down, new sessions for it are shed
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
import functools
import os
import pickle
import secrets
import signal
import struct
import sys
import time
from dataclasses import dataclass, field

from repro.bch.codec import BCHCodec
from repro.cluster.worker import ShardWorker
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


#: shard mutation op -> the RPC frame carrying it, and back
_MUTATION_RPC = {
    "apply": RpcType.APPLY,
    "create": RpcType.CREATE,
    "restore": RpcType.RESTORE,
    "sync": RpcType.SYNC,
}
_MUTATION_OPS = {rpc: op for op, rpc in _MUTATION_RPC.items()}


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
    #: backend tuning (:meth:`~repro.cluster.config.ClusterConfig.
    #: storage_kwargs`)
    storage_kwargs: dict = field(default_factory=dict)
    #: worker-local decode-coalescer window (0 = decode each session
    #: separately)
    window_s: float = DEFAULT_WINDOW_S
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
    worker = ShardWorker(
        cfg.storage, cfg.shard_dir, cfg.epoch, cfg.storage_kwargs
    )
    reader, writer = await asyncio.open_connection("127.0.0.1", cfg.port)
    try:
        await _RpcServer(cfg, worker, reader, writer).run()
    finally:
        # also when the parent went away: queued mutations still apply
        # and the storage closes cleanly
        await worker.close()
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class _RpcServer:
    """The child's RPC endpoint: mutation frames feed the shard worker
    in arrival order, decodes run concurrently through the worker-local
    coalescer."""

    def __init__(self, cfg, worker: ShardWorker, reader, writer) -> None:
        self.cfg = cfg
        self.worker = worker
        self.reader = reader
        self.writer = writer
        self.coalescer = DecodeCoalescer(window_s=cfg.window_s)
        self._codecs: dict[tuple[int, int], BCHCodec] = {}
        self._decodes: set[asyncio.Task] = set()

    async def run(self) -> None:
        # a follower's parent keeps no mirror, so its READY carries no
        # state dump (a SQLite store would read every set to build one)
        entries = None if self.cfg.role else self.worker.store.items()
        # the raw 32-byte token leads the READY payload so the parent
        # can authenticate on plain bytes *before* unpickling anything
        ready = self.cfg.token + _pack(
            0,
            (self.cfg.shard_id, self.cfg.generation, entries,
             self.worker.stats()),
        )
        self.writer.write(
            encode_frame(RpcType.READY, ready, max_bytes=RPC_MAX_FRAME_BYTES)
        )
        await self.writer.drain()
        while True:
            try:
                ftype, payload = await read_frame(
                    self.reader, frame_enum=RpcType,
                    max_bytes=RPC_MAX_FRAME_BYTES,
                )
            except (asyncio.IncompleteReadError, ConnectionError):
                return   # parent went away: flush and exit
            rid, body = _unpack(payload)
            if ftype is RpcType.DECODE:
                task = asyncio.create_task(self._handle_decode(rid, body))
                self._decodes.add(task)
                task.add_done_callback(self._decodes.discard)
            elif ftype in _MUTATION_OPS:
                # mutation bodies are (args, trace) pairs: the trace
                # context crosses the process boundary so the child's
                # storage-commit span joins the session's trace tree
                args, trace_t = body
                self.worker.submit(
                    _MUTATION_OPS[ftype], args,
                    TraceContext(*trace_t) if trace_t else None,
                    functools.partial(self._ack, rid),
                )
            elif ftype is RpcType.CLOSE:
                # queued mutations apply and in-flight decodes finish
                # before the ack: a closing parent must never see either
                # fail with EOF
                await self.worker.close()
                if self._decodes:
                    await asyncio.gather(*self._decodes,
                                         return_exceptions=True)
                self._send(RpcType.OK, rid, self.worker.stats())
                return
            else:
                self._reply_err(
                    rid, ReproError(f"unexpected RPC frame {ftype.name}")
                )

    # -- plumbing --------------------------------------------------------------
    def _send(self, ftype: RpcType, rid: int, body) -> None:
        # no drain: whole frames hit the socket buffer in call order,
        # and the parent's reader task consumes them continuously
        self.writer.write(
            encode_frame(ftype, _pack(rid, body),
                         max_bytes=RPC_MAX_FRAME_BYTES)
        )

    def _reply_err(self, rid: int, exc: Exception) -> None:
        try:
            pickle.dumps(exc)    # probe: is it picklable at all?
        except Exception:
            exc = ReproError(f"{type(exc).__name__}: {exc}")
        self._send(RpcType.ERR, rid, exc)

    def _ack(self, rid: int, result, error) -> None:
        """The shard worker's ack for one mutation RPC."""
        if error is not None:
            self._reply_err(rid, error)
            return
        # every ack ships the child's cumulative histogram dump;
        # latest-wins on the parent, so merging stays exact
        self._send(
            RpcType.OK, rid,
            (result, self.worker.stats(), REGISTRY.to_dict()),
        )

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
            self._send(
                RpcType.OK, rid,
                (decoded, share, self.coalescer.stats.to_dict(),
                 REGISTRY.to_dict()),
            )
        except Exception as exc:
            self._reply_err(rid, exc)


# -- the parent side -----------------------------------------------------------

class WorkerHandle:
    """Parent-side endpoint of one live worker child: pending calls,
    liveness, the read mirror and the child's latest stats riders.

    Offers the :class:`~repro.cluster.worker.LocalHandle` surface
    (``store``, ``alive``, ``submit``, ``stats``, ``close``) over the
    RPC.  ``store`` is the mirror a primary's READY dump seeds, or
    ``None`` for a follower child (nothing reads a follower).
    """

    def __init__(self, shard_id, process, reader, writer, on_death,
                 entries=None, stats=None) -> None:
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
        self.store: SetStore | None = None
        if entries is not None:
            self.store = SetStore()
            for name, values, version in entries:
                self.store.create(name, values, version=version)
        #: the child's storage counters as of its latest ack
        self.last_stats: dict = dict(stats or {})
        self.coalescer_stats: dict = {}
        #: the child's latest cumulative histogram dump (rides every
        #: ack; latest-wins, merged by :func:`repro.service.metrics.
        #: merged_histograms` into the server-wide latency view)
        self.obs: dict = {}
        self._on_death = on_death
        self._expected_close = False
        self._closed = False
        self._pending: dict[int, tuple[asyncio.Future, object]] = {}
        self._next_rid = 1
        self._reader_task = asyncio.create_task(
            self._read_loop(), name=f"shard-{shard_id}-rpc"
        )

    def call(self, ftype: RpcType, body, on_ok=None) -> asyncio.Future:
        """Issue one RPC; the future resolves with the reply body, or
        with what ``on_ok(body)`` returns.

        ``on_ok`` runs *inside the reader task*, in reply order, even
        if the future was cancelled meanwhile — mirror updates go
        through it so they happen in exactly the child's apply order,
        with no scheduling ambiguity.
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

    def submit(self, op: str, args: tuple, trace=None,
               on_ack=None) -> asyncio.Future:
        """One mutation RPC; the future resolves with its result.

        On the child's ack the mirror applies the mutation, then
        ``on_ack`` runs — both in the reader task, in ack order.  The
        span context rides to the child as a plain id tuple.
        """

        def on_ok(body):
            result, self.last_stats, obs = body
            self.obs = obs or self.obs
            if self.store is not None:
                self._mirror(op, args)
            if on_ack is not None:
                on_ack()
            return result

        trace_t = tuple(trace) if trace is not None else None
        return self.call(_MUTATION_RPC[op], (args, trace_t), on_ok=on_ok)

    def _mirror(self, op: str, args: tuple) -> None:
        if op == "apply":
            name, add, remove = args
            self.store.apply_diff(name, add=add, remove=remove)
        elif op in ("create", "restore"):
            name, values, version = args
            self.store.create(name, values, version=version)

    def decode(self, m: int, t: int, deltas, trace_t, lone: bool):
        """BCH-decode ``deltas`` on the child; resolves with
        ``(decoded, seconds)``."""

        def on_ok(body):
            decoded, share, self.coalescer_stats, obs = body
            self.obs = obs or self.obs
            return decoded, share

        return self.call(
            RpcType.DECODE, (m, t, deltas, trace_t, lone), on_ok=on_ok
        )

    def stats(self) -> dict:
        """The child's storage counters plus a ``worker`` block (pid,
        liveness — how crash recovery surfaces in metrics) and, once
        they have flowed, the ``coalescer`` and ``obs`` riders."""
        out = dict(self.last_stats)
        out["worker"] = {
            "pid": self.pid,
            "alive": self.alive,
            "death_reason": self.death_reason,
        }
        if self.coalescer_stats:
            out["coalescer"] = self.coalescer_stats
        if self.obs:
            out["obs"] = self.obs
        return out

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
                if ftype is RpcType.ERR:
                    if not future.done():
                        future.set_exception(
                            body if isinstance(body, BaseException)
                            else ReproError(str(body))
                        )
                    continue
                try:
                    if on_ok is not None:
                        body = on_ok(body)
                except Exception as exc:
                    if not future.done():
                        future.set_exception(exc)
                else:
                    if not future.done():
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

    async def close(self, graceful: bool = True) -> None:
        """Stop the worker: CLOSE RPC (drains + closes the journal; the
        child's final counters stay readable in :meth:`stats`), then
        reap the process — escalating to terminate/kill if the child
        does not exit in :data:`JOIN_TIMEOUT_S`.  Idempotent: a second
        close returns immediately (the process object is already
        released and must not be joined again)."""
        if self._closed:
            return
        self._closed = True
        self._expected_close = True
        if graceful and self.alive:
            try:
                self.last_stats = await asyncio.wait_for(
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
        window_s: float = DEFAULT_WINDOW_S,
        storage: str = "journal",
        storage_kwargs: dict | None = None,
    ) -> None:
        self.storage = storage
        self.storage_kwargs = dict(storage_kwargs or {})
        self.window_s = window_s
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
    ) -> WorkerHandle:
        """Start one worker and wait for its authenticated READY.

        The returned handle's ``store`` is the mirror seeded from the
        child's post-recovery state dump (``None`` for a follower,
        whose READY carries none) and its ``stats()`` the recovery
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
            storage_kwargs=self.storage_kwargs,
            window_s=self.window_s,
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
        return WorkerHandle(
            shard_id, process, reader, writer, on_death, entries, stats
        )


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
