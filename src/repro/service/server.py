"""The asyncio reconciliation server.

One :class:`ReconciliationServer` multiplexes many concurrent PBS sessions:
each accepted connection gets its own :class:`~repro.core.sessions.BobSession`
against a snapshot of the requested named set, while all sessions share the
:class:`~repro.service.scheduler.DecodeCoalescer` so BCH decode work arriving
close together is batched into single cross-session
:meth:`~repro.bch.codec.BCHCodec.decode_many` calls.

Per connection the server speaks the frame protocol of
:mod:`repro.service.wire`::

    client                                server
    HELLO(set, seed, ...)     ->
                              <-          WELCOME(|B|)   [or RETRY: shed]
    (ToW sketch of A)                     (ToW sketch of B)
    ESTIMATE(ToW sketch)      ->
                              <-          PARAMS(d_hat, n, t, g, ...)
    SKETCH(round 1)           ->
                              <-          REPLY(round 1)
    ...                                   ...
    PUSH(A \\ B)              ->          (store.apply_diff)
                              <-          RESULT(applied, |B'|, version)
    [ESTIMATE ...]            ->          (next pass: fresh snapshot)

After RESULT the client may either close (single sync) or send a fresh
ESTIMATE to reconcile again on the same connection — ``repro sync
--repeat`` uses this to re-sync periodically without paying a new
handshake, reusing the per-connection Tug-of-War estimator on both ends.

The store is a :class:`~repro.cluster.router.ClusterStore` — a 1-shard
memory cluster for plain ``repro serve`` — whose mutating methods are
coroutines: the server awaits them, so a RESULT frame implies the diff
is journaled.  With an
:class:`~repro.cluster.admission.AdmissionController` attached, sessions
beyond a shard's cap are shed at HELLO time with a RETRY frame instead
of being accepted into an unbounded backlog.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

import numpy as np

from repro.core.messages import SketchMessage
from repro.core.params import PBSParams
from repro.core.sessions import BobSession
from repro.errors import ReproError, SerializationError
from repro.estimators.tow import ToWEstimator
from repro.obs.logs import get_logger
from repro.obs.trace import TraceContext, tracer
from repro.service.metrics import ServiceMetrics, SessionMetrics
from repro.service.scheduler import DecodeCoalescer
from repro.service.store import Snapshot
from repro.service.wire import (
    Error,
    FramedStream,
    FrameType,
    Hello,
    ParamsAnnounce,
    Push,
    Result,
    Retry,
    Welcome,
    _unpack_from,
)
from repro.utils.seeds import derive_seed

if TYPE_CHECKING:
    from repro.cluster.router import ClusterStore

log = get_logger("server")

#: Hard cap on rounds per reconciliation pass — a runaway client cannot
#: pin a session.
MAX_ROUNDS = 64

#: Hard cap on reconciliation passes per connection (``sync --repeat``).
MAX_PASSES = 1 << 16

#: Hard cap on the client-requested Tug-of-War sketch count: the server
#: runs O(n_sketches * |B|) hashing per handshake, so this must not be an
#: unbounded client-controlled knob (the paper's l is 128).
MAX_ESTIMATOR_SKETCHES = 1024


class ReconciliationServer:
    """Serve reconciliation sessions against a started ``ClusterStore``.

    >>> # inside a coroutine:
    >>> # async with open_cluster() as store:
    >>> #     async with ReconciliationServer(store) as server:
    >>> #         result = await sync_with_server(
    >>> #             "127.0.0.1", server.port, my_set)
    """

    def __init__(
        self,
        store: ClusterStore,
        host: str = "127.0.0.1",
        port: int = 0,
        create_missing: bool = True,
        admission=None,
    ) -> None:
        if admission is not None and admission.shards != store.n_shards:
            raise ValueError(
                f"admission controller is sized for {admission.shards} "
                f"shards, but the store has {store.n_shards}"
            )
        self.store = store
        #: optional :class:`~repro.cluster.admission.AdmissionController`
        #: with one set of caps per store shard
        self.admission = admission
        self.host = host
        self.port = port
        #: cross-session decode batching under the inline executor; its
        #: window is the cluster's (``--window-ms``), like each proc
        #: worker's own coalescer
        self.coalescer = DecodeCoalescer(
            window_s=store.config.worker_window_s
        )
        self.metrics = ServiceMetrics(self.coalescer.stats)
        self.create_missing = create_missing
        self._server: asyncio.AbstractServer | None = None

    # -- lifecycle -------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; resolves :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "ReconciliationServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- per-connection protocol ----------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peername = writer.get_extra_info("peername")
        session = self.metrics.open_session(
            peer=f"{peername[0]}:{peername[1]}" if peername else ""
        )
        stream = FramedStream(reader, writer, session.channel, role="bob")
        try:
            await self._run_session(stream, session)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            ReproError,
        ) as exc:
            session.failed = True
            session.error = f"{type(exc).__name__}: {exc}"
            try:
                await stream.send(
                    FrameType.ERROR, Error(str(exc)).serialize()
                )
            except (ConnectionError, OSError):
                pass
        finally:
            self.metrics.close_session(session)
            await stream.close()

    async def _send_retry(
        self, stream: FramedStream, shard: int, retry_after: float,
        reason: str = "at capacity",
    ) -> None:
        await stream.send(
            FrameType.RETRY,
            Retry(
                retry_after_s=retry_after,
                message=f"shard {shard} {reason}",
            ).serialize(),
        )

    async def _decode(self, shard: int, codec, deltas, trace=None):
        """Decode one round's deltas — in-process (coalesced across all
        sessions) under the inline executor, or on the owning shard's
        worker process under the subprocess executor (each worker then
        coalesces its own shard's sessions).  A session that no other
        could join skips the coalescing window (``lone``): under the
        inline executor, the server's only open connection; under the
        subprocess executor, the only open session on its shard, since
        a worker's coalescer only sees that shard's sessions.  Admission
        decode-queue caps apply identically in both paths.  ``trace``
        (the pass's :class:`TraceContext`, if any) parents the
        decode-batch span — locally for the coalescer, across the RPC for
        a worker."""
        proc = self.store.executor == "subprocess"
        lone = (
            self.metrics.active_by_shard[shard] if proc
            else self.metrics.active_sessions
        ) == 1
        decode = (
            (lambda: self.store.decode_remote(
                shard, codec, deltas, trace=trace, lone=lone,
            ))
            if proc
            else (lambda: self.coalescer.decode(
                codec, deltas, trace=trace, lone=lone,
            ))
        )
        if self.admission is None:
            return await decode()
        async with self.admission.decode_slot(shard):
            return await decode()

    async def _run_session(
        self, stream: FramedStream, session: SessionMetrics
    ) -> None:
        # 1. HELLO: pick the set, admit (or shed), freeze a snapshot.
        try:
            _, payload = await stream.recv(expect=FrameType.HELLO)
        except asyncio.IncompleteReadError as exc:
            if not exc.partial and session.channel.frames == 0:
                session.probe = True   # connect-then-close: a port probe
                return
            raise
        hello = Hello.deserialize(payload)
        session.set_name = hello.set_name
        if not 1 <= hello.n_sketches <= MAX_ESTIMATOR_SKETCHES:
            raise SerializationError(
                f"n_sketches={hello.n_sketches} outside "
                f"[1, {MAX_ESTIMATOR_SKETCHES}]"
            )
        shard = self.store.shard_for(hello.set_name)
        self.metrics.route_session(session, shard)
        # join the client's trace when its HELLO carries one; an
        # untraced client's session gets a server-rooted span tree
        session.trace = (
            TraceContext(hello.trace_id, hello.span_id)
            if hello.trace_id
            else None
        )
        with tracer().span(
            "server.session", session.trace,
            set=hello.set_name, shard=shard,
        ) as session_ctx:
            await self._session_body(
                stream, session, hello, shard, session_ctx
            )

    async def _session_body(
        self,
        stream: FramedStream,
        session: SessionMetrics,
        hello: Hello,
        shard: int,
        session_ctx,
    ) -> None:
        if not self.store.shard_available(shard):
            # the shard's worker process is down (crash + restart in
            # progress): shed before consuming an admission slot
            session.shed = True
            await self._send_retry(
                stream, shard, self.store.unavailable_retry_after_s,
                reason="worker restarting",
            )
            return
        if self.admission is not None:
            retry_after = self.admission.try_admit(shard)
            if retry_after is not None:
                session.shed = True
                await self._send_retry(stream, shard, retry_after)
                return
        # the slot is released while a multi-pass connection idles between
        # passes (see _admitted_session), so track whether we hold it
        holding = [self.admission is not None]
        try:
            await self._admitted_session(stream, session, hello, shard,
                                         holding, session_ctx)
        finally:
            if holding[0]:
                self.admission.release(shard)

    async def _admitted_session(
        self,
        stream: FramedStream,
        session: SessionMetrics,
        hello: Hello,
        shard: int,
        holding: list,
        session_ctx=None,
    ) -> None:
        existed = hello.set_name in self.store
        snapshot: Snapshot = await self.store.snapshot(
            hello.set_name, create_missing=self.create_missing
        )
        await stream.send(
            FrameType.WELCOME,
            Welcome(
                set_size=len(snapshot),
                created=not existed,
                set_version=snapshot.version,
            ).serialize(),
        )
        # One estimator per connection: its hash salts derive from the
        # HELLO seed, so repeat passes reuse it on both ends (§6.2).
        estimator = ToWEstimator(
            n_sketches=hello.n_sketches,
            seed=derive_seed(hello.seed, "estimator"),
            family=hello.family,
        )
        # Bob's O(l * |B|) sketch needs nothing from Alice, so it runs
        # now, while the client sketches A.  It is the sketch of the last
        # snapshot: a repeat pass re-sketches only when its snapshot's
        # key moved.  Keyed on (version, size): version alone could
        # collide if the set were replaced mid-connection via create().
        trc = tracer()
        sketch_key = (snapshot.version, len(snapshot))
        with trc.span("server.sketch", session_ctx):
            sketch_b = estimator.sketch(snapshot.values)

        # 2. Reconciliation passes: ESTIMATE/PARAMS, rounds, PUSH/RESULT —
        # repeated for as long as the client opens a new pass.
        for pass_no in range(1, MAX_PASSES + 1):
            if pass_no > 1:
                # an idle connection must not pin a capped shard: give the
                # admission slot back while waiting for the next pass and
                # re-admit (or shed with RETRY) when one actually opens
                if holding[0]:
                    self.admission.release(shard)
                    holding[0] = False
                try:
                    _, payload = await stream.recv(expect=FrameType.ESTIMATE)
                except asyncio.IncompleteReadError as exc:
                    if not exc.partial:
                        return   # clean end-of-connection between passes
                    raise
                if not self.store.shard_available(shard):
                    await self._send_retry(
                        stream, shard, self.store.unavailable_retry_after_s,
                        reason="worker restarting",
                    )
                    return
                if self.admission is not None:
                    retry_after = self.admission.try_admit(shard)
                    if retry_after is not None:
                        # not session.shed: passes already completed on
                        # this connection keep counting as completed work
                        # (admission stats still record the shed event)
                        await self._send_retry(stream, shard, retry_after)
                        return
                    holding[0] = True
                snapshot = await self.store.snapshot(
                    hello.set_name, create_missing=self.create_missing
                )
            else:
                _, payload = await stream.recv(expect=FrameType.ESTIMATE)
            with trc.span(
                "server.pass", session_ctx, pass_no=pass_no
            ) as pass_ctx:
                if (snapshot.version, len(snapshot)) != sketch_key:
                    sketch_key = (snapshot.version, len(snapshot))
                    with trc.span("server.sketch", pass_ctx):
                        sketch_b = estimator.sketch(snapshot.values)
                with trc.span("server.estimate", pass_ctx):
                    params, d_hat = self._negotiate_params(
                        estimator, hello, sketch_b, len(snapshot), payload
                    )
                session.d_hat = d_hat
                await stream.send(
                    FrameType.PARAMS,
                    ParamsAnnounce.from_params(
                        params,
                        d_hat,
                        set_size=len(snapshot),
                        set_version=snapshot.version,
                    ).serialize(),
                )
                await self._run_pass(stream, session, hello, shard,
                                     snapshot, params, pass_no, pass_ctx)
            # counted only once the pass's RESULT is on the wire, so
            # syncs_total means "reconciliations finished"
            session.syncs = pass_no

    async def _run_pass(
        self,
        stream: FramedStream,
        session: SessionMetrics,
        hello: Hello,
        shard: int,
        snapshot: Snapshot,
        params: PBSParams,
        pass_no: int,
        pass_ctx=None,
    ) -> None:
        """One reconciliation: sketch/reply rounds, then the union push."""
        bob = BobSession(
            snapshot.values,
            params,
            derive_seed(hello.seed, "session", pass_no),
        )
        # session.rounds accumulates over passes; clients restart their
        # round numbering every pass
        rounds_before = session.rounds
        sketches_served = 0
        try:
            while True:
                ftype, payload = await stream.recv(
                    round_no=session.rounds + 1
                )
                if ftype is FrameType.SKETCH:
                    # count frames served, not the client-announced round
                    # number — a client replaying round 1 forever must
                    # still trip the cap
                    sketches_served += 1
                    if sketches_served > MAX_ROUNDS:
                        raise SerializationError(
                            f"session exceeded {MAX_ROUNDS} rounds"
                        )
                    message = SketchMessage.deserialize(
                        payload, params.t, params.m
                    )
                    work = bob.begin_reply(message)
                    decoded, decode_share = await self._decode(
                        shard, params.codec, work.deltas, trace=pass_ctx
                    )
                    reply = bob.finish_reply(work, decoded, decode_share)
                    session.rounds = rounds_before + message.round_no
                    await stream.send(
                        FrameType.REPLY,
                        reply.serialize(params.t, params.m, params.log_u),
                        round_no=message.round_no,
                    )
                elif ftype is FrameType.PUSH:
                    push = Push.deserialize(payload)
                    session.success = push.success
                    applied = 0
                    if hello.bidirectional and push.success:
                        elements = np.asarray(push.elements, dtype=np.uint64)
                        bad = (elements < 1) | (
                            elements >= np.uint64(1 << params.log_u)
                        )
                        if bad.any():
                            # applying these would poison the set for every
                            # future session (_as_element_array rejects them)
                            raise SerializationError(
                                f"push contains {int(bad.sum())} elements "
                                f"outside [1, 2^{params.log_u})"
                            )
                        applied = await self.store.apply_diff(
                            hello.set_name, add=elements, trace=pass_ctx,
                        )
                    session.applied += applied
                    session.store_version = self.store.version(hello.set_name)
                    await stream.send(
                        FrameType.RESULT,
                        Result(
                            success=push.success,
                            applied=applied,
                            store_size=self.store.size(hello.set_name),
                            store_version=session.store_version,
                        ).serialize(),
                        round_no=session.rounds + 1,
                    )
                    return
                else:
                    raise SerializationError(
                        f"unexpected {ftype.name} frame mid-session"
                    )
        finally:
            session.encode_s += bob.encode_s
            session.decode_s += bob.decode_s

    def _negotiate_params(
        self,
        estimator: ToWEstimator,
        hello: Hello,
        sketch_b,
        size_b: int,
        estimate_payload: bytes,
    ) -> tuple[PBSParams, float]:
        """Estimate d from the client's ToW sketch, optimize (n, t, g).

        The design d is clamped to ``|A| + |B|``, which the true d can
        never exceed: a hostile ESTIMATE (a huge declared |A|, extreme
        sketch values) then cannot push the optimizer past what the two
        sets justify — at worst it raises ``ParameterError``, which ends
        the session with an ERROR frame.  γ, δ, r and p0 are the paper's
        values: the defaults of :meth:`ToWEstimator.conservative` and
        :meth:`PBSParams.from_d`.
        """
        (size_a,) = _unpack_from("<I", estimate_payload)
        # |A| may legitimately drift from hello.set_size on repeat passes;
        # the self-declared size in the ESTIMATE payload is authoritative.
        sketch_a = estimator.deserialize(estimate_payload[4:], size_a)
        d_hat = estimator.estimate(sketch_a, sketch_b)
        design_d = min(
            ToWEstimator.conservative(max(1, round(d_hat))),
            max(1, size_a + size_b),
        )
        params = PBSParams.from_d(design_d, log_u=hello.log_u)
        return params, d_hat
