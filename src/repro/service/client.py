"""The reconciliation client: drive AliceSessions over a socket.

:class:`ClientConnection` is the long-lived primitive: one connection,
one HELLO handshake, one Tug-of-War estimator — and as many
reconciliation *passes* as the caller wants (``repro sync --repeat``
drives it periodically; each pass sends a fresh ESTIMATE and runs a full
sketch/reply/push exchange against a fresh server-side snapshot).

:func:`sync_with_server` is the one-shot wrapper (many of them can run
concurrently against one server — that is the whole point of the
service) and honors the server's admission control: when the session is
shed with a RETRY frame it backs off with jitter and tries again, up to
``retries`` times, before letting :class:`ServerBusy` escape.
:func:`sync_once` is the blocking convenience wrapper.

Each pass returns a
:class:`~repro.transport.runner.ReconciliationResult` carrying the
client-side view: ``encode_s``/``decode_s`` are Alice's (the server
aggregates Bob's in its own metrics), the channel is a fresh
:class:`~repro.service.wire.FramedChannel` per pass so payload
accounting matches the in-process protocol while framing overhead is
reported separately.  ``extra`` carries the server-side convergence
signals: ``snapshot_version`` (the store version the pass reconciled
against) and ``store_version`` (after its push landed) — equal versions
across a quiet re-sync mean the set has converged.
"""

from __future__ import annotations

import asyncio
import struct
import time

import numpy as np

from repro.core.elements import contains, element_array
from repro.core.messages import ReplyMessage
from repro.core.sessions import AliceSession, _as_element_array
from repro.errors import SerializationError
from repro.estimators.tow import ToWEstimator
from repro.obs.metrics import PASS_DURATION, REGISTRY
from repro.obs.trace import TraceContext, tracer
from repro.service.wire import (
    FramedChannel,
    FramedStream,
    FrameType,
    Hello,
    ParamsAnnounce,
    Push,
    Result,
    Retry,
    ServerBusy,
    Welcome,
    backoff_or_raise,
)
from repro.transport.runner import ReconciliationResult
from repro.utils.seeds import derive_seed

#: Safety cap for "run as many rounds as needed" mode, as in the in-process
#: driver (Appendix J.1).
_UNLIMITED_ROUNDS = 64

_SEED_MASK = (1 << 64) - 1


class ClientConnection:
    """One persistent connection supporting repeated reconciliations.

    Lifecycle: :meth:`connect` (HELLO/WELCOME; raises
    :class:`ServerBusy` if shed with RETRY), then any number of
    :meth:`sync` passes (each a full ESTIMATE/PARAMS + rounds + PUSH/
    RESULT exchange against a fresh server snapshot; later passes may
    also raise :class:`ServerBusy`, after which the server has closed
    the connection), then :meth:`close`.  Usable as an async context
    manager.  :attr:`welcome` holds the handshake ack, :attr:`passes`
    the number of syncs issued.

    >>> # inside a coroutine:
    >>> # async with ClientConnection(host, port, set_name="inv") as conn:
    >>> #     first = await conn.sync(my_values)
    >>> #     ...
    >>> #     again = await conn.sync(my_values | first.difference)
    """

    def __init__(
        self,
        host: str,
        port: int,
        set_name: str = "default",
        seed: int = 0,
        n_sketches: int = 128,
        family: str = "fast",
        log_u: int = 32,
        bidirectional: bool = True,
        batch: bool = True,
        connect_timeout: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.set_name = set_name
        self.seed = seed & _SEED_MASK
        self.n_sketches = n_sketches
        self.family = family
        self.log_u = log_u
        self.bidirectional = bidirectional
        self.batch = batch
        #: dial + HELLO/WELCOME deadline in seconds (None = no deadline);
        #: open-loop drivers set this so a stalled server surfaces as a
        #: counted TimeoutError instead of a silently parked session
        self.connect_timeout = connect_timeout
        self.welcome: Welcome | None = None
        self.passes = 0
        self._stream: FramedStream | None = None
        self._estimator: ToWEstimator | None = None
        #: root trace context for this connection (None unless this
        #: process has tracing configured); its ids ride the HELLO
        self.trace: TraceContext | None = None
        self._session_ts = 0.0       # wall clock at connect (span ts)
        self._session_start = 0.0    # perf_counter at connect (span dur)

    # -- lifecycle -------------------------------------------------------------
    async def connect(self) -> Welcome:
        """Open the connection and run HELLO/WELCOME.

        Raises :class:`ServerBusy` (with the server's suggested delay)
        when admission control sheds the session with a RETRY frame.
        """
        # mint the session's trace identity before dialing: the ids ride
        # the HELLO trailer so server and worker spans join this trace
        self.trace = tracer().mint()
        self._session_ts = time.time()
        self._session_start = time.perf_counter()
        if self.connect_timeout is not None:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                timeout=self.connect_timeout,
            )
        else:
            reader, writer = await asyncio.open_connection(
                self.host, self.port
            )
        stream = FramedStream(reader, writer, FramedChannel(), role="alice")
        try:
            await stream.send(
                FrameType.HELLO,
                Hello(
                    set_name=self.set_name,
                    seed=self.seed,
                    n_sketches=self.n_sketches,
                    family=self.family,
                    log_u=self.log_u,
                    bidirectional=self.bidirectional,
                    trace_id=self.trace.trace_id if self.trace else 0,
                    span_id=self.trace.span_id if self.trace else 0,
                ).serialize(),
            )
            ftype, payload = await stream.recv()
            if ftype is FrameType.RETRY:
                retry = Retry.deserialize(payload)
                raise ServerBusy(retry.retry_after_s, retry.message)
            if ftype is not FrameType.WELCOME:
                raise SerializationError(
                    f"expected WELCOME frame, got {ftype.name}"
                )
            self.welcome = Welcome.deserialize(payload)
        except BaseException:
            await stream.close()
            raise
        self._stream = stream
        # one estimator per connection, reused across passes — the server
        # derives the identical salts from the HELLO seed
        self._estimator = ToWEstimator(
            n_sketches=self.n_sketches,
            seed=derive_seed(self.seed, "estimator"),
            family=self.family,
        )
        return self.welcome

    async def close(self) -> None:
        if self._stream is not None:
            await self._stream.close()
            self._stream = None
            if self.trace is not None:
                tracer().emit(
                    "client.session", self.trace, None,
                    self._session_ts,
                    time.perf_counter() - self._session_start,
                    set=self.set_name, passes=self.passes,
                )

    async def __aenter__(self) -> "ClientConnection":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # -- one reconciliation pass -----------------------------------------------
    async def sync(
        self, values, max_rounds: int | None = None
    ) -> ReconciliationResult:
        """Reconcile ``values`` against the server's set: one full pass."""
        if self._stream is None or self._estimator is None:
            raise SerializationError("connect() before sync()")
        stream = self._stream
        self.passes += 1
        pass_no = self.passes
        pass_ts = time.time()
        pass_start = time.perf_counter()
        # fresh per-pass accounting (the paper's byte counters are per
        # reconciliation, not per connection)
        stream.channel = FramedChannel()
        arr = _as_element_array(values, self.log_u)

        # 1. ESTIMATE / PARAMS (§6.2 handshake, client side).  On passes
        # after the first the server re-admits the connection, so RETRY
        # can arrive here too (the server closes after sending it).
        sketch_a = self._estimator.sketch(arr)
        await stream.send(
            FrameType.ESTIMATE,
            struct.pack("<I", len(arr))
            + self._estimator.serialize(sketch_a, len(arr)),
        )
        ftype, payload = await stream.recv()
        if ftype is FrameType.RETRY:
            retry = Retry.deserialize(payload)
            await self.close()
            raise ServerBusy(retry.retry_after_s, retry.message)
        if ftype is not FrameType.PARAMS:
            raise SerializationError(
                f"expected PARAMS frame, got {ftype.name}"
            )
        announce = ParamsAnnounce.deserialize(payload)
        params = announce.to_params()

        # 2. Rounds
        alice = AliceSession(
            arr,
            params,
            derive_seed(self.seed, "session", pass_no),
            batch=self.batch,
        )
        budget = max_rounds if max_rounds is not None else params.r
        if budget < 1:
            budget = _UNLIMITED_ROUNDS
        rounds_used = 0
        for round_no in range(1, budget + 1):
            if alice.done:
                break
            message = alice.build_sketch_message(round_no)
            await stream.send(
                FrameType.SKETCH,
                message.serialize(params.t, params.m),
                round_no=round_no,
            )
            _, payload = await stream.recv(
                expect=FrameType.REPLY, round_no=round_no
            )
            reply = ReplyMessage.deserialize(
                payload, params.t, params.m, params.log_u
            )
            alice.handle_reply(reply, round_no)
            rounds_used = round_no

        # 3. Union push + final ack.  One-way syncs still send an (empty)
        # PUSH so the server sees a clean pass end, not an EOF.
        difference = alice.difference()
        extra: dict = {
            "params": params,
            "d_hat": announce.d_hat,
            "set_name": self.set_name,
            "pass_no": pass_no,
            "server_set_size": announce.set_size,
            "snapshot_version": announce.set_version,
        }
        if self.bidirectional:
            a_only = element_array(difference)
            a_only = a_only[contains(arr, a_only)]
        else:
            a_only = np.empty(0, dtype=np.uint64)
        await stream.send(
            FrameType.PUSH,
            Push(success=alice.done, elements=a_only).serialize(),
            round_no=rounds_used + 1,
        )
        _, payload = await stream.recv(
            expect=FrameType.RESULT, round_no=rounds_used + 1
        )
        ack = Result.deserialize(payload)
        extra["store_version"] = ack.store_version
        if self.bidirectional:
            extra["applied"] = ack.applied
            extra["server_set_size_after"] = ack.store_size

        # client-observed pass latency: ESTIMATE sent to RESULT received
        elapsed = time.perf_counter() - pass_start
        REGISTRY.histogram(PASS_DURATION).record(elapsed)
        if self.trace is not None:
            trc = tracer()
            trc.emit(
                "client.pass", trc.child(self.trace), self.trace,
                pass_ts, elapsed,
                pass_no=pass_no, rounds=rounds_used,
            )

        return ReconciliationResult(
            success=alice.done,
            difference=difference,
            rounds=rounds_used,
            channel=stream.channel,
            encode_s=alice.encode_s,
            decode_s=alice.decode_s,
            extra=extra,
        )


async def sync_with_server(
    host: str,
    port: int,
    values,
    set_name: str = "default",
    seed: int = 0,
    max_rounds: int | None = None,
    n_sketches: int = 128,
    family: str = "fast",
    log_u: int = 32,
    bidirectional: bool = True,
    batch: bool = True,
    retries: int = 0,
    retry_base_s: float = 0.05,
) -> ReconciliationResult:
    """Reconcile ``values`` against the server's ``set_name`` set, once.

    The client learns ``A xor B`` (its result difference); with
    ``bidirectional=True`` (the default) it also pushes ``A \\ B`` so the
    server's set grows to the union.  ``A ∪ difference`` is then the full
    union on the client side.

    When the server sheds the session (admission control, RETRY frame),
    up to ``retries`` reconnect attempts are made after a jittered
    backoff seeded by the server's suggested delay; the final
    :class:`ServerBusy` escapes if the server stays saturated.
    """
    attempt = 0
    while True:
        conn = ClientConnection(
            host,
            port,
            set_name=set_name,
            seed=seed,
            n_sketches=n_sketches,
            family=family,
            log_u=log_u,
            bidirectional=bidirectional,
            batch=batch,
        )
        try:
            await conn.connect()
        except ServerBusy as busy:
            if not busy.retry_after_s:
                busy.retry_after_s = retry_base_s
            await backoff_or_raise(busy, attempt, retries)
            attempt += 1
            continue
        try:
            return await conn.sync(values, max_rounds=max_rounds)
        finally:
            await conn.close()


def sync_once(host: str, port: int, values, **kwargs) -> ReconciliationResult:
    """Blocking wrapper around :func:`sync_with_server` (used by the CLI)."""
    return asyncio.run(sync_with_server(host, port, values, **kwargs))
