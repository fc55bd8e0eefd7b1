"""Length-prefixed framing for the reconciliation service.

The in-process :class:`~repro.transport.channel.Channel` moves *payload*
bytes — exactly what the paper counts as "data transmitted".  To run the
same messages over a real byte stream the service wraps each payload in a
frame::

    | length (4 bytes, big-endian) | type (1 byte) | payload ... |

where ``length`` covers the type byte plus the payload.  Framing is
transport overhead the paper does not charge, so :class:`FramedChannel`
(a :class:`Channel` subclass) keeps the paper's payload accounting intact
and tallies header bytes separately in :attr:`FramedChannel.framing_bytes`.

Control messages that exist only in the service (session hello, parameter
announcement, union push, final ack) are small struct-packed dataclasses
defined here; the per-round :class:`~repro.core.messages.SketchMessage` /
:class:`~repro.core.messages.ReplyMessage` payloads reuse the bit-packed
wire format of :mod:`repro.core.messages` unchanged.
"""

from __future__ import annotations

import asyncio
import enum
import random
import struct
from dataclasses import dataclass

import numpy as np

from repro.core.params import PBSParams
from repro.errors import ReproError, SerializationError
from repro.transport.channel import Channel, Direction

#: Protocol version — bumped on any incompatible change to the frames or
#: to what their fields mean.
#: v2: RETRY frame (admission control), set-version fields on
#: WELCOME/PARAMS/RESULT, and multi-pass sessions (a client may send a
#: fresh ESTIMATE after RESULT to re-sync on the same connection).
#: v3: trace-context trailer (trace id + span id) on HELLO for
#: cross-process span trees.
#: v4: the bit-sliced ``"fast"`` Tug-of-War family (64 sketches per
#: hash pass).  A v3 peer sketches with the old family, so its estimates
#: would silently disagree; only this exact version is served.
WIRE_VERSION = 4

#: Bytes added to every payload by the frame header (length + type).
FRAME_HEADER_BYTES = 5

#: Upper bound on one frame's body; a peer announcing more is protocol abuse.
MAX_FRAME_BYTES = 1 << 26


class FrameType(enum.IntEnum):
    """Discriminator byte of one frame."""

    HELLO = 1        #: client -> server: session opening (set name, seed, ...)
    WELCOME = 2      #: server -> client: hello accepted
    ESTIMATE = 3     #: client -> server: Tug-of-War sketch (§6.2 handshake)
    PARAMS = 4       #: server -> client: d_hat + the negotiated PBSParams
    SKETCH = 5       #: client -> server: one round's SketchMessage
    REPLY = 6        #: server -> client: one round's ReplyMessage
    PUSH = 7         #: client -> server: A \\ B elements (bidirectional sync)
    RESULT = 8       #: server -> client: final ack (applied count, store size)
    RETRY = 9        #: server -> client: shed at admission; back off, retry
    ERROR = 15       #: either direction: fatal error, then close


#: Channel label per frame type — "estimator" keeps the handshake excludable
#: from communication figures exactly as the paper's accounting does (§6.2).
FRAME_LABELS: dict[FrameType, str] = {
    FrameType.HELLO: "control",
    FrameType.WELCOME: "control",
    FrameType.ESTIMATE: "estimator",
    FrameType.PARAMS: "estimator",
    FrameType.SKETCH: "sketch",
    FrameType.REPLY: "reply",
    FrameType.PUSH: "union-push",
    FrameType.RESULT: "control",
    FrameType.RETRY: "control",
    FrameType.ERROR: "control",
}

_HASH_FAMILIES = ("fourwise", "fast")


def _unpack_from(fmt: str, data: bytes, offset: int = 0) -> tuple:
    """struct.unpack_from that reports malformed payloads as protocol errors
    (a raw ``struct.error`` from peer-controlled bytes would escape the
    server's error handling and crash the connection task)."""
    try:
        return struct.unpack_from(fmt, data, offset)
    except struct.error as exc:
        raise SerializationError(f"malformed control payload: {exc}") from exc


def encode_frame(
    ftype: FrameType, payload: bytes, max_bytes: int = MAX_FRAME_BYTES
) -> bytes:
    """One wire frame: big-endian length, type byte, payload.

    ``max_bytes`` is the abuse cap for this frame's body — the client
    protocol default, or the larger internal-RPC bound
    (:data:`repro.cluster.proc.RPC_MAX_FRAME_BYTES`) for same-host
    worker traffic such as a recovered shard's state dump.
    """
    body_len = 1 + len(payload)
    if body_len > max_bytes:
        raise SerializationError(f"frame body of {body_len} bytes exceeds cap")
    return struct.pack("!IB", body_len, int(ftype)) + payload


def decode_frames(buffer: bytes) -> list[tuple[FrameType, bytes]]:
    """Split a byte string of back-to-back frames (offline/testing helper)."""
    out: list[tuple[FrameType, bytes]] = []
    view = memoryview(buffer)
    while len(view):
        if len(view) < FRAME_HEADER_BYTES:
            raise SerializationError("truncated frame header")
        (body_len,) = struct.unpack_from("!I", view)
        if body_len < 1 or body_len > MAX_FRAME_BYTES:
            raise SerializationError(f"bad frame length {body_len}")
        if len(view) < 4 + body_len:
            raise SerializationError("truncated frame body")
        out.append(
            (FrameType(view[4]), bytes(view[5 : 4 + body_len]))
        )
        view = view[4 + body_len :]
    return out


async def read_frame(
    reader: asyncio.StreamReader,
    frame_enum: type = None,
    max_bytes: int = MAX_FRAME_BYTES,
) -> tuple[FrameType, bytes]:
    """Read exactly one frame from a stream.

    Raises :class:`asyncio.IncompleteReadError` on EOF mid-frame and
    :class:`SerializationError` on a malformed header.

    ``frame_enum`` selects which discriminator enum the type byte is
    decoded against — :class:`FrameType` (the client protocol) by
    default.  The subprocess shard executor
    (:mod:`repro.cluster.proc`) reuses the identical framing for its
    internal RPC with its own type enum and a larger ``max_bytes``.
    """
    frame_enum = frame_enum if frame_enum is not None else FrameType
    header = await reader.readexactly(4)
    (body_len,) = struct.unpack("!I", header)
    if body_len < 1 or body_len > max_bytes:
        raise SerializationError(f"bad frame length {body_len}")
    body = await reader.readexactly(body_len)
    try:
        ftype = frame_enum(body[0])
    except ValueError as exc:
        raise SerializationError(f"unknown frame type {body[0]}") from exc
    return ftype, body[1:]


# -- control messages ----------------------------------------------------------

@dataclass
class Hello:
    """Client session opening: which set, and the shared randomness.

    |A| is deliberately *not* here: every reconciliation pass declares
    its own size in its ESTIMATE payload (it may drift between passes of
    a ``--repeat`` connection), so HELLO carries only per-connection
    facts.
    """

    set_name: str
    seed: int                 #: session seed both sides derive salts from
    n_sketches: int = 128     #: Tug-of-War sketch count l
    family: str = "fast"      #: ToW hash family ("fourwise" | "fast")
    log_u: int = 32
    bidirectional: bool = True
    version: int = WIRE_VERSION
    #: Trace context (trace id, span id), or ``(0, 0)`` when the client
    #: is not tracing; a trailer after the set name.
    trace_id: int = 0
    span_id: int = 0

    def serialize(self) -> bytes:
        if not 0 <= self.seed < (1 << 64):
            raise SerializationError(f"seed {self.seed} not a u64")
        if self.family not in _HASH_FAMILIES:
            raise SerializationError(f"unknown hash family {self.family!r}")
        name = self.set_name.encode("utf-8")
        if len(name) > 0xFFFF:
            raise SerializationError("set name too long")
        return (
            struct.pack(
                "!BQHBB?",
                self.version,
                self.seed,
                self.n_sketches,
                _HASH_FAMILIES.index(self.family),
                self.log_u,
                self.bidirectional,
            )
            + struct.pack("!H", len(name))
            + name
            + struct.pack("!QQ", self.trace_id, self.span_id)
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "Hello":
        fixed = struct.calcsize("!BQHBB?")
        version, seed, n_sketches, family_ix, log_u, bidi = (
            _unpack_from("!BQHBB?", data)
        )
        if version != WIRE_VERSION:
            raise SerializationError(
                f"peer speaks wire version {version}, this build serves "
                f"only {WIRE_VERSION}"
            )
        if family_ix >= len(_HASH_FAMILIES):
            raise SerializationError(f"unknown hash family index {family_ix}")
        (name_len,) = _unpack_from("!H", data, fixed)
        raw_name = data[fixed + 2 : fixed + 2 + name_len]
        if len(raw_name) != name_len:
            raise SerializationError("truncated set name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SerializationError(f"set name not UTF-8: {exc}") from exc
        trace_id, span_id = _unpack_from("!QQ", data, fixed + 2 + name_len)
        return cls(
            set_name=name,
            seed=seed,
            n_sketches=n_sketches,
            family=_HASH_FAMILIES[family_ix],
            log_u=log_u,
            bidirectional=bidi,
            version=version,
            trace_id=trace_id,
            span_id=span_id,
        )


@dataclass
class Welcome:
    """Server's hello ack: the snapshot the session reconciles against."""

    set_size: int         #: |B| at snapshot time
    created: bool         #: True when the named set did not exist before
    set_version: int = 0  #: store version of the snapshot (race detection)
    version: int = WIRE_VERSION

    def serialize(self) -> bytes:
        return struct.pack(
            "!BI?Q", self.version, self.set_size, self.created,
            self.set_version,
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "Welcome":
        version, set_size, created, set_version = _unpack_from("!BI?Q", data)
        return cls(set_size=set_size, created=created,
                   set_version=set_version, version=version)


@dataclass
class ParamsAnnounce:
    """Server -> client: the estimate and the resulting parameter set.

    Announcing (n, t, g, ...) explicitly — rather than having the client
    re-run the optimizer on d_hat — makes the server authoritative and
    keeps a version-skewed client from deriving mismatched parameters.

    On multi-pass connections (``repro sync --repeat``) the server takes
    a *fresh* snapshot per pass, so PARAMS also carries the snapshot's
    size and store version — the per-pass equivalent of WELCOME.
    """

    d_hat: float
    n: int
    t: int
    g: int
    delta: int
    r: int
    p0: float
    log_u: int = 32
    set_size: int = 0     #: |B| of this pass's snapshot
    set_version: int = 0  #: store version of this pass's snapshot

    _FMT = "!dIIIHHdBIQ"

    def serialize(self) -> bytes:
        return struct.pack(
            self._FMT, self.d_hat, self.n, self.t, self.g,
            self.delta, self.r, self.p0, self.log_u,
            self.set_size, self.set_version,
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "ParamsAnnounce":
        (d_hat, n, t, g, delta, r, p0, log_u, set_size, set_version) = (
            _unpack_from(cls._FMT, data)
        )
        return cls(d_hat=d_hat, n=n, t=t, g=g, delta=delta, r=r, p0=p0,
                   log_u=log_u, set_size=set_size, set_version=set_version)

    @classmethod
    def from_params(
        cls,
        params: PBSParams,
        d_hat: float,
        set_size: int = 0,
        set_version: int = 0,
    ) -> "ParamsAnnounce":
        return cls(
            d_hat=d_hat, n=params.n, t=params.t, g=params.g,
            delta=params.delta, r=params.r, p0=params.p0, log_u=params.log_u,
            set_size=set_size, set_version=set_version,
        )

    def to_params(self) -> PBSParams:
        return PBSParams(
            n=self.n, t=self.t, g=self.g, delta=self.delta,
            r=self.r, p0=self.p0, log_u=self.log_u,
        )


@dataclass
class Push:
    """Client -> server: the elements of A \\ B, completing the union."""

    success: bool             #: did the client's checksums all verify?
    elements: np.ndarray      #: uint64 elements the server is missing

    def serialize(self) -> bytes:
        # big-endian on the wire, like every other field in the format
        arr = np.ascontiguousarray(self.elements, dtype=">u8")
        return struct.pack("!?I", self.success, len(arr)) + arr.tobytes()

    @classmethod
    def deserialize(cls, data: bytes) -> "Push":
        success, count = _unpack_from("!?I", data)
        if len(data) < 5 + 8 * count:
            raise SerializationError(
                f"push announces {count} elements, payload has "
                f"{(len(data) - 5) // 8}"
            )
        elements = np.frombuffer(data, dtype=">u8", count=count, offset=5)
        return cls(
            success=success, elements=elements.astype(np.uint64)
        )


@dataclass
class Result:
    """Server -> client: final ack after the push was applied.

    ``store_version`` is the set's mutation counter after this session's
    diff landed; comparing it against the snapshot version announced in
    WELCOME/PARAMS tells the client whether concurrent sessions raced it
    (version advanced by more than its own apply) and a second pass is
    needed for full convergence.
    """

    success: bool
    applied: int          #: elements newly added to the server's set
    store_size: int       #: live set size after applying
    store_version: int = 0  #: set version after this session's apply

    def serialize(self) -> bytes:
        return struct.pack(
            "!?IIQ", self.success, self.applied, self.store_size,
            self.store_version,
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "Result":
        success, applied, store_size, store_version = _unpack_from(
            "!?IIQ", data
        )
        return cls(success=success, applied=applied, store_size=store_size,
                   store_version=store_version)


@dataclass
class Retry:
    """Server -> client: admission control shed this session; back off.

    Sent instead of WELCOME when the target shard is at its session or
    decode-queue cap, then the connection closes.  ``retry_after_s`` is
    the server's suggested minimum delay; clients add jitter on top
    (:func:`retry_delay`).
    """

    retry_after_s: float
    message: str = ""

    def serialize(self) -> bytes:
        return struct.pack("!d", self.retry_after_s) + self.message.encode(
            "utf-8"
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "Retry":
        (retry_after_s,) = _unpack_from("!d", data)
        return cls(
            retry_after_s=retry_after_s,
            message=data[8:].decode("utf-8", errors="replace"),
        )


class ServerBusy(ReproError):
    """Raised client-side when the server sheds the session with RETRY."""

    def __init__(self, retry_after_s: float, message: str = "") -> None:
        super().__init__(
            message or f"server busy, retry after {retry_after_s:.3f}s"
        )
        self.retry_after_s = retry_after_s


#: Ceiling for client backoff growth (seconds).
MAX_BACKOFF_S = 2.0


def retry_delay(base_s: float, attempt: int, rng=None) -> float:
    """Jittered exponential backoff for honoring a RETRY frame.

    ``base_s`` is the server's suggested delay (or a client default),
    doubled per attempt and scattered uniformly in [0.5x, 1.5x] so a
    burst of shed clients does not return as the same thundering herd
    that was just shed.
    """
    # repro: ignore[unseeded-rng] -- production backoff jitter is
    # deliberately nondeterministic; deterministic callers (tests, the
    # loadgen driver) inject their own seeded rng
    rng = rng if rng is not None else random
    delay = min(MAX_BACKOFF_S, max(0.001, base_s) * (2 ** attempt))
    return delay * (0.5 + rng.random())


async def backoff_or_raise(
    busy: ServerBusy, attempt: int, retries: int, rng=None
) -> None:
    """The one RETRY-honoring policy: sleep :func:`retry_delay` seeded by
    the server's hint, or re-raise ``busy`` once the budget is spent.

    Every shed-and-retry loop (one-shot client, CLI repeat loop, bench
    fleets) routes through here so the backoff policy cannot silently
    diverge between them.
    """
    if attempt >= retries:
        raise busy
    await asyncio.sleep(retry_delay(busy.retry_after_s, attempt, rng))


@dataclass
class Error:
    """A fatal error; the sender closes the connection after this frame."""

    message: str

    def serialize(self) -> bytes:
        return self.message.encode("utf-8")

    @classmethod
    def deserialize(cls, data: bytes) -> "Error":
        return cls(message=data.decode("utf-8", errors="replace"))


#: Control-message class per frame type (SKETCH/REPLY payloads are the
#: bit-packed core messages and are parameterized by (t, m, log_u)).
CONTROL_MESSAGES: dict[FrameType, type] = {
    FrameType.HELLO: Hello,
    FrameType.WELCOME: Welcome,
    FrameType.PARAMS: ParamsAnnounce,
    FrameType.PUSH: Push,
    FrameType.RESULT: Result,
    FrameType.RETRY: Retry,
    FrameType.ERROR: Error,
}


# -- accounting ---------------------------------------------------------------

@dataclass
class FramedChannel(Channel):
    """A :class:`Channel` that also tallies frame-header overhead.

    ``send`` (payload accounting) is inherited unchanged, so every
    consumer of the paper's byte accounting — benchmarks, results,
    ``bytes_by_label`` — works on service runs too; the service's extra
    header bytes accumulate in :attr:`framing_bytes` and never pollute
    the payload figures.
    """

    framing_bytes: int = 0
    frames: int = 0

    def record_frame(
        self,
        direction: Direction,
        payload: bytes,
        round_no: int = 0,
        label: str = "",
    ) -> None:
        """Account one frame: payload via :meth:`send`, header separately."""
        self.send(direction, payload, round_no=round_no, label=label)
        self.framing_bytes += FRAME_HEADER_BYTES
        self.frames += 1

    @property
    def wire_bytes(self) -> int:
        """Everything that actually crossed the socket."""
        return self.total_bytes + self.framing_bytes


class FramedStream:
    """One peer's framed view of an asyncio stream, with accounting.

    ``role`` is ``"alice"`` (client) or ``"bob"`` (server) and fixes which
    :class:`Direction` outgoing frames are recorded under.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        channel: FramedChannel | None = None,
        role: str = "alice",
    ) -> None:
        if role not in ("alice", "bob"):
            raise SerializationError(f"role must be alice|bob, got {role!r}")
        self.reader = reader
        self.writer = writer
        self.channel = channel if channel is not None else FramedChannel()
        self._out = (
            Direction.ALICE_TO_BOB if role == "alice" else Direction.BOB_TO_ALICE
        )
        self._in = (
            Direction.BOB_TO_ALICE if role == "alice" else Direction.ALICE_TO_BOB
        )

    async def send(
        self, ftype: FrameType, payload: bytes, round_no: int = 0
    ) -> None:
        self.channel.record_frame(
            self._out, payload, round_no=round_no, label=FRAME_LABELS[ftype]
        )
        self.writer.write(encode_frame(ftype, payload))
        await self.writer.drain()

    async def recv(
        self, expect: FrameType | None = None, round_no: int = 0
    ) -> tuple[FrameType, bytes]:
        ftype, payload = await read_frame(self.reader)
        self.channel.record_frame(
            self._in, payload, round_no=round_no, label=FRAME_LABELS[ftype]
        )
        if ftype is FrameType.ERROR and expect is not FrameType.ERROR:
            raise SerializationError(
                f"peer error: {Error.deserialize(payload).message}"
            )
        if expect is not None and ftype is not expect:
            raise SerializationError(
                f"expected {expect.name} frame, got {ftype.name}"
            )
        return ftype, payload

    async def close(self) -> None:
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError):
            # peer already gone, or the event loop itself is tearing down
            # (idle multi-pass connections live until EOF, so their tasks
            # can be reaped at loop shutdown)
            pass
