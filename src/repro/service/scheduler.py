"""Cross-session decode coalescing.

The batched :class:`~repro.bch.batch.BatchBCHDecoder` costs a few array
operations per Berlekamp–Massey step whatever the number of groups, so it
gains the most on *many* groups per call — but one small session brings
only a handful of groups per round (and below 4 groups
:meth:`BCHCodec.decode_many` falls back to the scalar loop outright).
Under concurrency the server can do better: the ``(groups, t)`` delta
arrays of sessions that arrive within a small window are concatenated
into one ``decode_many`` call over the *union* of their groups, which
reaches batch scale even when every individual session is tiny; each
session gets back its own rows of the packed
:class:`~repro.bch.batch.Decoded` result.

Submissions are grouped by codec shape ``(field, m, t)`` — any two PBS
sessions designed for the same difference scale share a shape, and rows
from different codecs of the same shape are interchangeable because the
sketch format depends only on the field and capacity.

The coalescer runs wherever the decoding happens: in the server process
(inline shard executor — one coalescer spanning every shard's sessions)
or inside each shard worker subprocess (``repro serve --workers proc`` —
one coalescer per worker, batching that shard's concurrent sessions; see
:mod:`repro.cluster.proc`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from repro.bch.batch import Decoded
from repro.bch.codec import BCHCodec
from repro.obs.logs import get_logger, slow_op_threshold_s
from repro.obs.metrics import DECODE_BATCH, REGISTRY
from repro.obs.trace import tracer

log = get_logger("decode")

#: Default coalescing window: long enough to catch peers of the same round
#: burst, short enough to be invisible next to a WAN round-trip.
DEFAULT_WINDOW_S = 0.002


def _as_submitted(decoded: Decoded, deltas: np.ndarray | list) -> Decoded | list:
    """``decoded`` in the form ``BCHCodec.decode_many`` returns for
    ``deltas``: packed for an array, element lists for a list."""
    return decoded if isinstance(deltas, np.ndarray) else decoded.tolist()


@dataclass
class _Submission:
    codec: BCHCodec
    deltas: np.ndarray | list  #: ``(groups, t)`` sketch deltas
    future: asyncio.Future
    trace: object = None      #: submitting pass's TraceContext, if any


@dataclass
class CoalescerStats:
    """Aggregate counters, exposed through the service metrics snapshot."""

    submissions: int = 0        #: decode() calls
    batches: int = 0            #: decode_many calls actually issued
    coalesced_batches: int = 0  #: batches that merged >= 2 sessions
    groups: int = 0             #: total sketch rows decoded
    max_sessions_per_batch: int = 0
    decode_s: float = 0.0       #: engine seconds inside decode_many

    def to_dict(self) -> dict:
        return {
            "submissions": self.submissions,
            "batches": self.batches,
            "coalesced_batches": self.coalesced_batches,
            "groups": self.groups,
            "max_sessions_per_batch": self.max_sessions_per_batch,
            "decode_s": self.decode_s,
            "mean_sessions_per_batch": (
                self.submissions / self.batches if self.batches else 0.0
            ),
        }


class DecodeCoalescer:
    """Collects decode work across sessions and batches it per window.

    The first submission of a codec shape opens a window; every further
    submission of that shape before the window closes joins the batch.
    When the window fires, all collected rows go through *one*
    ``decode_many`` call and the results are scattered back.  A window
    that caught a single session degenerates to exactly the per-session
    call (the fallback path, also used throughout when ``window_s`` is
    0, and without any window for a ``lone`` submission that finds none
    open).
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S) -> None:
        self.window_s = window_s
        self.enabled = window_s > 0
        self.stats = CoalescerStats()
        self._pending: dict[tuple, list[_Submission]] = {}
        # flush tasks need a strong reference until they run (asyncio only
        # keeps weak ones)
        self._flushers: set[asyncio.Task] = set()

    @staticmethod
    def _shape(codec: BCHCodec) -> tuple:
        return (type(codec.field).__name__, codec.field.m, codec.t)

    async def decode(
        self, codec: BCHCodec, deltas: np.ndarray | list, trace=None,
        lone: bool = False,
    ) -> tuple[Decoded | list, float]:
        """Decode one session's ``(groups, t)`` sketch deltas, possibly in
        a shared batch.

        Returns ``(decoded, seconds)`` where ``decoded`` aligns with
        ``deltas`` row by row (in the form ``BCHCodec.decode_many``
        returns: packed for an array, lists for a list of sketches) and
        ``seconds`` is this session's proportional share of the engine
        time of whatever batch served it — suitable for
        ``BobSession.finish_reply``.  ``trace``
        (the submitting pass's span context, if any) parents the
        decode-batch span; a merged batch is parented on its *first*
        submission's trace, with the session count in the span args.
        ``lone`` says no other session can submit before the window
        would close (the server's only open connection, or in a shard
        worker the only open session on its shard): unless a window of
        this shape is already open, the rows decode at once.
        """
        self.stats.submissions += 1
        if not len(deltas):
            return _as_submitted(Decoded.from_rows([], codec.t), deltas), 0.0
        key = self._shape(codec)
        if not self.enabled or (lone and key not in self._pending):
            return self._direct(codec, deltas, trace)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        bucket = self._pending.setdefault(key, [])
        bucket.append(_Submission(codec, deltas, future, trace))
        if len(bucket) == 1:
            task = asyncio.create_task(self._flush_after_window(key))
            self._flushers.add(task)
            task.add_done_callback(self._flushers.discard)
        return await future

    def _direct(
        self, codec: BCHCodec, deltas: np.ndarray | list, trace=None
    ) -> tuple[Decoded | list, float]:
        ts = time.time()
        start = time.perf_counter()
        decoded = codec.decode_many(deltas)
        elapsed = time.perf_counter() - start
        self.stats.batches += 1
        self.stats.groups += len(deltas)
        self.stats.max_sessions_per_batch = max(
            self.stats.max_sessions_per_batch, 1
        )
        self.stats.decode_s += elapsed
        self._observe(ts, elapsed, groups=len(deltas), sessions=1,
                      trace=trace)
        return decoded, elapsed

    def _observe(
        self, ts: float, elapsed: float, groups: int, sessions: int,
        trace=None,
    ) -> None:
        """One batch's telemetry: histogram, span, slow-op WARNING."""
        REGISTRY.histogram(DECODE_BATCH).record(elapsed)
        trc = tracer()
        if trc.enabled:
            trc.emit(
                "decode.batch", trc.child(trace) or trc.mint(), trace,
                ts, elapsed, groups=groups, sessions=sessions,
            )
        if elapsed >= slow_op_threshold_s():
            log.warning(
                "slow decode batch",
                extra={
                    "elapsed_ms": round(elapsed * 1e3, 3),
                    "groups": groups,
                    "sessions": sessions,
                    "trace": trace.hex() if trace is not None else "",
                },
            )

    async def _flush_after_window(self, key: tuple) -> None:
        await asyncio.sleep(self.window_s)
        subs = self._pending.pop(key, [])
        if not subs:
            return
        combined = np.concatenate([sub.deltas for sub in subs])
        try:
            ts = time.time()
            start = time.perf_counter()
            decoded = subs[0].codec.decode_many(combined)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # scatter the failure to every waiter
            for sub in subs:
                if not sub.future.done():
                    sub.future.set_exception(exc)
            return
        self.stats.batches += 1
        self.stats.groups += len(combined)
        self.stats.max_sessions_per_batch = max(
            self.stats.max_sessions_per_batch, len(subs)
        )
        if len(subs) >= 2:
            self.stats.coalesced_batches += 1
        self.stats.decode_s += elapsed
        self._observe(ts, elapsed, groups=len(combined),
                      sessions=len(subs), trace=subs[0].trace)
        offset = 0
        for sub in subs:
            share = elapsed * len(sub.deltas) / len(combined)
            chunk = _as_submitted(
                decoded.slice(offset, offset + len(sub.deltas)), sub.deltas
            )
            offset += len(sub.deltas)
            if not sub.future.done():
                sub.future.set_result((chunk, share))
