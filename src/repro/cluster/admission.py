"""Admission control: bounded work per shard, shed the rest.

The server previously accepted unbounded concurrent sessions — every
connection got a snapshot, a BobSession, and a seat in the decode
coalescer, no matter how many were already in flight.  The
:class:`AdmissionController` puts two caps in front of that, both *per
shard* (each shard worker owns one journal and one slice of memory, so a
hot shard must not be able to starve the rest):

* ``max_sessions`` — concurrent reconciliation sessions on one shard.
  A session over the cap is *shed at HELLO time* with a RETRY frame
  carrying a server-suggested delay; the client backs off (with jitter,
  see :func:`~repro.service.wire.retry_delay`) and tries again instead
  of queueing invisibly.
* ``max_decode_queue`` — decode submissions a shard may have waiting in
  the coalescer.  Hitting this cap applies backpressure (the session
  awaits a slot) rather than shedding, because mid-session RETRY would
  abandon rounds the client already paid for; the cap still feeds back
  into admission: a shard whose decode queue is saturated sheds *new*
  sessions until it drains.

Caps of 0 mean unlimited, which keeps the default single-tenant behavior
of PR 2 intact.
"""

from __future__ import annotations

import asyncio
import contextlib

__all__ = ["AdmissionController", "DEFAULT_RETRY_AFTER_S"]

#: Default server-suggested delay before a shed client should retry —
#: a couple of coalescer windows, enough for a session slot to turn over.
DEFAULT_RETRY_AFTER_S = 0.05


class AdmissionController:
    """Per-shard session and decode-queue caps for one server process.

    Lifecycle of a slot: :meth:`try_admit` at HELLO (``None`` =
    admitted, a float = shed with RETRY carrying that delay), paired
    with exactly one :meth:`release`.  :meth:`decode_slot` is the
    mid-session backpressure context manager.  Caps of 0 mean
    unlimited.  The controller is executor-agnostic: it
    counts sessions and decode submissions per shard id, whether the
    shard worker is an asyncio task or a subprocess (worker *downtime*
    shedding is separate — the server consults
    ``ClusterStore.shard_available`` before admitting).
    """

    def __init__(
        self,
        shards: int = 1,
        max_sessions: int = 0,
        max_decode_queue: int = 0,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.max_sessions = max_sessions
        self.max_decode_queue = max_decode_queue
        self.retry_after_s = retry_after_s
        self._active = [0] * shards
        self._peak = [0] * shards
        self._admitted = [0] * shards
        self._shed = [0] * shards
        self._decode_waiting = [0] * shards
        self._decode_peak = [0] * shards
        self._decode_slots = [
            asyncio.Semaphore(max_decode_queue) if max_decode_queue else None
            for _ in range(shards)
        ]

    # -- session admission -----------------------------------------------------
    def try_admit(self, shard: int) -> float | None:
        """Admit a session onto ``shard``, or return a retry-after hint.

        ``None`` means admitted (the caller owes a :meth:`release`); a
        float is the suggested client delay in seconds for the RETRY
        frame.  The hint is flat — spreading the retry wave is the
        client's job (:func:`repro.service.wire.retry_delay` jitters and
        grows it per attempt, so deeper overload backs clients off
        further without the server tracking them).
        """
        over_sessions = (
            self.max_sessions and self._active[shard] >= self.max_sessions
        )
        over_decode = (
            self.max_decode_queue
            and self._decode_waiting[shard] >= self.max_decode_queue
        )
        if over_sessions or over_decode:
            self._shed[shard] += 1
            return self.retry_after_s
        self._active[shard] += 1
        self._admitted[shard] += 1
        self._peak[shard] = max(self._peak[shard], self._active[shard])
        return None

    def release(self, shard: int) -> None:
        self._active[shard] -= 1

    # -- decode backpressure ---------------------------------------------------
    @contextlib.asynccontextmanager
    async def decode_slot(self, shard: int):
        """Hold one of the shard's decode-queue slots (waits when full)."""
        slot = self._decode_slots[shard]
        if slot is None:
            yield
            return
        self._decode_waiting[shard] += 1
        self._decode_peak[shard] = max(
            self._decode_peak[shard], self._decode_waiting[shard]
        )
        try:
            async with slot:
                yield
        finally:
            self._decode_waiting[shard] -= 1

    # -- introspection ---------------------------------------------------------
    @property
    def total_shed(self) -> int:
        return sum(self._shed)

    def stats(self) -> dict:
        return {
            "max_sessions": self.max_sessions,
            "max_decode_queue": self.max_decode_queue,
            "retry_after_s": self.retry_after_s,
            "shed_total": self.total_shed,
            "per_shard": [
                {
                    "shard": shard,
                    "active": self._active[shard],
                    "peak": self._peak[shard],
                    "admitted": self._admitted[shard],
                    "shed": self._shed[shard],
                    "decode_waiting": self._decode_waiting[shard],
                    "decode_peak": self._decode_peak[shard],
                }
                for shard in range(self.shards)
            ],
        }
