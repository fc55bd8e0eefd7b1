"""Per-session and aggregate service counters.

The server keeps one :class:`SessionMetrics` per connection and folds
completed sessions into :class:`ServiceMetrics`.  ``snapshot()`` is a
plain-JSON dict (the ``repro serve --metrics-every`` heartbeat and the
throughput benchmark both consume it); per-session detail reuses the same
field names as :meth:`ReconciliationResult.to_dict` so downstream tooling
can treat service sessions and in-process runs uniformly.

Cluster-level state (shard load, journal health, and — under the
subprocess executor — per-worker pid/liveness/restart counts) rides in
via the ``cluster_stats`` argument of :meth:`ServiceMetrics.snapshot`,
sourced from :meth:`ClusterStore.cluster_stats`; see
``docs/operations.md`` ("Reading metrics") for the field-by-field guide.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.obs.metrics import REGISTRY, SESSION_DURATION
from repro.obs.trace import TraceContext
from repro.service.scheduler import CoalescerStats
from repro.service.wire import FramedChannel

#: Completed-session details kept for the snapshot (aggregates are exact
#: regardless; this only bounds the per-session tail).
SESSION_HISTORY = 64

#: Version of the :meth:`ServiceMetrics.snapshot` document.  Consumers
#: (the ``/varz`` endpoint, bench harnesses, dashboards) key on this to
#: detect shape changes; bump it whenever a top-level key is added,
#: removed or renamed, and update the pinning regression test.
#: v3: optional ``timeseries`` (windowed metrics ring) and ``slo``
#: (objective burn state) blocks.
#: v4: the ``cluster`` block grows a ``replication`` summary (and
#: per-shard ``replication`` entries) when ``--replicas`` is on.
#: v5: the live-resize history is gone: its two optional top-level
#: keys, their twins in the ``cluster`` block, and the ``admission``
#: block's stale-shard shed count.
SNAPSHOT_SCHEMA = 5


def merged_histograms(cluster_stats: dict | None = None) -> dict:
    """Every latency histogram visible to this server, merged by name.

    The parent's own :data:`~repro.obs.metrics.REGISTRY` plus, in proc
    mode, the cumulative registry dumps each shard worker shipped on
    its last acknowledgement (the ``obs`` block of ``per_shard``
    cluster stats — latest-wins per worker, so merging the most recent
    dump from each is exact).  Shared by :meth:`ServiceMetrics.snapshot`
    and the ``/metrics`` Prometheus endpoint.
    """
    dumps = []
    if cluster_stats:
        for entry in cluster_stats.get("per_shard", ()):
            obs = entry.get("obs")
            if obs:
                dumps.append(obs)
    return REGISTRY.merged_with(dumps)


@dataclass
class SessionMetrics:
    """One connection's life, from accept to close."""

    session_id: int
    set_name: str = ""
    peer: str = ""
    #: wall-clock timestamp (for humans reading the snapshot) — never
    #: used for durations, which an NTP step would corrupt
    started_unix: float = field(default_factory=time.time)
    #: monotonic start mark; all interval math happens on this clock
    started_mono: float = field(default_factory=time.monotonic)
    #: trace context joined from the HELLO, if any
    trace: TraceContext | None = None
    rounds: int = 0
    d_hat: float = 0.0
    success: bool = False
    failed: bool = False          #: connection died before a clean finish
    probe: bool = False           #: closed before HELLO (health check)
    shed: bool = False            #: rejected at admission with RETRY
    error: str = ""
    shard: int = -1               #: shard routed to (-1: died before HELLO
                                  #: routing — not any shard's fault)
    syncs: int = 0                #: reconciliation passes on this connection
    applied: int = 0              #: elements folded into the store
    store_version: int = 0        #: set version after the last apply
    encode_s: float = 0.0
    decode_s: float = 0.0
    channel: FramedChannel = field(default_factory=FramedChannel, repr=False)

    @property
    def duration_s(self) -> float:
        """Seconds since accept, on the monotonic clock (NTP-step safe)."""
        return time.monotonic() - self.started_mono

    def to_dict(self) -> dict:
        return {
            "session_id": self.session_id,
            "set": self.set_name,
            "peer": self.peer,
            "success": self.success,
            "failed": self.failed,
            "shed": self.shed,
            "error": self.error,
            "shard": self.shard,
            "syncs": self.syncs,
            "rounds": self.rounds,
            "d_hat": self.d_hat,
            "applied": self.applied,
            "store_version": self.store_version,
            "total_bytes": self.channel.total_bytes,
            "framing_bytes": self.channel.framing_bytes,
            "bytes_by_label": self.channel.bytes_by_label(),
            "encode_s": self.encode_s,
            "decode_s": self.decode_s,
            "trace": self.trace.hex() if self.trace is not None else "",
            "duration_s": self.duration_s,
        }


class ServiceMetrics:
    """Aggregate counters across every session the server has seen."""

    def __init__(self, coalescer_stats: CoalescerStats | None = None) -> None:
        self.started_unix = time.time()
        self.started_mono = time.monotonic()
        self.sessions_started = 0
        self.sessions_completed = 0
        self.sessions_failed = 0
        self.sessions_shed = 0
        self.active_sessions = 0
        #: open sessions per routed shard
        self.active_by_shard: Counter[int] = Counter()
        self.syncs_total = 0
        self.by_shard: dict[int, dict] = {}
        self.rounds_total = 0
        self.payload_bytes = 0
        self.framing_bytes = 0
        self.encode_s = 0.0
        self.decode_s = 0.0
        self.applied_total = 0
        self._coalescer_stats = coalescer_stats
        self._recent: deque[dict] = deque(maxlen=SESSION_HISTORY)
        self._next_id = 0

    # -- session lifecycle -----------------------------------------------------
    def open_session(self, peer: str = "") -> SessionMetrics:
        self._next_id += 1
        self.sessions_started += 1
        self.active_sessions += 1
        return SessionMetrics(session_id=self._next_id, peer=peer)

    def route_session(self, session: SessionMetrics, shard: int) -> None:
        """Record that ``session`` serves a set on ``shard``."""
        session.shard = shard
        self.active_by_shard[shard] += 1

    def close_session(self, session: SessionMetrics) -> None:
        self.active_sessions -= 1
        if session.shard >= 0:
            self.active_by_shard[session.shard] -= 1
        if session.probe:
            # a connect-then-close before HELLO (port probe / health
            # check) is not a session outcome; drop it from the counts
            self.sessions_started -= 1
            return
        shard = (
            self.by_shard.setdefault(
                session.shard,
                {"completed": 0, "failed": 0, "shed": 0, "syncs": 0},
            )
            # protocol failures before HELLO routing (bad version,
            # garbage frame) reached no shard and must not smear any
            # shard's counters
            if session.shard >= 0
            else None
        )
        if session.shed:
            # admission rejected the session before any work: it is an
            # overload outcome, not a success or a failure
            self.sessions_shed += 1
            if shard is not None:
                shard["shed"] += 1
            return
        if session.failed:
            self.sessions_failed += 1
            if shard is not None:
                shard["failed"] += 1
        else:
            self.sessions_completed += 1
            if shard is not None:
                shard["completed"] += 1
        self.syncs_total += session.syncs
        if shard is not None:
            shard["syncs"] += session.syncs
        self.rounds_total += session.rounds
        self.payload_bytes += session.channel.total_bytes
        self.framing_bytes += session.channel.framing_bytes
        self.encode_s += session.encode_s
        self.decode_s += session.decode_s
        self.applied_total += session.applied
        # shed sessions are admission rejections measured in microseconds
        # — letting them into the duration histogram would drown the p50
        REGISTRY.histogram(SESSION_DURATION).record(session.duration_s)
        self._recent.append(session.to_dict())

    # -- reporting -------------------------------------------------------------
    @property
    def success_rate(self) -> float:
        finished = self.sessions_completed + self.sessions_failed
        if not finished:
            return 1.0
        ok = sum(1 for s in self._recent if s["success"])
        # _recent is bounded; fall back to completed/finished beyond it
        if finished <= len(self._recent):
            return ok / finished
        return self.sessions_completed / finished

    def snapshot(
        self,
        store_stats: dict | None = None,
        admission_stats: dict | None = None,
        cluster_stats: dict | None = None,
        window_stats: dict | None = None,
        slo_stats: dict | None = None,
    ) -> dict:
        out = {
            "schema": SNAPSHOT_SCHEMA,
            "uptime_s": time.monotonic() - self.started_mono,
            "started_unix": self.started_unix,
            "sessions": {
                "started": self.sessions_started,
                "completed": self.sessions_completed,
                "failed": self.sessions_failed,
                "shed": self.sessions_shed,
                "active": self.active_sessions,
                "success_rate": self.success_rate,
            },
            "syncs_total": self.syncs_total,
            "by_shard": {
                str(shard): counters
                for shard, counters in sorted(self.by_shard.items())
            },
            "rounds_total": self.rounds_total,
            "payload_bytes": self.payload_bytes,
            "framing_bytes": self.framing_bytes,
            "encode_s": self.encode_s,
            "decode_s": self.decode_s,
            "applied_total": self.applied_total,
            "latency": {
                name: hist.summary()
                for name, hist in sorted(
                    merged_histograms(cluster_stats).items()
                )
            },
            "recent_sessions": list(self._recent),
        }
        if self._coalescer_stats is not None:
            out["coalescer"] = self._coalescer_stats.to_dict()
        if store_stats is not None:
            out["sets"] = store_stats
        if admission_stats is not None:
            out["admission"] = admission_stats
        if cluster_stats is not None:
            out["cluster"] = cluster_stats
        if window_stats is not None:
            out["timeseries"] = window_stats
        if slo_stats is not None:
            out["slo"] = slo_stats
        return out

    def to_json(
        self,
        store_stats: dict | None = None,
        admission_stats: dict | None = None,
        cluster_stats: dict | None = None,
        window_stats: dict | None = None,
        slo_stats: dict | None = None,
        indent: int = 2,
    ) -> str:
        return json.dumps(
            self.snapshot(
                store_stats,
                admission_stats,
                cluster_stats,
                window_stats,
                slo_stats,
            ),
            indent=indent,
        )
