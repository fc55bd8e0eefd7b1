"""Process-global registry of named latency histograms.

Latency events happen deep inside layers that have no reference to the
server's :class:`~repro.service.metrics.ServiceMetrics` — the decode
coalescer, ``apply_mutation`` in the storage layer, the worker RPC
client.  Rather than thread a metrics object through every
constructor, each process owns one module-level
:data:`REGISTRY` (the same shape as ``prometheus_client``'s default
registry): layers call ``REGISTRY.histogram(name).record(dt)``, and
the one consumer (``ServiceMetrics.snapshot()`` / the admin endpoint)
reads everything back at snapshot time.

In proc mode each shard-worker subprocess has its *own* registry; the
worker ships ``REGISTRY.to_dict()`` on its mutation/decode acks (counts
are cumulative, so latest-wins per worker), and the parent merges the
per-worker dumps with its own registry when building a snapshot —
see ``ServiceMetrics.snapshot()`` and ``WorkerHandle.stats``.  An
in-process (inline) worker records straight into the parent's registry
and ships no dump.

Metric names are declared here so that the exposition layer, the
snapshot, and the tests agree on one spelling.
"""

from __future__ import annotations

import time
from collections import deque

from repro.obs.histogram import LatencyHistogram

__all__ = [
    "MetricsRegistry",
    "REGISTRY",
    "WindowedMetrics",
    "SloTracker",
    "SESSION_DURATION",
    "PASS_DURATION",
    "DECODE_BATCH",
    "STORAGE_COMMIT",
    "WORKER_RPC",
]

#: Wall time of one reconciliation session, HELLO to close (server side).
SESSION_DURATION = "session_duration_s"

#: One client-observed pass: ESTIMATE sent to RESULT received.
PASS_DURATION = "pass_duration_s"

#: One coalesced BCH decode batch, submit to results fanned out.
DECODE_BATCH = "decode_batch_s"

#: One durable storage commit of a batch of one or more records
#: (journal write+fsync / SQLite txn).
STORAGE_COMMIT = "storage_commit_s"

#: One proc-executor RPC round-trip, parent send to ack.
WORKER_RPC = "worker_rpc_s"


class MetricsRegistry:
    """Named histograms, created on first use."""

    def __init__(self) -> None:
        self._histograms: dict[str, LatencyHistogram] = {}

    def histogram(self, name: str) -> LatencyHistogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = LatencyHistogram()
        return hist

    def histograms(self) -> dict[str, LatencyHistogram]:
        """Live name -> histogram view (do not mutate the dict)."""
        return self._histograms

    def to_dict(self) -> dict[str, dict]:
        """Serialized non-empty histograms, for cross-process shipping."""
        return {
            name: hist.to_dict()
            for name, hist in self._histograms.items()
            if hist.count
        }

    def merged_with(
        self, dumps: list[dict[str, dict]]
    ) -> dict[str, LatencyHistogram]:
        """This registry plus remote ``to_dict()`` dumps, merged by name.

        Returns fresh histogram objects — neither the registry nor the
        dumps are mutated, so snapshotting stays read-only.
        """
        merged: dict[str, LatencyHistogram] = {}
        for name, hist in self._histograms.items():
            if hist.count:
                copy = LatencyHistogram()
                copy.merge(hist)
                merged[name] = copy
        for dump in dumps:
            for name, data in dump.items():
                merged.setdefault(
                    name, LatencyHistogram()
                ).merge(LatencyHistogram.from_dict(data))
        return merged

    def reset(self) -> None:
        """Drop all histograms (test isolation; never on a live path)."""
        self._histograms.clear()


#: The per-process registry every layer records into.
REGISTRY = MetricsRegistry()


#: Version of one window document in :class:`WindowedMetrics`; bump on
#: any key rename/removal so `/timeseries` consumers can pin the shape.
WINDOW_SCHEMA = 1

#: Default windows retained in the ring (at the 5 s default interval:
#: ten minutes of "now", bounded regardless of uptime).
WINDOW_CAPACITY = 120


class WindowedMetrics:
    """Sliding-window view over cumulative counters and histograms.

    Cumulative totals answer "since boot"; operators watching a live
    system need "now".  Each :meth:`tick` closes one window: it samples
    the caller's cumulative counters and histograms, subtracts the
    previous sample (clamping resets to zero), and appends a window
    document — per-interval deltas, per-second rates, and delta
    histogram summaries — to a bounded ring.  The ring is what the
    admin endpoint serves as ``/timeseries`` and what the SLO tracker
    grades; the latest window also rides ``/varz``.

    The first tick only baselines (returns ``None``); ticking is driven
    externally (an asyncio task in ``repro serve``, the progress loop
    in ``repro loadgen``), so this class stays clock-injectable and
    loop-free for tests.
    """

    def __init__(
        self,
        interval_s: float = 5.0,
        capacity: int = WINDOW_CAPACITY,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self._windows: deque[dict] = deque(maxlen=max(2, capacity))
        self._prev_counters: dict[str, float] = {}
        self._prev_hists: dict[str, LatencyHistogram] = {}
        self._prev_mono: float | None = None
        self._prev_unix = 0.0
        self._index = 0

    def tick(
        self,
        counters: dict[str, float],
        histograms: dict[str, LatencyHistogram] | None = None,
        now_unix: float | None = None,
        now_mono: float | None = None,
    ) -> dict | None:
        """Close one window against fresh cumulative samples.

        ``counters`` are cumulative totals (sessions completed, sheds,
        ...); ``histograms`` are live cumulative histogram objects
        (snapshot-copied here, so callers pass them as-is).  Returns the
        closed window document, or ``None`` on the baselining first
        call.
        """
        now_unix = time.time() if now_unix is None else now_unix
        now_mono = time.monotonic() if now_mono is None else now_mono
        hists = {
            name: hist.copy()
            for name, hist in (histograms or {}).items()
        }
        if self._prev_mono is None:
            self._baseline(counters, hists, now_unix, now_mono)
            return None
        duration = now_mono - self._prev_mono
        if duration <= 0:
            return None      # clock went nowhere; keep the old baseline
        deltas = {
            name: max(0.0, float(value) - self._prev_counters.get(name, 0.0))
            for name, value in counters.items()
        }
        latency = {}
        for name, hist in hists.items():
            prev = self._prev_hists.get(name)
            window_hist = hist.delta(prev) if prev is not None else hist
            if window_hist.count:
                latency[name] = window_hist.summary()
        self._index += 1
        window = {
            "schema": WINDOW_SCHEMA,
            "index": self._index,
            "start_unix": self._prev_unix,
            "end_unix": now_unix,
            "duration_s": duration,
            "deltas": deltas,
            "rates": {
                f"{name}_per_s": value / duration
                for name, value in deltas.items()
            },
            "latency": latency,
        }
        self._windows.append(window)
        self._baseline(counters, hists, now_unix, now_mono)
        return window

    def _baseline(self, counters, hists, now_unix, now_mono) -> None:
        self._prev_counters = {
            name: float(value) for name, value in counters.items()
        }
        self._prev_hists = hists
        self._prev_unix = now_unix
        self._prev_mono = now_mono

    def windows(self) -> list[dict]:
        """Oldest-to-newest ring contents (each a window document)."""
        return list(self._windows)

    def latest(self) -> dict | None:
        return self._windows[-1] if self._windows else None

    def timeseries(self) -> dict:
        """The `/timeseries` document: config + the whole ring."""
        return {
            "schema": WINDOW_SCHEMA,
            "interval_s": self.interval_s,
            "windows": self.windows(),
        }


class SloTracker:
    """Grades closed windows against latency / shed-rate objectives.

    Two targets, both optional: ``p99_ms`` bounds the window's p99 of
    ``latency_metric`` (default: session duration), ``shed_rate``
    bounds the window's shed fraction (sheds over session outcomes,
    sheds included).  Each :meth:`grade` call annotates the window with
    an ``slo`` block and updates burn state: consecutive breaches,
    total breached windows, and the breach fraction over the recent
    grading history — the signal an alert (or the autoscaler open item)
    keys on.
    """

    def __init__(
        self,
        p99_ms: float | None = None,
        shed_rate: float | None = None,
        latency_metric: str = SESSION_DURATION,
        history: int = WINDOW_CAPACITY,
    ) -> None:
        self.p99_ms = p99_ms
        self.shed_rate = shed_rate
        self.latency_metric = latency_metric
        self.windows_graded = 0
        self.windows_breached = 0
        self.consecutive_breaches = 0
        self._recent: deque[bool] = deque(maxlen=max(1, history))

    @property
    def enabled(self) -> bool:
        return self.p99_ms is not None or self.shed_rate is not None

    def grade(self, window: dict) -> dict:
        """Grade one closed window; annotates and returns its slo block."""
        breaches: list[str] = []
        summary = window.get("latency", {}).get(self.latency_metric)
        p99_ms = summary["p99_s"] * 1000.0 if summary else None
        if (
            self.p99_ms is not None
            and p99_ms is not None
            and p99_ms > self.p99_ms
        ):
            breaches.append("p99")
        deltas = window.get("deltas", {})
        sheds = deltas.get("sheds", 0.0)
        outcomes = (
            deltas.get("sessions", 0.0)
            + deltas.get("failed", 0.0)
            + sheds
        )
        observed_shed_rate = sheds / outcomes if outcomes else 0.0
        if (
            self.shed_rate is not None
            and outcomes
            and observed_shed_rate > self.shed_rate
        ):
            breaches.append("shed_rate")
        breached = bool(breaches)
        self.windows_graded += 1
        self._recent.append(breached)
        if breached:
            self.windows_breached += 1
            self.consecutive_breaches += 1
        else:
            self.consecutive_breaches = 0
        block = {
            "ok": not breached,
            "breaches": breaches,
            "p99_ms": p99_ms,
            "shed_rate": observed_shed_rate,
        }
        window["slo"] = block
        return block

    def state(self) -> dict:
        """Burn state for `/varz`, `/metrics`, and loadgen reports."""
        recent = len(self._recent)
        return {
            "targets": {
                "p99_ms": self.p99_ms,
                "shed_rate": self.shed_rate,
            },
            "windows_graded": self.windows_graded,
            "windows_breached": self.windows_breached,
            "consecutive_breaches": self.consecutive_breaches,
            "burning": self.consecutive_breaches > 0,
            "burn_rate": (
                sum(self._recent) / recent if recent else 0.0
            ),
        }
