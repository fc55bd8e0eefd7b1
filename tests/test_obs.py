"""Observability subsystem: histograms, traces, admin endpoint, HELLO.

Covers the telemetry contracts end to end: log-linear histogram
accuracy against a sorted reference, registry merging (the proc-mode
worker-dump path), trace-context propagation through the HELLO frame
(and the refusal of an older wire version), the snapshot schema pin, the admin HTTP
endpoint's Prometheus/healthz/varz surfaces, and — as real spawned
subprocesses — the cross-process span tree of one proc-mode session.

Written against plain ``asyncio.run`` like the rest of the suite.
Tests that enable the process-global tracer always restore the
disabled default, so span files cannot leak between tests.
"""

from __future__ import annotations

import asyncio
import json
import logging
import math
import random
from io import StringIO

import pytest

from repro.errors import SerializationError
from repro.obs.admin import PROMETHEUS_BOUNDS, AdminServer, prometheus_text
from repro.obs.histogram import (
    BOUNDARIES,
    BUCKET_COUNT,
    LAYOUT,
    MIN_LATENCY_S,
    LatencyHistogram,
)
from repro.obs.logs import (
    JsonFormatter,
    configure_logging,
    logging_config,
    set_slow_op_threshold,
    slow_op_threshold_s,
)
from repro.obs.metrics import (
    DECODE_BATCH,
    SESSION_DURATION,
    STORAGE_COMMIT,
    WINDOW_SCHEMA,
    MetricsRegistry,
    SloTracker,
    WindowedMetrics,
)
from repro.obs.trace import (
    TraceContext,
    Tracer,
    configure_tracing,
    load_events,
    merge_trace,
)
from repro.service.metrics import SNAPSHOT_SCHEMA, ServiceMetrics
from repro.service.wire import WIRE_VERSION, Hello


@pytest.fixture
def no_tracing():
    """Guarantee the process-global tracer is off after the test."""
    yield
    configure_tracing(None)


# -- histogram -----------------------------------------------------------------

class TestLatencyHistogram:
    def test_bucket_grid(self):
        """Boundaries strictly increase, start at the floor, and the
        bucket count is underflow + grid + overflow."""
        assert BOUNDARIES[0] > MIN_LATENCY_S
        assert all(
            lo < hi for lo, hi in zip(BOUNDARIES, BOUNDARIES[1:])
        )
        assert BUCKET_COUNT == len(BOUNDARIES) + 2
        assert LAYOUT.startswith("loglin-")

    def test_empty_and_single_sample(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.percentile(0.5) == 0.0
        hist.record(0.0123)
        for q in (0.5, 0.95, 0.999):
            assert hist.percentile(q) == pytest.approx(0.0123)

    def test_percentiles_vs_sorted_reference(self):
        """Every reported percentile lands within the grid's relative
        error bound of the exact order statistic."""
        rng = random.Random(0xC0FFEE)
        samples = [rng.lognormvariate(-6.0, 1.5) for _ in range(20_000)]
        hist = LatencyHistogram()
        for value in samples:
            hist.record(value)
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99, 0.999):
            exact = ordered[max(0, math.ceil(q * len(ordered)) - 1)]
            got = hist.percentile(q)
            assert abs(got - exact) / exact < 0.13, (q, got, exact)
        summary = hist.summary()
        assert summary["count"] == len(samples)
        assert summary["mean_s"] == pytest.approx(
            sum(samples) / len(samples)
        )

    def test_clamping_and_extremes(self):
        """Negative and sub-resolution values hit the underflow bucket;
        absurd values hit overflow — neither corrupts percentiles."""
        hist = LatencyHistogram()
        hist.record(-1.0)
        hist.record(1e-9)
        hist.record(1e9)
        assert hist.count == 3
        assert hist.min == 0.0       # negative clamps to zero
        assert hist.max == 1e9
        assert hist.percentile(1.0) == 1e9   # clamped to observed max

    def test_merge_is_union(self):
        rng = random.Random(7)
        a_samples = [rng.uniform(1e-4, 1e-2) for _ in range(500)]
        b_samples = [rng.uniform(1e-3, 1e-1) for _ in range(700)]
        union = LatencyHistogram()
        a, b = LatencyHistogram(), LatencyHistogram()
        for v in a_samples:
            a.record(v)
            union.record(v)
        for v in b_samples:
            b.record(v)
            union.record(v)
        a.merge(b)
        assert a.count == union.count
        assert a.sum == pytest.approx(union.sum)
        assert a.min == union.min and a.max == union.max
        for q in (0.5, 0.99):
            assert a.percentile(q) == pytest.approx(union.percentile(q))

    def test_dict_roundtrip_and_layout_guard(self):
        hist = LatencyHistogram()
        for v in (0.001, 0.002, 0.5):
            hist.record(v)
        dump = hist.to_dict()
        assert dump["layout"] == LAYOUT
        back = LatencyHistogram.from_dict(dump)
        assert back.count == hist.count
        assert back.percentile(0.5) == hist.percentile(0.5)
        # JSON-able all the way through (the cluster-stats ride-along)
        again = LatencyHistogram.from_dict(json.loads(json.dumps(dump)))
        assert again.count == hist.count
        with pytest.raises(ValueError):
            LatencyHistogram.from_dict({**dump, "layout": "loglin-0-1x1"})

    def test_cumulative_is_conservative(self):
        """``cumulative`` may undercount at bounds that split a bucket,
        never overcount — Prometheus ``le`` semantics stay honest."""
        hist = LatencyHistogram()
        samples = [0.0009, 0.001, 0.0011, 0.5, 2.0]
        for v in samples:
            hist.record(v)
        for bound, count in hist.cumulative(PROMETHEUS_BOUNDS):
            true_count = sum(1 for v in samples if v <= bound)
            assert count <= true_count
        # the final (largest) bound covers the whole grid
        top_bound, top_count = list(
            hist.cumulative(PROMETHEUS_BOUNDS)
        )[-1]
        assert top_count == sum(1 for v in samples if v <= top_bound)


class TestMetricsRegistry:
    def test_create_on_use_and_sparse_dump(self):
        reg = MetricsRegistry()
        assert reg.to_dict() == {}      # untouched histograms stay out
        reg.histogram(SESSION_DURATION)         # created but empty
        reg.histogram(DECODE_BATCH).record(0.01)
        dump = reg.to_dict()
        assert list(dump) == [DECODE_BATCH]

    def test_merged_with_worker_dumps(self):
        """The proc-mode path: the parent's registry merged with each
        worker's latest cumulative dump, without mutating either."""
        parent = MetricsRegistry()
        parent.histogram(DECODE_BATCH).record(0.010)
        worker = MetricsRegistry()
        worker.histogram(DECODE_BATCH).record(0.030)
        worker.histogram(STORAGE_COMMIT).record(0.002)
        merged = parent.merged_with([worker.to_dict()])
        assert merged[DECODE_BATCH].count == 2
        assert merged[STORAGE_COMMIT].count == 1
        assert parent.histogram(DECODE_BATCH).count == 1    # untouched
        bad = {DECODE_BATCH: {"layout": "other", "count": 1, "sum": 1,
                              "min": 1, "max": 1, "buckets": {}}}
        with pytest.raises(ValueError):
            parent.merged_with([bad])


# -- HELLO trace propagation ----------------------------------------------------

class TestWireTracePropagation:
    def test_hello_carries_trace(self):
        hello = Hello(set_name="inv", seed=7,
                      trace_id=0xABCD1234, span_id=0x42)
        back = Hello.deserialize(hello.serialize())
        assert back.version == WIRE_VERSION == 4
        assert (back.trace_id, back.span_id) == (0xABCD1234, 0x42)
        assert back.set_name == "inv"

    def test_v3_hello_gets_error_frame(self, memory_cluster):
        """A v3 peer sketches with the pre-bit-sliced ToW family, so its
        estimates would silently disagree: the server answers its HELLO
        with an ERROR frame naming the version, and serves nothing."""
        from repro.service import ReconciliationServer
        from repro.service.wire import (
            Error, FrameType, encode_frame, read_frame,
        )

        async def run():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store, port=0) as server,
            ):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port)
                v3 = Hello(set_name="inv", seed=7, version=3).serialize()
                writer.write(encode_frame(FrameType.HELLO, v3))
                await writer.drain()
                ftype, payload = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                await asyncio.sleep(0.05)
                return ftype, Error.deserialize(payload), server.metrics

        ftype, error, metrics = asyncio.run(run())
        assert ftype is FrameType.ERROR
        assert "wire version 3" in error.message
        assert metrics.sessions_failed == 1
        assert metrics.sessions_completed == 0

    def test_version_range_enforced(self):
        frame = bytearray(Hello(set_name="x", seed=1).serialize())
        for bad in (1, WIRE_VERSION - 1, WIRE_VERSION + 1):
            frame[0] = bad
            with pytest.raises(SerializationError, match="wire version"):
                Hello.deserialize(bytes(frame))

    def test_inline_session_joins_client_trace(
        self, tmp_path, no_tracing, memory_cluster
    ):
        """Client and server spans of one session share the client's
        trace id, with the server session parented on the client span."""
        from repro.service import ClientConnection, ReconciliationServer

        configure_tracing(tmp_path, role="test")

        async def run():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store, port=0) as server,
            ):
                conn = ClientConnection(
                    "127.0.0.1", server.port, set_name="traced")
                await conn.connect()
                result = await conn.sync(set(range(1, 200)))
                # pass 1 pushed A into the set, so pass 2 re-sketches it
                again = await conn.sync(set(range(1, 200)))
                await conn.close()
                assert result.success and again.success

        asyncio.run(run())
        configure_tracing(None)
        events = load_events(tmp_path)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        client = by_name["client.session"][0]
        server_session = by_name["server.session"][0]
        assert server_session["args"]["trace"] == client["args"]["trace"]
        assert server_session["args"]["parent"] == client["args"]["span"]
        # passes nest under their sessions, decode under the pass
        server_pass = by_name["server.pass"][0]
        assert server_pass["args"]["parent"] == \
            server_session["args"]["span"]
        # Bob sketches at WELCOME, under the session; a later pass whose
        # snapshot moved re-sketches under that pass
        pass_no = {
            e["args"]["span"]: e["args"]["pass_no"]
            for e in by_name["server.pass"]
        }
        first, later = sorted(by_name["server.sketch"], key=lambda e: e["ts"])
        assert first["args"]["parent"] == server_session["args"]["span"]
        assert pass_no[later["args"]["parent"]] == 2
        assert by_name["decode.batch"][0]["args"]["trace"] == \
            client["args"]["trace"]
        merged = merge_trace(tmp_path)
        assert len(merged["traceEvents"]) == len(events)

    def test_untraced_client_gets_server_rooted_spans(
        self, tmp_path, no_tracing, monkeypatch, memory_cluster
    ):
        """A peer that sends no trace id (v2, or v3 with tracing off)
        still yields server-side spans — rooted fresh, parentless."""
        import repro.service.client as client_mod
        from repro.service import ReconciliationServer, sync_with_server

        # the client shares this process's global tracer; pin the client
        # module to a disabled one so its HELLO carries trace_id=0 while
        # the server side keeps tracing
        monkeypatch.setattr(
            client_mod, "tracer", lambda: Tracer(None, "off"))

        async def run():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store, port=0) as server,
            ):
                configure_tracing(tmp_path, role="server-only")
                try:
                    result = await sync_with_server(
                        "127.0.0.1", server.port, set(range(1, 100)),
                        set_name="untraced",
                    )
                    assert result.success
                finally:
                    configure_tracing(None)

        asyncio.run(run())
        events = load_events(tmp_path)
        sessions = [e for e in events if e["name"] == "server.session"]
        assert sessions and sessions[0]["args"]["parent"] == ""
        assert not any(e["name"] == "client.session" for e in events)


class TestTracer:
    def test_disabled_tracer_propagates_parent(self):
        trc = Tracer(None, "off")
        parent = TraceContext(1, 2)
        assert not trc.enabled
        assert trc.mint() is None
        with trc.span("nothing", parent) as ctx:
            assert ctx is parent          # pass-through, no minting
        assert trc.child(parent) is parent

    def test_enabled_tracer_builds_tree(self, tmp_path):
        trc = Tracer(tmp_path, "unit")
        with trc.span("outer", None, k="v") as outer:
            with trc.span("inner", outer) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.span_id != outer.span_id
        trc.close()
        events = load_events(tmp_path)
        named = {e["name"]: e for e in events}
        assert named["inner"]["args"]["parent"] == \
            named["outer"]["args"]["span"]
        assert named["outer"]["args"]["parent"] == ""
        assert named["outer"]["args"]["k"] == "v"
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- snapshot schema -----------------------------------------------------------

class TestSnapshotSchema:
    #: The pinned top-level key set of snapshot schema 5.  If this test
    #: fails, you changed the snapshot shape: bump SNAPSHOT_SCHEMA and
    #: update this pin (and docs/operations.md) in the same change.
    ALWAYS = {
        "schema", "uptime_s", "started_unix", "sessions", "syncs_total",
        "by_shard", "rounds_total", "payload_bytes", "framing_bytes",
        "encode_s", "decode_s", "applied_total", "latency",
        "recent_sessions",
    }
    OPTIONAL = {
        "coalescer", "sets", "admission", "cluster", "timeseries", "slo",
    }

    def test_schema_and_key_set_pinned(self):
        metrics = ServiceMetrics()
        session = metrics.open_session(peer="t")
        session.set_name = "s"
        session.success = True
        metrics.close_session(session)
        snap = metrics.snapshot()
        assert snap["schema"] == SNAPSHOT_SCHEMA == 5
        assert set(snap) == self.ALWAYS
        full = metrics.snapshot(
            store_stats={}, admission_stats={},
            cluster_stats={"per_shard": []},
            window_stats={"windows": []}, slo_stats={"burning": False},
        )
        assert set(full) == self.ALWAYS | {
            "sets", "admission", "cluster", "timeseries", "slo",
        }
        assert set(full) <= self.ALWAYS | self.OPTIONAL
        json.dumps(full)        # the whole document stays JSON-able

    def test_durations_use_monotonic_clock(self):
        """Session durations come from the monotonic clock: the session
        dict exposes a non-negative duration plus the wall timestamp
        separately (``started_unix``) for humans."""
        metrics = ServiceMetrics()
        session = metrics.open_session()
        detail = session.to_dict()
        assert detail["duration_s"] >= 0.0
        assert session.started_unix > 1e9      # a wall timestamp
        assert session.started_mono != session.started_unix


# -- admin endpoint ------------------------------------------------------------

async def _http_get(port: int, path: str) -> tuple[str, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("ascii")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.decode("utf-8").partition("\r\n\r\n")
    return head.split("\r\n")[0], body


class TestAdminServer:
    def _serve(self, health_ok: dict):
        reg = MetricsRegistry()
        reg.histogram(SESSION_DURATION).record(0.05)
        reg.histogram(DECODE_BATCH).record(0.002)
        metrics = ServiceMetrics()
        return AdminServer(
            varz=lambda: metrics.snapshot(),
            health=lambda: (
                health_ok["ok"],
                {"status": "ok" if health_ok["ok"] else "degraded"},
            ),
            histograms=reg.histograms,
            port=0,
        )

    def test_endpoints(self):
        health_ok = {"ok": True}

        async def run():
            async with self._serve(health_ok) as admin:
                status, text = await _http_get(admin.port, "/metrics")
                assert status == "HTTP/1.1 200 OK"
                assert "# TYPE repro_session_duration_seconds histogram" \
                    in text
                assert 'repro_decode_batch_seconds_bucket{le="+Inf"} 1' \
                    in text
                # sane exposition: every sample line is NAME[{labels}] VALUE
                for line in text.strip().splitlines():
                    if line.startswith("#"):
                        continue
                    name, _, value = line.rpartition(" ")
                    assert name.startswith("repro_"), line
                    float(value)
                status, body = await _http_get(admin.port, "/healthz")
                assert status == "HTTP/1.1 200 OK"
                assert json.loads(body)["status"] == "ok"
                health_ok["ok"] = False
                status, body = await _http_get(admin.port, "/healthz")
                assert status == "HTTP/1.1 503 Service Unavailable"
                assert json.loads(body)["status"] == "degraded"
                status, body = await _http_get(admin.port, "/varz")
                assert status == "HTTP/1.1 200 OK"
                varz = json.loads(body)
                assert varz["schema"] == SNAPSHOT_SCHEMA
                status, _ = await _http_get(admin.port, "/nope")
                assert status == "HTTP/1.1 404 Not Found"

        asyncio.run(run())

    def test_le_buckets_are_cumulative_and_ordered(self):
        reg = MetricsRegistry()
        for v in (0.0001, 0.001, 0.01, 0.1, 1.0):
            reg.histogram(SESSION_DURATION).record(v)
        text = prometheus_text({"sessions": {}}, reg.histograms())
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_session_duration_seconds_bucket"):
                counts.append(float(line.rpartition(" ")[2]))
        assert counts == sorted(counts)             # cumulative
        assert counts[-1] == 5.0                    # le="+Inf" == count
        assert len(counts) == len(PROMETHEUS_BOUNDS) + 1


# -- windowed metrics ----------------------------------------------------------

class TestHistogramDelta:
    def test_delta_isolates_samples_since_snapshot(self):
        hist = LatencyHistogram()
        hist.record(0.001)
        hist.record(0.002)
        earlier = hist.copy()
        hist.record(0.5)
        hist.record(0.6)
        window = hist.delta(earlier)
        assert window.count == 2
        assert window.sum == pytest.approx(1.1)
        # the old millisecond samples must not drag the window's p50 down
        assert window.percentile(0.50) == pytest.approx(0.5, rel=0.13)
        assert 0.4 <= window.min <= window.max <= 0.7

    def test_copy_is_independent(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        snap = hist.copy()
        hist.record(0.02)
        assert snap.count == 1 and hist.count == 2

    def test_counter_reset_clamps_to_empty_window(self):
        """A worker restart hands us a cumulative histogram *behind* the
        snapshot; the delta must be empty, never negative."""
        earlier = LatencyHistogram()
        for _ in range(5):
            earlier.record(0.01)
        fresh = LatencyHistogram()
        fresh.record(0.01)
        window = fresh.delta(earlier)
        assert window.count == 0
        assert sum(window.counts) == 0

    def test_no_new_samples_is_empty(self):
        hist = LatencyHistogram()
        hist.record(0.01)
        assert hist.delta(hist.copy()).count == 0


class TestWindowedMetrics:
    def test_first_tick_baselines_then_deltas(self):
        wm = WindowedMetrics(interval_s=5.0)
        hist = LatencyHistogram()
        hist.record(0.010)
        assert wm.tick({"sessions": 10}, {"lat": hist},
                       now_unix=1000.0, now_mono=50.0) is None
        hist.record(0.030)
        window = wm.tick({"sessions": 16}, {"lat": hist},
                         now_unix=1005.0, now_mono=55.0)
        assert window["schema"] == WINDOW_SCHEMA == 1
        assert window["deltas"]["sessions"] == 6.0
        assert window["rates"]["sessions_per_s"] == pytest.approx(1.2)
        assert window["duration_s"] == pytest.approx(5.0)
        # only the sample recorded inside the window
        assert window["latency"]["lat"]["count"] == 1
        assert window["latency"]["lat"]["p50_s"] == \
            pytest.approx(0.030, rel=0.13)
        assert wm.latest() is window

    def test_counter_reset_clamps_to_zero(self):
        wm = WindowedMetrics()
        wm.tick({"sessions": 100}, now_unix=0.0, now_mono=0.0)
        window = wm.tick({"sessions": 5}, now_unix=5.0, now_mono=5.0)
        assert window["deltas"]["sessions"] == 0.0

    def test_ring_is_bounded_and_timeseries_shaped(self):
        wm = WindowedMetrics(interval_s=1.0, capacity=4)
        for i in range(10):
            wm.tick({"n": i}, now_unix=float(i), now_mono=float(i))
        windows = wm.windows()
        assert len(windows) == 4                    # 9 closed, 4 kept
        assert windows[-1]["index"] == 9
        assert [w["index"] for w in windows] == [6, 7, 8, 9]
        doc = wm.timeseries()
        assert doc["schema"] == WINDOW_SCHEMA == 1
        assert doc["interval_s"] == 1.0
        assert doc["windows"] == windows
        json.dumps(doc)

    def test_zero_duration_tick_is_dropped(self):
        wm = WindowedMetrics()
        wm.tick({"n": 1}, now_unix=0.0, now_mono=10.0)
        assert wm.tick({"n": 2}, now_unix=0.0, now_mono=10.0) is None


class TestSloTracker:
    def _window(self, p99_s=None, sessions=0, failed=0, sheds=0):
        latency = {}
        if p99_s is not None:
            latency[SESSION_DURATION] = {"count": 1, "p99_s": p99_s}
        return {
            "deltas": {
                "sessions": float(sessions),
                "failed": float(failed),
                "sheds": float(sheds),
            },
            "latency": latency,
        }

    def test_disabled_without_targets(self):
        assert not SloTracker().enabled
        assert SloTracker(p99_ms=100.0).enabled
        assert SloTracker(shed_rate=0.01).enabled

    def test_p99_breach_and_recovery(self):
        slo = SloTracker(p99_ms=100.0)
        bad = slo.grade(self._window(p99_s=0.250, sessions=10))
        assert not bad["ok"] and bad["breaches"] == ["p99"]
        assert slo.consecutive_breaches == 1
        good = slo.grade(self._window(p99_s=0.050, sessions=10))
        assert good["ok"]
        state = slo.state()
        assert state["consecutive_breaches"] == 0
        assert state["windows_breached"] == 1
        assert state["windows_graded"] == 2
        assert state["burn_rate"] == pytest.approx(0.5)
        assert not state["burning"]

    def test_shed_rate_breach(self):
        slo = SloTracker(shed_rate=0.01)
        block = slo.grade(self._window(sessions=90, sheds=10))
        assert block["breaches"] == ["shed_rate"]
        assert block["shed_rate"] == pytest.approx(0.1)
        assert slo.state()["burning"]

    def test_idle_window_does_not_breach_shed_rate(self):
        slo = SloTracker(shed_rate=0.01)
        assert slo.grade(self._window())["ok"]

    def test_grade_annotates_window(self):
        slo = SloTracker(p99_ms=100.0)
        window = self._window(p99_s=0.2, sessions=1)
        slo.grade(window)
        assert window["slo"]["breaches"] == ["p99"]


class TestTimeseriesEndpoint:
    def test_timeseries_served_and_404_without(self):
        wm = WindowedMetrics(interval_s=1.0)
        wm.tick({"n": 0}, now_unix=0.0, now_mono=0.0)
        wm.tick({"n": 3}, now_unix=1.0, now_mono=1.0)

        async def run():
            async with AdminServer(
                varz=lambda: {"schema": SNAPSHOT_SCHEMA},
                health=lambda: (True, {"status": "ok"}),
                histograms=dict,
                timeseries=wm.timeseries,
                port=0,
            ) as admin:
                status, body = await _http_get(admin.port, "/timeseries")
                assert status == "HTTP/1.1 200 OK"
                doc = json.loads(body)
                assert doc["interval_s"] == 1.0
                assert len(doc["windows"]) == 1
                assert doc["windows"][0]["deltas"]["n"] == 3.0
            async with AdminServer(
                varz=lambda: {"schema": SNAPSHOT_SCHEMA},
                health=lambda: (True, {"status": "ok"}),
                histograms=dict,
                port=0,
            ) as admin:
                status, _ = await _http_get(admin.port, "/timeseries")
                assert status == "HTTP/1.1 404 Not Found"

        asyncio.run(run())

    def test_slo_gauges_in_prometheus_text(self):
        snapshot = {
            "sessions": {},
            "slo": {
                "burning": True,
                "burn_rate": 0.25,
                "consecutive_breaches": 2,
                "windows_breached": 3,
                "windows_graded": 12,
            },
        }
        text = prometheus_text(snapshot, {})
        assert "repro_slo_window_breach 1" in text
        assert "repro_slo_burn_rate 0.25" in text
        assert "repro_slo_consecutive_breaches 2" in text
        assert "repro_slo_windows_breached_total 3" in text
        assert "repro_slo_windows_graded_total 12" in text
        # no objectives -> no slo series at all
        assert "repro_slo" not in prometheus_text({"sessions": {}}, {})


class TestTraceRotation:
    def test_rotation_caps_growth_and_merge_sees_both(self, tmp_path):
        trc = Tracer(tmp_path, "rot", max_bytes=2000)
        ctx = trc.mint()
        for i in range(100):
            trc.emit(f"span-{i:03d}", ctx, None, 0.0, 0.001)
        trc.close()
        files = sorted(p.name for p in tmp_path.glob("trace-*.jsonl"))
        assert len(files) == 2                     # live + one rotation
        assert any(".1.jsonl" in name for name in files)
        for path in tmp_path.glob("trace-*.jsonl"):
            # each generation stays near the cap (one span of overshoot)
            assert path.stat().st_size <= 2000 + 500
        events = load_events(tmp_path)
        names = {e["name"] for e in events}
        # the newest spans always survive; older ones may rotate away
        assert "span-099" in names
        assert len(events) >= 2

    def test_unbounded_without_max_bytes(self, tmp_path):
        trc = Tracer(tmp_path, "nocap")
        ctx = trc.mint()
        for _i in range(200):
            trc.emit("s", ctx, None, 0.0, 0.001)
        trc.close()
        assert len(list(tmp_path.glob("trace-*.jsonl"))) == 1
        assert len(load_events(tmp_path)) == 200


# -- structured logging --------------------------------------------------------

class TestLogs:
    def test_json_formatter_hoists_extras(self):
        record = logging.LogRecord(
            "repro.storage", logging.WARNING, __file__, 1,
            "slow storage commit", (), None,
        )
        record.elapsed_ms = 150.0
        record.trace = "deadbeef"
        event = json.loads(JsonFormatter().format(record))
        assert event["component"] == "storage"
        assert event["msg"] == "slow storage commit"
        assert event["elapsed_ms"] == 150.0
        assert event["trace"] == "deadbeef"

    def test_configure_is_idempotent_and_scoped(self):
        stream = StringIO()
        root = configure_logging("debug", json_out=True, stream=stream)
        configure_logging("warning", json_out=True, stream=stream)
        try:
            assert len(root.handlers) == 1       # replaced, not stacked
            assert root.propagate is False       # process root untouched
            assert logging_config() == ("warning", True)
            logging.getLogger("repro.server").warning(
                "w", extra={"shard": 3})
            event = json.loads(stream.getvalue())
            assert event["component"] == "server"
            assert event["shard"] == 3
        finally:
            for handler in list(root.handlers):
                root.removeHandler(handler)

    def test_slow_op_threshold_knob(self):
        before = slow_op_threshold_s()
        try:
            set_slow_op_threshold(0.25)
            assert slow_op_threshold_s() == 0.25
            set_slow_op_threshold(-1.0)
            assert slow_op_threshold_s() == 0.0   # clamped
        finally:
            set_slow_op_threshold(before)

    def test_slow_decode_batch_warns_with_trace(self):
        """A decode batch over the threshold logs one WARNING carrying
        the batch shape and the submitting trace id."""
        from repro.service.scheduler import DecodeCoalescer

        records: list[logging.LogRecord] = []
        handler = logging.Handler()
        handler.emit = records.append
        log = logging.getLogger("repro.decode")
        log.addHandler(handler)
        before = slow_op_threshold_s()
        set_slow_op_threshold(0.0)      # everything is slow now
        try:
            coalescer = DecodeCoalescer(window_s=0)
            coalescer._observe(
                0.0, 0.5, groups=3, sessions=2,
                trace=TraceContext(0xFEED, 1),
            )
        finally:
            set_slow_op_threshold(before)
            log.removeHandler(handler)
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].trace == f"{0xFEED:016x}"
        assert records[0].sessions == 2


# -- proc-mode cross-process trace tree ----------------------------------------

class TestProcTraceTree:
    def test_one_session_one_tree_across_processes(
        self, tmp_path, no_tracing
    ):
        """The acceptance drill: a proc-mode session emits spans from
        the client/server process *and* the shard-worker subprocesses,
        all sharing one trace id with intact parent/child links."""
        from repro.cluster import ClusterConfig, open_cluster
        from repro.service import ClientConnection, ReconciliationServer

        trace_dir = tmp_path / "traces"
        configure_tracing(trace_dir, role="server")

        async def run():
            store = open_cluster(
                tmp_path / "data",
                ClusterConfig(shards=2, executor="subprocess"),
            )
            await store.start()
            server = ReconciliationServer(store, port=0)
            await server.start()
            try:
                for name in ("t0", "t1", "t2"):
                    conn = ClientConnection(
                        "127.0.0.1", server.port, set_name=name)
                    await conn.connect()
                    result = await conn.sync(set(range(1, 400)))
                    await conn.close()
                    assert result.success
            finally:
                await server.close()
                await store.close()

        asyncio.run(run())
        configure_tracing(None)

        events = load_events(trace_dir)
        roles = {e["args"]["role"] for e in events}
        assert "server" in roles
        assert any(role.startswith("worker-") for role in roles)
        assert len({e["pid"] for e in events}) >= 2     # cross-process

        clients = [e for e in events if e["name"] == "client.session"]
        assert len(clients) == 3
        by_span = {e["args"]["span"]: e for e in events}
        # at least one session's tree must reach a worker process (the
        # ring may route some sets to either shard, but 3 sets with 2
        # shards guarantees a worker decode + commit somewhere)
        worker_named = {
            e["name"] for e in events
            if e["args"]["role"].startswith("worker-")
        }
        assert "decode.batch" in worker_named
        assert "storage.commit" in worker_named
        trees_with_worker = 0
        for client in clients:
            trace_id = client["args"]["trace"]
            tree = [e for e in events if e["args"]["trace"] == trace_id]
            names = {e["name"] for e in tree}
            assert {"client.session", "server.session",
                    "server.pass"} <= names
            for event in tree:
                parent = event["args"]["parent"]
                if parent:
                    assert parent in by_span, (event["name"], parent)
                    assert by_span[parent]["args"]["trace"] == trace_id
            if any(e["args"]["role"].startswith("worker-") for e in tree):
                trees_with_worker += 1
        assert trees_with_worker == 3   # every session reached its worker
