"""The ledger's metrics, its versioned report document, and the validator.

:data:`END_TO_END` and :data:`PER_LAYER` define every metric: name,
unit, which direction is better, and (end to end) the relative
worsening that counts as a regression.  ``BENCHMARK.json`` at the repo
root lists the same metrics; ``bench_ledger.py`` keeps the two in step.
Metrics with ``contract=False`` are zero on nearly every healthy run,
so they are reported and checked but not compared between commits.

A bound is three times the metric's largest ten-seed spread over the
workloads (interquartile range / median), rounded up to a multiple of
0.05, at least 0.10 and at most 0.25; README.md lists the spreads.

:func:`validate_report` is a hand-rolled structural check in the style
of :mod:`repro.loadgen.report`: it raises ``ValueError`` listing every
flaw, and ``run.py --check REPORT`` runs it on a saved report.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import time
from dataclasses import dataclass
from numbers import Real

import numpy as np

from ledger_trace import wait_ms

#: Version of the report document; bump on any key rename or removal.
LEDGER_SCHEMA = 1
KIND = "repro-ledger-report"

#: Measured seconds of one run: the open loops' window (``run_seconds``
#: in BENCHMARK.json).  The sample counts below are sized for it.
RUN_SECONDS = 24
#: Latency tail percentile: the highest with at least MIN_BEYOND
#: samples beyond it in every workload.  The closed-loop workload runs
#: 39 sessions, which supports p70 and not p90.
TAIL_PERCENTILE = 70
MIN_BEYOND = 10


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    definition: str
    bound: float | None = None
    contract: bool = True


END_TO_END: list[Metric] = [
    Metric("setup_s", "s", "lower",
           "median over set-ups of server spawn to the end of the first "
           "warm-up session", bound=0.25),
    Metric("latency_p50_ms", "ms", "lower",
           "session latency median; open loop from the intended start, "
           "closed loop from the dial, to RESULT", bound=0.25),
    Metric(f"latency_p{TAIL_PERCENTILE}_ms", "ms", "lower",
           f"session latency, nearest-rank p{TAIL_PERCENTILE}", bound=0.25),
    Metric("throughput_per_s", "sessions/s", "higher",
           "median over slices of completed sessions / (last completion "
           "- slice start)", bound=0.25),
    Metric("server_cpu_ms_per_session", "ms", "lower",
           "median over slices of utime+stime of the server process tree "
           "/ completed sessions", bound=0.25),
    Metric("server_rss_mb", "MB", "lower",
           "median over slices of the summed VmHWM of the server process "
           "tree before SIGTERM", bound=0.10),
    Metric("payload_bytes_per_diff", "B", "lower",
           "sum of payload bytes / sum of true d", bound=0.15),
    Metric("rounds_mean", "rounds", "lower", "mean rounds per session",
           bound=0.20),
    Metric("incomplete_fraction", "ratio", "lower",
           "sessions ending success=False within r=3 rounds / attempted",
           contract=False),
    Metric("failed_fraction", "ratio", "lower",
           "exceptions, timeouts, wrong differences or set sizes / "
           "attempted", contract=False),
]

PER_LAYER: list[Metric] = [
    Metric("service.store.snapshot.ms", "ms", "lower",
           "SetStore/ClusterStore.snapshot per session"),
    Metric("estimators.tow.sketch.ms", "ms", "lower",
           "server ToWEstimator.sketch per session"),
    Metric("estimators.tow.sketch.ns_per_elem", "ns", "lower",
           "server ToW time / (|S| * l)"),
    Metric("core.sessions.bob_init.ms", "ms", "lower",
           "BobSession.__init__ per session"),
    Metric("core.sessions.bob_init.ns_per_elem", "ns", "lower",
           "BobSession.__init__ time / |B|"),
    Metric("core.params.from_d.ms", "ms", "lower",
           "PBSParams.from_d per session"),
    Metric("core.params.from_d.calls", "count", "lower",
           "PBSParams.from_d calls per session"),
    Metric("core.sessions.begin_reply.ms", "ms", "lower",
           "BobSession.begin_reply (encode) per session"),
    Metric("core.sessions.finish_reply.ms", "ms", "lower",
           "BobSession.finish_reply per session"),
    Metric("service.scheduler.decode.ms", "ms", "lower",
           "DecodeCoalescer.decode wall per session"),
    Metric("service.scheduler.wait.ms", "ms", "lower",
           "DecodeCoalescer.decode minus the decode_many of its batch"),
    Metric("bch.decode_many.ms", "ms", "lower",
           "server-process BCHCodec.decode_many per session"),
    Metric("bch.decode_many.us_per_group", "us", "lower",
           "decode_many time / groups decoded"),
    Metric("bch.decode_many.groups_per_call", "count", "higher",
           "groups per decode_many call"),
    Metric("service.store.apply_diff.ms", "ms", "lower",
           "SetStore/ClusterStore.apply_diff wall per session"),
    Metric("cluster.storage.record_diff.ms", "ms", "lower",
           "server-process Journal/SqliteBackend.record_diff per session"),
    Metric("cluster.storage.record_diff.calls", "count", "lower",
           "record_diff calls per session (primary and followers)"),
    Metric("cluster.replication.wait_durable.ms", "ms", "lower",
           "ShardReplication.wait_durable per session"),
    Metric("cluster.router.decode_remote.ms", "ms", "lower",
           "ClusterStore.decode_remote RPC round trips per session"),
    Metric("client.connect.ms", "ms", "lower",
           "ClientConnection.connect per session (driver side)"),
    Metric("client.tow.sketch.ms", "ms", "lower",
           "client ToWEstimator.sketch per session"),
    Metric("client.alice_encode.ms", "ms", "lower",
           "AliceSession.build_sketch_message per session"),
    Metric("client.alice_decode.ms", "ms", "lower",
           "AliceSession.handle_reply per session"),
    Metric("service.wire.frames_per_session", "count", "lower",
           "frames per session (untraced run)"),
    Metric("service.wire.framing_bytes_per_session", "B", "lower",
           "frame header bytes per session (untraced run)"),
    Metric("driver.lag_p90_ms", "ms", "lower",
           "open loop: dispatch time - intended time, p90 (0 when closed)"),
    Metric("trace.overhead_frac", "ratio", "lower",
           "traced / untraced server CPU per session - 1"),
]

E2E_NAMES = [m.name for m in END_TO_END]
LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


# -- percentiles -----------------------------------------------------------------

def nearest_rank(values: list[float], p: float) -> tuple[float, int]:
    """The nearest-rank ``p``-th percentile and how many samples lie
    beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# -- metrics from measured slices --------------------------------------------------

def _completed(piece) -> int:
    return sum(o.ok for o in piece.outcomes)


def end_to_end(slices) -> tuple[dict[str, float], dict]:
    """End-to-end values and latency sample facts of the untraced slices.

    Sessions pool across slices; per-slice rates (throughput, CPU per
    session, peak memory) take the median over slices, so one slice
    that ran while the host was slow moves them little.
    """
    outcomes = [o for piece in slices for o in piece.outcomes]
    done = [o for o in outcomes if o.ok]
    attempted = max(1, len(outcomes))
    latencies = [o.latency_s * 1e3 for o in done]
    p50, beyond50 = nearest_rank(latencies, 50)
    tail, beyond_tail = nearest_rank(latencies, TAIL_PERCENTILE)
    d_total = sum(o.plan.d for o in done)
    values = {
        "setup_s": statistics.median(p.setup_s for p in slices),
        "latency_p50_ms": p50,
        f"latency_p{TAIL_PERCENTILE}_ms": tail,
        "throughput_per_s": statistics.median(
            _completed(p) / (p.t_end - p.t0) if p.t_end > p.t0 else 0.0
            for p in slices
        ),
        "server_cpu_ms_per_session": statistics.median(
            p.cpu_s * 1e3 / max(1, _completed(p)) for p in slices
        ),
        "server_rss_mb": statistics.median(p.rss_mb for p in slices),
        "payload_bytes_per_diff": (
            sum(o.payload_bytes for o in done) / d_total if d_total else 0.0
        ),
        "rounds_mean": (
            sum(o.rounds for o in done) / len(done) if done else 0.0
        ),
        "incomplete_fraction": sum(not o.success for o in done) / attempted,
        "failed_fraction": (len(outcomes) - len(done)) / attempted,
    }
    latency = {
        "samples": len(latencies),
        "p50_beyond": beyond50,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_beyond": beyond_tail,
    }
    return values, latency


def per_layer(traced, untraced) -> dict[str, float]:
    """Per-layer values: span costs per completed session of the traced
    slice, wire counts and generator lag from the untraced slice that
    ran the same sessions."""
    spans = traced.spans
    sessions = max(1, _completed(traced))

    def stat(name: str, key: str) -> float:
        return float(spans.get(name, {}).get(key, 0))

    def per_session(name: str) -> float:
        return stat(name, "total_ms") / sessions

    def per_unit(name: str, scale: float) -> float:
        units = stat(name, "units")
        return stat(name, "total_ms") * scale / units if units else 0.0

    store = ("store.ClusterStore" if "store.ClusterStore.snapshot" in spans
             else "store.SetStore")
    calls = stat("bch.decode_many", "count")
    base = [o for o in untraced.outcomes if o.ok]
    lags = [o.lag_s * 1e3 for o in untraced.outcomes]
    cpu_traced = traced.cpu_s / sessions
    cpu_untraced = untraced.cpu_s / max(1, len(base))
    return {
        "service.store.snapshot.ms": per_session(f"{store}.snapshot"),
        "estimators.tow.sketch.ms": per_session("estimators.tow.sketch"),
        "estimators.tow.sketch.ns_per_elem":
            per_unit("estimators.tow.sketch", 1e6),
        "core.sessions.bob_init.ms": per_session("core.sessions.bob_init"),
        "core.sessions.bob_init.ns_per_elem":
            per_unit("core.sessions.bob_init", 1e6),
        "core.params.from_d.ms": per_session("core.params.from_d"),
        "core.params.from_d.calls":
            stat("core.params.from_d", "count") / sessions,
        "core.sessions.begin_reply.ms":
            per_session("core.sessions.begin_reply"),
        "core.sessions.finish_reply.ms":
            per_session("core.sessions.finish_reply"),
        "service.scheduler.decode.ms":
            per_session("service.scheduler.decode"),
        "service.scheduler.wait.ms": wait_ms(
            traced.span_rows["server"], int(traced.t0 * 1e9),
            int(traced.t_end * 1e9), "service.scheduler.decode",
            "bch.decode_many",
        ) / sessions,
        "bch.decode_many.ms": per_session("bch.decode_many"),
        "bch.decode_many.us_per_group": per_unit("bch.decode_many", 1e3),
        "bch.decode_many.groups_per_call":
            stat("bch.decode_many", "units") / calls if calls else 0.0,
        "service.store.apply_diff.ms": per_session(f"{store}.apply_diff"),
        "cluster.storage.record_diff.ms":
            per_session("cluster.storage.record_diff"),
        "cluster.storage.record_diff.calls":
            stat("cluster.storage.record_diff", "count") / sessions,
        "cluster.replication.wait_durable.ms":
            per_session("cluster.replication.wait_durable"),
        "cluster.router.decode_remote.ms":
            per_session("cluster.router.decode_remote"),
        "client.connect.ms": per_session("client.connect"),
        "client.tow.sketch.ms": per_session("client.tow.sketch"),
        "client.alice_encode.ms": per_session("client.alice_encode"),
        "client.alice_decode.ms": per_session("client.alice_decode"),
        "service.wire.frames_per_session":
            sum(o.frames for o in base) / max(1, len(base)),
        "service.wire.framing_bytes_per_session":
            sum(o.framing_bytes for o in base) / max(1, len(base)),
        "driver.lag_p90_ms": nearest_rank(lags, 90)[0],
        "trace.overhead_frac":
            cpu_traced / cpu_untraced - 1.0 if cpu_untraced else 0.0,
    }


def span_table(traced) -> dict[str, dict]:
    """Per span name: calls, inclusive and self time per session, and
    the unit cost where the span counts units."""
    sessions = max(1, _completed(traced))
    table = {}
    for name, entry in sorted(traced.spans.items()):
        row = {
            "calls": entry["count"],
            "ms_per_session": entry["total_ms"] / sessions,
            "self_ms_per_session": entry["self_ms"] / sessions,
            "us_per_call": entry["total_ms"] * 1e3 / max(1, entry["count"]),
        }
        if entry["units"]:
            row["units"] = entry["units"]
            row["ns_per_unit"] = entry["total_ms"] * 1e6 / entry["units"]
        table[name] = row
    return table


def workload_section(wl, base, traced) -> dict:
    """One workload's report section from its untraced slices and, for a
    traced run, its traced slice."""
    slices = [*base, traced] if traced is not None else list(base)
    values, latency = end_to_end(base)
    outcomes = [o for piece in base for o in piece.outcomes]
    errors: dict[str, int] = {}
    for piece in slices:
        messages = [o.error for o in piece.outcomes if not o.ok]
        messages += ["warm-up: " + m for m in piece.warmup_failures]
        if piece.exit_code != 0:
            messages.append(f"server exit code {piece.exit_code}")
        for message in messages:
            errors[message[:120]] = errors.get(message[:120], 0) + 1
    section = {
        "why": wl.why,
        "loop": wl.loop,
        "rate_per_s": wl.rate,
        "sets": wl.sets,
        "set_size": wl.set_size,
        "diff": f"{wl.diff[0]}:{wl.diff[1]}",
        "serve_args": list(wl.serve_args),
        "ok": all(piece.ok for piece in slices),
        "counts": {
            "attempted": len(outcomes),
            "completed": sum(o.ok for o in outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "incomplete": sum(o.ok and not o.success for o in outcomes),
            "errors": errors,
        },
        "end_to_end": _entries(values),
        "latency": latency,
        "setup_s_samples": [piece.setup_s for piece in base],
        "server_exit_codes": [piece.exit_code for piece in slices],
        "per_layer": None,
        "spans": None,
    }
    if traced is not None:
        section["traced_counts"] = {
            "attempted": len(traced.outcomes),
            "failed": sum(not o.ok for o in traced.outcomes),
        }
        section["per_layer"] = _entries(per_layer(traced, base[0]))
        section["spans"] = span_table(traced)
    return section


def _entries(values: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


# -- host facts ------------------------------------------------------------------

def host_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def calibrate(reps: int = 5) -> float:
    """Median ms of a fixed interpreter + numpy loop: divide a run's
    timings by it to compare runs on different hosts as ratios."""
    data = np.random.default_rng(0).integers(
        1, 1 << 32, size=200_000, dtype=np.uint64
    )
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc ^= (i * 2654435761) & 0xFFFFFFFF
        np.sort(data)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


# -- the document ------------------------------------------------------------------

def build_report(*, config: dict, host: dict, calib_ms: float,
                 workloads: dict, started_unix: float) -> dict:
    return {
        "schema": LEDGER_SCHEMA,
        "kind": KIND,
        "started_unix": started_unix,
        "host": host,
        "calib_ms": calib_ms,
        "config": config,
        "workloads": workloads,
    }


def _is_num(value) -> bool:
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def validate_report(doc) -> None:
    """Raise ValueError listing every structural or accounting flaw."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        raise ValueError(f"report must be a dict, got {type(doc).__name__}")
    if doc.get("schema") != LEDGER_SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected "
                        f"{LEDGER_SCHEMA}")
    if doc.get("kind") != KIND:
        problems.append(f"kind is {doc.get('kind')!r}")
    if not _is_num(doc.get("calib_ms")) or doc.get("calib_ms") <= 0:
        problems.append("calib_ms is not a positive number")
    host = doc.get("host")
    if not isinstance(host, dict):
        problems.append("host is not a dict")
    else:
        for key in ("nproc", "cpu_model", "python", "numpy"):
            if key not in host:
                problems.append(f"host missing {key!r}")
    config = doc.get("config")
    if not isinstance(config, dict):
        problems.append("config is not a dict")
    else:
        for key in ("seed", "seconds", "trace"):
            if key not in config:
                problems.append(f"config missing {key!r}")
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        problems.append("workloads is not a non-empty dict")
        workloads = {}
    traced = isinstance(config, dict) and bool(config.get("trace"))
    for name, section in workloads.items():
        problems.extend(
            f"{name}: {p}" for p in _section_problems(section, traced)
        )
    if problems:
        raise ValueError(
            "invalid ledger report:\n  - " + "\n  - ".join(problems)
        )


def _metric_problems(block, names: list[str], what: str) -> list[str]:
    if not isinstance(block, dict):
        return [f"{what} is not a dict"]
    problems = []
    for name in names:
        entry = block.get(name)
        if not isinstance(entry, dict) or not _is_num(entry.get("value")):
            problems.append(f"{what}[{name!r}] has no numeric value")
        elif entry.get("unit") != UNITS[name]:
            problems.append(f"{what}[{name!r}] unit is "
                            f"{entry.get('unit')!r}, expected {UNITS[name]!r}")
    return problems


def _section_problems(section, traced: bool) -> list[str]:
    if not isinstance(section, dict):
        return ["section is not a dict"]
    problems = []
    counts = section.get("counts")
    if not isinstance(counts, dict):
        return ["counts is not a dict"]
    keys = ("attempted", "completed", "failed", "incomplete")
    for key in keys:
        if not _is_count(counts.get(key)):
            problems.append(f"counts.{key} is not a non-negative int")
    if all(_is_count(counts.get(k)) for k in keys):
        if counts["completed"] + counts["failed"] != counts["attempted"]:
            problems.append("completed + failed != attempted")
        if counts["incomplete"] > counts["completed"]:
            problems.append("incomplete > completed")
        if counts["attempted"] < 1:
            problems.append("no sessions attempted")
    e2e = section.get("end_to_end")
    problems.extend(_metric_problems(e2e, E2E_NAMES, "end_to_end"))
    if isinstance(e2e, dict) and all(
        _is_count(counts.get(k)) for k in keys
    ) and counts["attempted"]:
        for name, key in (("failed_fraction", "failed"),
                          ("incomplete_fraction", "incomplete")):
            value = e2e.get(name, {}).get("value")
            expected = counts[key] / counts["attempted"]
            if _is_num(value) and abs(value - expected) > 1e-12:
                problems.append(f"{name} {value} != {key}/attempted")
    latency = section.get("latency")
    if not isinstance(latency, dict) or not _is_count(
        latency.get("samples")
    ):
        problems.append("latency.samples missing")
    if not isinstance(section.get("setup_s_samples"), list) or not \
            section["setup_s_samples"]:
        problems.append("setup_s_samples is empty")
    if traced:
        problems.extend(_metric_problems(
            section.get("per_layer"), LAYER_NAMES, "per_layer"
        ))
        if not isinstance(section.get("spans"), dict):
            problems.append("spans is not a dict")
    return problems
