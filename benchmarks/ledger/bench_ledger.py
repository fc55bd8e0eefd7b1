"""Smoke and unit tests for the service performance ledger.

Collected by ``pytest benchmarks`` (the CI bench-smoke job).  Each
workload runs a short horizon (at most 10 sessions) against a live
``repro serve`` subprocess, twice with the same seed: the report must
validate, no session may fail, and the metrics the seed fixes must
repeat exactly.  One traced run checks that every wrapped layer of the
durable workload records time.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import numpy as np
import pytest

import ledger
import ledger_report as report
from ledger_trace import SpanRecorder, summarize, wait_ms
from repro.bch.codec import BCHCodec
from repro.gf import field_for
from repro.service.scheduler import DecodeCoalescer

ROOT = Path(__file__).resolve().parents[2]

#: (session cap, seconds) per workload: short horizons of <= 10 sessions;
#: the closed loop's length is its session count
SHORT = {
    "bigset": (4, float(report.RUN_SECONDS)),
    "smallset-durable": (8, 0.5),
    "midset-proc": (6, 2.0),
}
#: metrics fixed by the seed: any change means protocol behaviour moved
EXACT = ("payload_bytes_per_diff", "rounds_mean", "incomplete_fraction")


def _short_section(name: str, trace: bool = False) -> dict:
    wl = ledger.WORKLOADS[name]
    cap, seconds = SHORT[name]
    opts = ledger.RunOptions(seconds=seconds, trace=trace, reps=1,
                             max_sessions=cap, warmup_sessions=1)
    base, traced = ledger.run_workload(5, wl, opts)
    section = report.workload_section(wl, base, traced)
    doc = report.build_report(
        config={"seed": 5, "seconds": seconds, "trace": int(trace)},
        host=report.host_facts(), calib_ms=1.0,
        workloads={name: section}, started_unix=0.0,
    )
    report.validate_report(doc)
    return section


def test_nearest_rank_counts_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert report.nearest_rank(values, 50) == (50.0, 50)
    assert report.nearest_rank(values, 90) == (90.0, 10)
    assert report.nearest_rank(values[:39], 75) == (30.0, 9)
    assert report.nearest_rank([], 50) == (0.0, 0)


@pytest.mark.parametrize("name", list(ledger.WORKLOADS))
def test_every_run_leaves_ten_samples_beyond_the_tail(name):
    """Session counts are fixed per workload, so the reported tail
    percentile keeps MIN_BEYOND samples beyond it however fast the
    server is."""
    wl = ledger.WORKLOADS[name]
    reps = ledger.RunOptions(seconds=report.RUN_SECONDS).reps
    pooled = reps * ledger.slice_sessions(wl, report.RUN_SECONDS, 1 / reps)
    _, beyond = report.nearest_rank(
        [float(v) for v in range(pooled)], report.TAIL_PERCENTILE
    )
    assert beyond >= report.MIN_BEYOND


def test_schedule_is_a_function_of_the_seed():
    wl = ledger.WORKLOADS["smallset-durable"]
    count = ledger.slice_sessions(wl, 10.0, 1.0)
    assert count == round(wl.rate * 10.0)
    first = ledger.open_schedule(7, wl, "rep0", 10.0, count)
    assert first == ledger.open_schedule(7, wl, "rep0", 10.0, count)
    assert first != ledger.open_schedule(8, wl, "rep0", 10.0, count)
    assert first != ledger.open_schedule(7, wl, "rep1", 10.0, count)
    assert len(first) == count
    offsets = [plan.offset_s for plan in first]
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] == pytest.approx(10.0)


def test_session_inputs_change_the_mirror_by_d():
    wl = ledger.WORKLOADS["midset-proc"]
    mirror = ledger.initial_set(3, wl, 0)
    assert len(mirror) == wl.set_size and mirror[0] >= 1
    assert np.all(np.diff(mirror) > 0)
    plan = ledger.make_plan(3, wl, "rep0", 0)
    client, removed, fresh, client_seed = ledger.session_inputs(
        3, wl, plan, mirror
    )
    again = ledger.session_inputs(3, wl, plan, mirror)
    for mine, theirs in zip((client, removed, fresh), again):
        assert np.array_equal(mine, theirs)
    assert client_seed == again[3]
    assert len(removed) == plan.d // 2
    assert len(fresh) == plan.d - plan.d // 2
    assert np.isin(removed, mirror).all()
    assert not np.isin(fresh, mirror).any()
    assert set(np.setxor1d(client, mirror).tolist()) == \
        set(removed.tolist()) | set(fresh.tolist())


def test_coalescer_wait_charges_each_session_its_own_batch():
    """Two decodes share one decode_many that only the first parents:
    each waits for the batch, neither is charged it as waiting."""
    codec = BCHCodec(field_for(8), t=5)
    deltas = [[codec.sketch([3, 77, 200])], [codec.sketch([5, 9])]]
    coalescer = DecodeCoalescer(window_s=0.02)
    recorder = SpanRecorder()
    recorder.wrap(DecodeCoalescer, "decode", "service.scheduler.decode")
    recorder.wrap(BCHCodec, "decode_many", "bch.decode_many")

    async def both():
        return await asyncio.gather(
            *(coalescer.decode(codec, d) for d in deltas)
        )

    try:
        results = asyncio.run(both())
    finally:
        recorder.uninstall()
    assert [r[0] for r in results] == [[[3, 77, 200]], [[5, 9]]]
    assert coalescer.stats.coalesced_batches == 1
    rows = recorder.rows()
    decodes = [r for r in rows if r[0] == "service.scheduler.decode"]
    [batch] = [r for r in rows if r[0] == "bch.decode_many"]
    batch_ns = batch[2] - batch[1]
    window = (0, max(r[2] for r in rows))
    wait = wait_ms(rows, *window, "service.scheduler.decode",
                   "bch.decode_many")
    expected = (sum(r[2] - r[1] for r in decodes) - 2 * batch_ns) / 1e6
    assert wait == pytest.approx(expected)
    # self time charges the shared batch to the second session as waiting
    self_ms = summarize(rows, *window)["service.scheduler.decode"]["self_ms"]
    assert self_ms - wait == pytest.approx(batch_ns / 1e6)


def test_benchmark_json_lists_the_ledger_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["run_seconds"] == report.RUN_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(ledger.WORKLOADS)
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in report.END_TO_END if m.contract
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in report.PER_LAYER
    ]


@pytest.mark.parametrize("name", list(ledger.WORKLOADS))
def test_short_runs_validate_and_repeat_exactly(name):
    first, second = _short_section(name), _short_section(name)
    for section in (first, second):
        assert section["ok"], section["counts"]["errors"]
        assert section["end_to_end"]["failed_fraction"]["value"] == 0
        assert 1 <= section["counts"]["attempted"] <= 10
    for metric in EXACT:
        assert first["end_to_end"][metric] == second["end_to_end"][metric]


def test_traced_run_times_every_layer_of_the_durable_path():
    section = _short_section("smallset-durable", trace=True)
    assert section["ok"], section["counts"]["errors"]
    layers = {k: v["value"] for k, v in section["per_layer"].items()}
    for name in (
        "service.store.snapshot.ms", "estimators.tow.sketch.ms",
        "core.sessions.bob_init.ms", "core.params.from_d.ms",
        "core.sessions.begin_reply.ms", "core.sessions.finish_reply.ms",
        "service.scheduler.decode.ms", "bch.decode_many.ms",
        "service.store.apply_diff.ms", "cluster.storage.record_diff.ms",
        "cluster.replication.wait_durable.ms", "client.connect.ms",
        "client.tow.sketch.ms", "client.alice_encode.ms",
        "client.alice_decode.ms", "service.wire.frames_per_session",
    ):
        assert layers[name] > 0, name
    assert layers["core.params.from_d.calls"] == 1.0
    assert layers["cluster.storage.record_diff.calls"] >= 1.0
    # inline executor: no worker RPC
    assert layers["cluster.router.decode_remote.ms"] == 0.0
