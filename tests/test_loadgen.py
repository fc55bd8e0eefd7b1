"""Open-loop load generator: distributions, accounting, report, e2e.

The load tests' credibility rests on two properties checked here
directly: the traffic shapes match their stated distributions (seeded,
so tolerances can be tight without flaking), and latency is charged
from each session's *intended* start — a stalled or queueing server
shows up in the histogram instead of silently slowing the offered load
(the coordinated-omission trap).  Driver accounting runs against
injected fake session runners; one end-to-end test drives a real
:class:`ReconciliationServer` over sockets.
"""

from __future__ import annotations

import asyncio
import itertools
import json

import numpy as np
import pytest

from repro.loadgen import (
    REPORT_SCHEMA,
    DiffSizes,
    LoadgenConfig,
    LoadGenerator,
    PoissonArrivals,
    ZipfPopularity,
    validate_report,
)
from repro.loadgen.driver import CONVERGENCE
from repro.obs.metrics import SESSION_DURATION
from repro.service.server import ReconciliationServer
from repro.service.wire import ServerBusy


# -- traffic shapes ------------------------------------------------------------

class TestPoissonArrivals:
    def test_gaps_are_exponential_at_the_target_rate(self):
        rate = 200.0
        offsets = list(itertools.islice(
            iter(PoissonArrivals(rate, seed=1)), 5000
        ))
        gaps = np.diff(np.concatenate(([0.0], offsets)))
        assert np.all(gaps > 0)
        assert offsets == sorted(offsets)
        assert float(np.mean(gaps)) == pytest.approx(1.0 / rate, rel=0.05)
        # memorylessness signature: exponential gaps have CV = 1
        cv = float(np.std(gaps) / np.mean(gaps))
        assert cv == pytest.approx(1.0, rel=0.10)

    def test_seeded_reproducible_and_seed_sensitive(self):
        def take(seed):
            return list(itertools.islice(
                iter(PoissonArrivals(50.0, seed=seed)), 100
            ))

        assert take(7) == take(7)
        assert take(7) != take(8)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)


class TestZipfPopularity:
    def test_empirical_frequencies_track_the_pmf(self):
        zipf = ZipfPopularity(16, s=1.2, seed=3)
        samples = zipf.sample_many(20_000)
        assert samples.min() >= 0 and samples.max() < 16
        freq = np.bincount(samples, minlength=16) / samples.size
        assert np.allclose(freq, zipf.pmf, atol=0.02)
        # rank 0 is the hottest, and the head dominates the tail
        assert freq[0] == freq.max()
        assert freq[0] > 4 * freq[-1]

    def test_zero_exponent_degenerates_to_uniform(self):
        zipf = ZipfPopularity(8, s=0.0, seed=3)
        freq = np.bincount(zipf.sample_many(40_000), minlength=8) / 40_000
        assert np.allclose(freq, 1.0 / 8, atol=0.01)

    def test_single_sample_in_range_and_validation(self):
        zipf = ZipfPopularity(4, seed=0)
        assert all(0 <= zipf.sample() < 4 for _ in range(100))
        with pytest.raises(ValueError):
            ZipfPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(4, s=-1.0)


class TestDiffSizes:
    def test_fixed(self):
        diffs = DiffSizes("fixed:5", seed=1)
        assert [diffs.sample() for _ in range(20)] == [5] * 20
        assert diffs.mean == 5.0

    def test_uniform_bounds_inclusive_and_mean(self):
        diffs = DiffSizes("uniform:2:6", seed=1)
        samples = [diffs.sample() for _ in range(5000)]
        assert min(samples) == 2 and max(samples) == 6
        assert float(np.mean(samples)) == pytest.approx(4.0, rel=0.05)

    def test_geometric_mean_and_support(self):
        diffs = DiffSizes("geometric:6", seed=1)
        samples = [diffs.sample() for _ in range(20_000)]
        assert min(samples) >= 1
        assert float(np.mean(samples)) == pytest.approx(6.0, rel=0.05)

    @pytest.mark.parametrize("spec", [
        "fixed", "fixed:x", "fixed:-1", "uniform:5:2", "uniform:1",
        "geometric:0.5", "pareto:3", "",
    ])
    def test_bad_specs_die_eagerly(self, spec):
        with pytest.raises(ValueError):
            DiffSizes(spec)


# -- driver accounting (fake runners, no sockets) ------------------------------

def _config(**overrides) -> LoadgenConfig:
    defaults = dict(
        rate=100.0, duration_s=1.0, sets=4, diff="fixed:2",
        window_s=10.0, drain_s=10.0, max_in_flight=8, seed=0,
    )
    defaults.update(overrides)
    return LoadgenConfig(**defaults)


class TestOpenLoopAccounting:
    def test_queueing_delay_is_charged_to_latency(self):
        """Four sessions intended at (almost) the same instant on one
        set serialize behind the per-set lock: each runner call takes
        0.03 s, so the last session's measured latency must carry the
        ~0.09 s it queued — the open-loop property."""
        cfg = _config(sets=1)

        async def slow_runner(spec):
            await asyncio.sleep(0.03)

        gen = LoadGenerator(
            cfg, session_runner=slow_runner,
            arrivals=[0.0, 0.001, 0.002, 0.003],
        )
        report = asyncio.run(gen.run())
        totals = report["totals"]
        assert totals["scheduled"] == totals["sessions"] == 4
        summary = report["latency"][SESSION_DURATION]
        assert summary["count"] == 4
        assert summary["min_s"] >= 0.03 * 0.9
        assert summary["max_s"] >= 0.09        # 3 predecessors queued
        # convergence covers the mutation batches the syncs carried
        assert report["latency"][CONVERGENCE]["count"] >= 1
        assert totals["mutations"] == 8        # fixed:2 x 4 arrivals

    def test_stalled_server_shows_up_in_the_histogram(self):
        """While the 'server' stalls, intended arrivals keep accruing;
        once it unsticks, every queued session's latency includes the
        full stall it sat through."""

        async def scenario():
            gate = asyncio.Event()

            async def stalled_runner(spec):
                await gate.wait()

            gen = LoadGenerator(
                _config(sets=2), session_runner=stalled_runner,
                arrivals=[0.0, 0.0, 0.0],
            )

            async def release():
                await asyncio.sleep(0.25)
                gate.set()

            releaser = asyncio.create_task(release())
            report = await gen.run()
            await releaser
            return report

        report = asyncio.run(scenario())
        summary = report["latency"][SESSION_DURATION]
        assert report["totals"]["sessions"] == 3
        assert summary["min_s"] >= 0.25 * 0.9   # everyone ate the stall

    def test_shed_failure_and_success_outcomes(self):
        outcomes = iter([
            ServerBusy(0.01, "full"), OSError("boom"), None,
        ])

        async def scripted_runner(spec):
            result = next(outcomes)
            if result is not None:
                raise result

        gen = LoadGenerator(
            _config(sets=1), session_runner=scripted_runner,
            arrivals=[0.0, 0.0, 0.0],
        )
        report = asyncio.run(gen.run())
        totals = report["totals"]
        assert totals["sessions"] == 1
        assert totals["sheds"] == 1
        assert totals["failed"] == 1
        assert totals["errors"] == {"OSError": 1}
        assert report["rates"]["shed_rate"] == pytest.approx(1 / 3)
        assert report["rates"]["error_rate"] == pytest.approx(1 / 3)
        # a failed sync leaves its mutation batch pending: the one
        # success covers every batch queued before it
        assert report["latency"][CONVERGENCE]["count"] == 1

    def test_drain_timeout_abandons_hung_sessions(self):
        async def hung_runner(spec):
            await asyncio.Event().wait()

        gen = LoadGenerator(
            _config(drain_s=0.1), session_runner=hung_runner,
            arrivals=[0.0, 0.0],
        )
        report = asyncio.run(gen.run())
        assert report["totals"]["abandoned"] == 2
        assert report["totals"]["sessions"] == 0
        validate_report(report)

    def test_slo_grading_rides_the_report(self):
        async def slow_runner(spec):
            await asyncio.sleep(0.05)

        gen = LoadGenerator(
            _config(slo_p99_ms=1.0, window_s=0.2, sets=1),
            session_runner=slow_runner,
            arrivals=[0.0, 0.01, 0.02],
        )
        report = asyncio.run(gen.run())
        slo = report["slo"]
        assert slo is not None
        assert slo["targets"]["p99_ms"] == 1.0
        assert slo["windows_breached"] >= 1     # 50ms >> 1ms objective
        assert slo["burn_rate"] > 0


# -- the report ----------------------------------------------------------------

class TestReport:
    def _run(self, **overrides) -> dict:
        async def ok_runner(spec):
            await asyncio.sleep(0)

        gen = LoadGenerator(
            _config(**overrides), session_runner=ok_runner,
            arrivals=[0.0, 0.005, 0.01],
        )
        return asyncio.run(gen.run())

    def test_report_validates_and_round_trips_config(self):
        report = self._run(seed=42)
        validate_report(report)
        # literal pin: a schema bump must consciously edit this test
        assert report["schema"] == REPORT_SCHEMA == 1
        assert report["config"]["seed"] == 42
        assert report["config"]["diff"] == "fixed:2"
        assert report["slo"] is None            # no objectives set
        json.loads(json.dumps(report))          # plain JSON all the way

    def test_validator_rejects_broken_documents(self):
        good = self._run()

        def broken(mutate):
            doc = json.loads(json.dumps(good))
            mutate(doc)
            with pytest.raises(ValueError):
                validate_report(doc)

        broken(lambda d: d.pop("schema"))
        broken(lambda d: d.__setitem__("schema", REPORT_SCHEMA + 1))
        broken(lambda d: d.pop("slo"))
        broken(lambda d: d["totals"].__setitem__("sessions", -1))
        broken(lambda d: d["totals"].__setitem__(
            "sessions", d["totals"]["scheduled"] + 10
        ))
        broken(lambda d: d["rates"].__setitem__("shed_rate", 2.0))
        broken(lambda d: d["rates"].pop("achieved_per_s"))
        broken(lambda d: d["latency"][SESSION_DURATION].pop("p99_s"))
        broken(lambda d: d["timeseries"].pop("windows"))
        broken(lambda d: d.__setitem__("config", []))
        with pytest.raises(ValueError):
            validate_report("not a dict")

    def test_deterministic_traffic_given_a_seed(self):
        """Same seed, same schedule: the mirrors and mutation totals
        must be identical across runs (latency obviously differs)."""
        a = self._run(seed=9)
        b = self._run(seed=9)
        assert a["totals"]["mutations"] == b["totals"]["mutations"]
        assert a["config"] == b["config"]


# -- end to end ----------------------------------------------------------------

class TestEndToEnd:
    def test_open_loop_run_against_a_real_server(self, memory_cluster):
        async def scenario():
            async with (
                memory_cluster() as store,
                ReconciliationServer(store) as server,
            ):
                config = LoadgenConfig(
                    host="127.0.0.1",
                    port=server.port,
                    rate=60.0,
                    duration_s=0.5,
                    sets=3,
                    diff="fixed:4",
                    window_s=0.2,
                    drain_s=30.0,
                    slo_p99_ms=60_000.0,   # un-breachable: grading only
                )
                report = await LoadGenerator(config).run()
                return store, server.metrics, report

        store, metrics, report = asyncio.run(scenario())
        validate_report(report)
        totals = report["totals"]
        assert totals["sessions"] >= 5
        assert totals["failed"] == 0
        assert totals["sheds"] == 0
        assert totals["abandoned"] == 0
        # the driver's mirrors really landed: server-side sets exist
        # under the prefix and hold every pushed element
        names = [n for n in store.names() if n.startswith("lg-")]
        assert names
        assert sum(len(store.get(n)) for n in names) == \
            totals["mutations"]
        # both sides agree on how many sessions happened
        assert metrics.sessions_completed == totals["sessions"]
        # the windowed view saw the run: >= 2 windows, rates populated
        windows = report["timeseries"]["windows"]
        assert len(windows) >= 2
        assert any(w["deltas"].get("sessions") for w in windows)
        assert report["slo"]["windows_graded"] >= 1
        assert not report["slo"]["burning"]
