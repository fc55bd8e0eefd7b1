"""Tests for ``repro.devtools`` — the project-specific static analyzers.

Each checker gets positive and negative fixture snippets; the framework
gets pragma-suppression, baseline, exit-code, and JSON-shape coverage;
and a meta-test runs the real suite over ``src/repro`` so the tree the
tests ship with is itself clean (modulo the committed baseline).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools import check as check_mod
from repro.devtools.baseline import Baseline, BaselineError
from repro.devtools.checkers import all_checkers, checker_ids
from repro.devtools.checkers.async_blocking import BlockingCallInAsync
from repro.devtools.checkers.clocks import MonotonicClock
from repro.devtools.checkers.durability import DurableBeforeAck
from repro.devtools.checkers.frames import WireFrameExhaustiveness
from repro.devtools.checkers.rng import UnseededRng
from repro.devtools.checkers.schemas import SchemaPinDrift
from repro.devtools.checkers.tasks import TaskLeak
from repro.devtools.source import FRAMEWORK_CHECKERS, Project, find_root

REPO = Path(__file__).resolve().parents[1]

KNOWN_IDS = frozenset(checker_ids()) | frozenset(FRAMEWORK_CHECKERS)


def make_project(tmp_path: Path, files: dict[str, str]) -> Project:
    """A throwaway project rooted at ``tmp_path``; every ``.py`` in
    ``files`` is part of the scanned set, other files (tests, docs)
    are written for the cross-file checkers to discover."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fix'\n")
    scanned = []
    for rel, code in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code).lstrip("\n"))
        if path.suffix == ".py" and not rel.startswith("tests/"):
            scanned.append(path)
    return Project(tmp_path, sorted(scanned), KNOWN_IDS)


def run_one(checker, tmp_path: Path, files: dict[str, str]):
    return check_mod.run_checkers(make_project(tmp_path, files), [checker])


# ---------------------------------------------------------------- checkers


class TestBlockingCallInAsync:
    def test_flags_sleep_and_open(self, tmp_path):
        findings = run_one(BlockingCallInAsync(), tmp_path, {"src/m.py": """
            import time
            async def handler():
                time.sleep(1)
                open("x").read()
        """})
        assert [f.line for f in findings] == [3, 4]
        assert all(f.checker == "blocking-call-in-async" for f in findings)

    def test_sync_def_and_nested_scopes(self, tmp_path):
        findings = run_one(BlockingCallInAsync(), tmp_path, {"src/m.py": """
            import time
            def plain():
                time.sleep(1)        # sync context: fine
            async def handler():
                def helper():
                    time.sleep(1)    # nested sync def: fine
                fn = lambda: open("x")
                return helper, fn
        """})
        assert findings == []

    def test_sqlite_methods_gated_on_import(self, tmp_path):
        flagged = run_one(BlockingCallInAsync(), tmp_path, {"src/a.py": """
            import sqlite3
            async def handler(conn):
                conn.execute("select 1")
        """})
        assert len(flagged) == 1 and "sqlite3" in flagged[0].message
        clean = run_one(BlockingCallInAsync(), tmp_path / "b", {"src/a.py": """
            async def handler(conn):
                conn.execute("select 1")   # no sqlite3 import: not sqlite
        """})
        assert clean == []

    def test_durable_methods_only_in_cluster(self, tmp_path):
        code = """
            async def handler(store):
                store.apply_diff("s", add=[], remove=[])
        """
        flagged = run_one(
            BlockingCallInAsync(), tmp_path,
            {"src/repro/cluster/shard.py": code},
        )
        assert len(flagged) == 1 and "commit to disk" in flagged[0].message
        clean = run_one(
            BlockingCallInAsync(), tmp_path / "b",
            {"src/repro/service/shard.py": code},
        )
        assert clean == []


class TestMonotonicClock:
    def test_direct_subtraction(self, tmp_path):
        findings = run_one(MonotonicClock(), tmp_path, {"src/m.py": """
            import time
            def f(start):
                return time.time() - start
        """})
        assert len(findings) == 1 and "subtraction" in findings[0].message

    def test_stamp_subtracted_later_in_scope(self, tmp_path):
        findings = run_one(MonotonicClock(), tmp_path, {"src/m.py": """
            import time
            def f():
                t0 = time.time()
                work()
                return time.time() - t0
        """})
        # the assignment and the direct use are both reported
        assert {f.line for f in findings} == {3, 5}

    def test_duration_named_binding(self, tmp_path):
        findings = run_one(MonotonicClock(), tmp_path, {"src/m.py": """
            import time
            def f():
                elapsed = time.time()
                return elapsed
        """})
        assert len(findings) == 1
        assert "duration-named" in findings[0].message

    def test_cross_method_self_attribute(self, tmp_path):
        findings = run_one(MonotonicClock(), tmp_path, {"src/m.py": """
            import time
            class Session:
                def start(self):
                    self.t0 = time.time()
                def stop(self):
                    return time.monotonic() - self.t0
        """})
        assert len(findings) == 1 and "subtracted elsewhere" in findings[0].message

    def test_wall_timestamps_are_fine(self, tmp_path):
        findings = run_one(MonotonicClock(), tmp_path, {"src/m.py": """
            import time
            def f():
                created_unix = time.time()
                t0 = time.perf_counter()
                elapsed = time.perf_counter() - t0
                return created_unix, elapsed
        """})
        assert findings == []


class TestDurableBeforeAck:
    def test_ack_before_durable_write(self, tmp_path):
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/h.py": """
                async def handle(self, req):
                    await self._reply_ok(req)
                    self.store.record_diff(req.set, req.diff)
            """},
        )
        assert len(findings) == 1
        assert "before its durable write" in findings[0].message

    def test_durable_then_ack_is_fine(self, tmp_path):
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/h.py": """
                async def handle(self, req):
                    self.store.record_diff(req.set, req.diff)
                    await self._reply_ok(req)
            """},
        )
        assert findings == []

    def test_scoped_to_cluster_modules(self, tmp_path):
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/service/h.py": """
                async def handle(self, req):
                    await self._reply_ok(req)
                    self.store.record_diff(req.set, req.diff)
            """},
        )
        assert findings == []

    def test_replication_cursor_before_durable_apply(self, tmp_path):
        """The follower's cursor is the ack an election trusts: writing
        it before the durable apply overstates the replica."""
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/repl.py": """
                async def _apply_one(self, op, args, seq):
                    await self._write_cursor(seq)
                    await self.applier.apply(op, args)
            """},
        )
        assert len(findings) == 1
        assert "before its durable write" in findings[0].message

    def test_quorum_reply_before_wait_durable(self, tmp_path):
        """Quorum mode: resolving the mutation future before the quorum
        count acks data a lost-primary election may not hold."""
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/w.py": """
                async def _worker(self, shard):
                    future.set_result(result)
                    await shard.repl.wait_durable(seq)
            """},
        )
        assert len(findings) == 1

    def test_worker_ack_before_apply_mutation(self, tmp_path):
        """The shard worker's loop: an ack hoisted above the durable
        apply would ship — and answer — a mutation that is not on
        disk."""
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/worker.py": """
                async def _run(self):
                    op, args, trace, ack = await self._queue.get()
                    ack(None, None)
                    await apply_mutation(self.store, self.storage, op, args)
            """},
        )
        assert len(findings) == 1
        assert "before its durable write" in findings[0].message

    def test_worker_ack_after_apply_mutation_is_fine(self, tmp_path):
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/worker.py": """
                async def _run(self):
                    op, args, trace, ack = await self._queue.get()
                    result = await apply_mutation(
                        self.store, self.storage, op, args
                    )
                    ack(result, None)
            """},
        )
        assert findings == []

    def test_quorum_count_then_reply_is_fine(self, tmp_path):
        findings = run_one(
            DurableBeforeAck(), tmp_path,
            {"src/repro/cluster/w.py": """
                async def _worker(self, shard):
                    apply_mutation(store, storage, op, args, trace)
                    await shard.repl.wait_durable(seq)
                    future.set_result(result)

                async def _bootstrap(self):
                    await self.applier.restart(entries)
                    await self._write_cursor(seq)
            """},
        )
        assert findings == []


FRAMES_FIXTURE = {
    "src/repro/service/wire.py": """
        import enum
        class FrameType(enum.IntEnum):
            HELLO = 1
            DATA = 2
            ORPHAN = 3
        FRAME_LABELS = {
            FrameType.HELLO: "hello",
            FrameType.DATA: "data",
        }
    """,
    "src/repro/service/server.py": """
        from repro.service.wire import FrameType
        def dispatch(frame):
            if frame.type == FrameType.HELLO:
                return "hi"
            if frame.type == FrameType.BOGUS:
                return "?"
    """,
    "src/repro/service/client.py": """
        from repro.service.wire import FrameType
        def send(conn):
            conn.put(FrameType.DATA)
    """,
}


class TestWireFrames:
    def test_orphan_unknown_and_table_gap(self, tmp_path):
        findings = run_one(WireFrameExhaustiveness(), tmp_path,
                           dict(FRAMES_FIXTURE))
        messages = sorted(f.message for f in findings)
        assert any("ORPHAN is never dispatched" in m for m in messages)
        assert any("BOGUS is not a defined frame type" in m for m in messages)
        assert any("does not cover FrameType.ORPHAN" in m for m in messages)
        assert len(findings) == 3

    def test_exhaustive_dispatch_is_clean(self, tmp_path):
        fixture = dict(FRAMES_FIXTURE)
        fixture["src/repro/service/wire.py"] = """
            import enum
            class FrameType(enum.IntEnum):
                HELLO = 1
                DATA = 2
            FRAME_LABELS = {
                FrameType.HELLO: "hello",
                FrameType.DATA: "data",
            }
        """
        fixture["src/repro/service/server.py"] = """
            from repro.service.wire import FrameType
            def dispatch(frame):
                return frame.type == FrameType.HELLO
        """
        findings = run_one(WireFrameExhaustiveness(), tmp_path, fixture)
        assert findings == []

    def test_real_wire_is_exhaustive(self):
        project = Project(REPO, [REPO / "src"], KNOWN_IDS)
        findings = list(WireFrameExhaustiveness().check_project(project))
        assert findings == [], [f.format() for f in findings]


class TestSchemaPins:
    def test_drifted_and_missing_pins(self, tmp_path):
        findings = run_one(SchemaPinDrift(), tmp_path, {
            "src/repro/obs/metrics.py": "WINDOW_SCHEMA = 2\n",
            "tests/test_pin.py": """
                from repro.obs.metrics import WINDOW_SCHEMA
                def test_pin(doc):
                    assert doc["schema"] == WINDOW_SCHEMA == 1
            """,
            "docs/x.md": "`WINDOW_SCHEMA` (currently 1) versions it.\n",
        })
        messages = sorted(f.message for f in findings)
        assert any("pins WINDOW_SCHEMA == 1 but the constant is 2" in m
                   for m in messages)
        assert any("doc states WINDOW_SCHEMA as 1 but the constant is 2" in m
                   for m in messages)

    def test_unpinned_constant(self, tmp_path):
        findings = run_one(SchemaPinDrift(), tmp_path, {
            "src/repro/obs/metrics.py": "WINDOW_SCHEMA = 1\n",
            "tests/test_pin.py": """
                def test_nothing():
                    assert True
            """,
            "docs/other.md": "nothing about schemas here\n",
        })
        messages = sorted(f.message for f in findings)
        assert any("no test pins a literal value" in m for m in messages)
        assert any("not mentioned in README.md or docs/" in m
                   for m in messages)

    def test_matching_pins_are_clean(self, tmp_path):
        findings = run_one(SchemaPinDrift(), tmp_path, {
            "src/repro/obs/metrics.py": "WINDOW_SCHEMA = 1\n",
            "tests/test_pin.py": """
                from repro.obs.metrics import WINDOW_SCHEMA
                def test_pin(doc):
                    assert doc["schema"] == WINDOW_SCHEMA == 1
            """,
            "docs/x.md": "`WINDOW_SCHEMA` (currently 1) versions it.\n",
        })
        assert findings == []


class TestUnseededRng:
    def test_global_generator_calls(self, tmp_path):
        findings = run_one(UnseededRng(), tmp_path, {"src/m.py": """
            import random
            import numpy as np
            def f():
                a = random.randint(0, 9)
                b = np.random.rand()
                np.random.seed(42)
                return a, b
        """})
        assert len(findings) == 3

    def test_seeded_constructions_are_fine(self, tmp_path):
        findings = run_one(UnseededRng(), tmp_path, {"src/m.py": """
            import random
            import numpy as np
            def f(seed):
                rng = random.Random(seed)
                gen = np.random.default_rng(seed)
                return rng, gen
        """})
        assert findings == []

    def test_unseeded_random_instance_and_from_import(self, tmp_path):
        findings = run_one(UnseededRng(), tmp_path, {"src/m.py": """
            import random
            from random import randint
            def f():
                return random.Random(), randint(0, 1)
        """})
        messages = sorted(f.message for f in findings)
        assert any("without a seed" in m for m in messages)
        assert any("from random import randint" in m for m in messages)

    def test_module_used_as_rng_object(self, tmp_path):
        findings = run_one(UnseededRng(), tmp_path, {"src/m.py": """
            import random
            def f(rng=None):
                rng = rng if rng is not None else random
                return rng
        """})
        assert len(findings) == 1
        assert "used as an RNG object" in findings[0].message

    def test_tests_and_seeds_module_exempt(self, tmp_path):
        code = "import random\ndef helper():\n    return random.random()\n"
        for index, rel in enumerate((
            "src/repro/utils/seeds.py", "tests/helper.py",
            "src/test_thing.py",
        )):
            root = tmp_path / str(index)
            path = root / rel
            path.parent.mkdir(parents=True)
            (root / "pyproject.toml").write_text("[project]\n")
            path.write_text(code)
            project = Project(root, [path], KNOWN_IDS)
            findings = check_mod.run_checkers(project, [UnseededRng()])
            assert findings == [], rel


class TestTaskLeak:
    def test_discarded_task(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            import asyncio
            async def f(coro):
                asyncio.create_task(coro)
        """})
        assert len(findings) == 1 and "discarded" in findings[0].message

    def test_owned_tasks_are_fine(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            import asyncio
            async def f(self, coro):
                task = asyncio.create_task(coro)
                self.tasks.add(task)
                task.add_done_callback(self.tasks.discard)
                await asyncio.create_task(coro)
        """})
        assert findings == []


# ------------------------------------------------------------- suppression


class TestPragmas:
    def test_trailing_pragma_suppresses(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            import asyncio
            async def f(coro):
                asyncio.create_task(coro)  # repro: ignore[task-leak] -- test fixture
        """})
        assert findings == []

    def test_own_line_pragma_covers_next_statement(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            import asyncio
            async def f(coro):
                # repro: ignore[task-leak] -- fixture: reason may take
                # several comment lines before the statement
                asyncio.create_task(coro)
        """})
        assert findings == []

    def test_pragma_for_other_checker_does_not_suppress(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            import asyncio
            async def f(coro):
                asyncio.create_task(coro)  # repro: ignore[monotonic-clock] -- wrong id
        """})
        assert [f.checker for f in findings] == ["task-leak"]

    def test_file_level_pragma(self, tmp_path):
        findings = run_one(UnseededRng(), tmp_path, {"src/m.py": """
            # repro: ignore-file[unseeded-rng] -- fixture: demo script
            import random
            def f():
                return random.random()
        """})
        assert findings == []

    def test_unjustified_pragma_is_a_finding(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            import asyncio
            async def f(coro):
                asyncio.create_task(coro)  # repro: ignore[task-leak]
        """})
        checkers = sorted(f.checker for f in findings)
        # the unjustified pragma does not suppress, and is itself flagged
        assert checkers == ["bad-pragma", "task-leak"]
        bad = [f for f in findings if f.checker == "bad-pragma"][0]
        assert "justification" in bad.message

    def test_unknown_checker_id_is_a_finding(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            x = 1  # repro: ignore[no-such-checker] -- oops
        """})
        assert [f.checker for f in findings] == ["bad-pragma"]
        assert "unknown checker" in findings[0].message

    def test_pragma_without_ids_is_a_finding(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, {"src/m.py": """
            x = 1  # repro: ignore -- blanket suppressions are banned
        """})
        assert [f.checker for f in findings] == ["bad-pragma"]
        assert "explicit checker ids" in findings[0].message


# ------------------------------------------------- fingerprints + baseline


class TestBaseline:
    VIOLATION = {"src/m.py": """
        import asyncio
        async def f(coro):
            asyncio.create_task(coro)
    """}

    def test_fingerprint_survives_line_drift(self, tmp_path):
        first = run_one(TaskLeak(), tmp_path / "a", dict(self.VIOLATION))
        shifted = {"src/m.py": """
            import asyncio
            # an unrelated comment shifts every line below it
            async def f(coro):
                asyncio.create_task(coro)
        """}
        second = run_one(TaskLeak(), tmp_path / "b", shifted)
        assert first[0].line != second[0].line
        assert first[0].fingerprint == second[0].fingerprint

    def test_baseline_apply_and_stale(self, tmp_path):
        findings = run_one(TaskLeak(), tmp_path, dict(self.VIOLATION))
        target = tmp_path / "baseline.json"
        assert Baseline.write(target, findings) == 1
        baseline = Baseline.load(target)
        baseline.apply(findings)
        assert all(f.baselined for f in findings)
        assert baseline.stale(findings) == []
        assert baseline.stale([]) == [findings[0].fingerprint]

    def test_corrupt_baseline_raises(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        with pytest.raises(BaselineError):
            Baseline.load(target)
        target.write_text(json.dumps({"schema": 99, "findings": []}))
        with pytest.raises(BaselineError):
            Baseline.load(target)


# ------------------------------------------------------ CLI and exit codes


#: One injectable violation per checker class — the acceptance demo that
#: `repro check` exits nonzero on each of them.
INJECTIONS = {
    "blocking-call-in-async": {"src/m.py": """
        import time
        async def f():
            time.sleep(1)
    """},
    "monotonic-clock": {"src/m.py": """
        import time
        def f(t0):
            return time.time() - t0
    """},
    "durable-before-ack": {"src/repro/cluster/h.py": """
        async def handle(self, req):
            await self._reply_ok(req)
            self.store.record_diff(req.set, req.diff)
    """},
    "wire-frames": dict(FRAMES_FIXTURE),
    "schema-pins": {
        "src/repro/obs/metrics.py": "WINDOW_SCHEMA = 2\n",
        "tests/test_pin.py": (
            "from repro.obs.metrics import WINDOW_SCHEMA\n"
            "def test_pin(doc):\n"
            "    assert doc['schema'] == WINDOW_SCHEMA == 1\n"
        ),
    },
    "unseeded-rng": {"src/m.py": """
        import random
        def f():
            return random.random()
    """},
    "task-leak": {"src/m.py": """
        import asyncio
        async def f(coro):
            asyncio.create_task(coro)
    """},
}


class TestCli:
    def main(self, tmp_path, files, *argv):
        make_project(tmp_path, files)
        return check_mod.main(
            [str(tmp_path / "src"), "--root", str(tmp_path), *argv]
        )

    def test_clean_project_exits_zero(self, tmp_path, capsys):
        code = self.main(tmp_path, {"src/m.py": "x = 1\n"})
        assert code == check_mod.EXIT_CLEAN
        assert "0 new" in capsys.readouterr().out

    @pytest.mark.parametrize("checker_id", sorted(INJECTIONS))
    def test_each_injected_violation_fails(self, tmp_path, capsys,
                                           checker_id):
        code = self.main(tmp_path, dict(INJECTIONS[checker_id]))
        assert code == check_mod.EXIT_FINDINGS
        out = capsys.readouterr().out
        assert f" {checker_id}: " in out, out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        assert self.main(tmp_path, files) == check_mod.EXIT_FINDINGS
        assert self.main(tmp_path, files, "--write-baseline") \
            == check_mod.EXIT_CLEAN
        assert (tmp_path / check_mod.DEFAULT_BASELINE).exists()
        capsys.readouterr()
        assert self.main(tmp_path, files) == check_mod.EXIT_CLEAN
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_fixed_finding_reports_stale_baseline(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        self.main(tmp_path, files, "--write-baseline")
        (tmp_path / "src/m.py").write_text(
            "import asyncio\n"
            "async def f(self, coro):\n"
            "    self.t = asyncio.create_task(coro)\n"
        )
        capsys.readouterr()
        assert self.main(tmp_path, files=dict()) == check_mod.EXIT_CLEAN
        out = capsys.readouterr().out
        assert "stale baseline" in out

    def test_new_finding_on_top_of_baseline_fails(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        self.main(tmp_path, files, "--write-baseline")
        extra = tmp_path / "src/extra.py"
        extra.write_text(
            "import random\ndef f():\n    return random.random()\n"
        )
        capsys.readouterr()
        assert self.main(tmp_path, dict()) == check_mod.EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "unseeded-rng" in out and "1 new" in out

    def test_no_baseline_flag_sees_everything(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        self.main(tmp_path, files, "--write-baseline")
        assert self.main(tmp_path, dict(), "--no-baseline") \
            == check_mod.EXIT_FINDINGS

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        make_project(tmp_path, files)
        (tmp_path / check_mod.DEFAULT_BASELINE).write_text("{nope")
        code = check_mod.main(
            [str(tmp_path / "src"), "--root", str(tmp_path)]
        )
        assert code == check_mod.EXIT_ERROR

    def test_missing_path_exits_two(self, tmp_path):
        assert check_mod.main(
            [str(tmp_path / "nowhere"), "--root", str(tmp_path)]
        ) == check_mod.EXIT_ERROR

    def test_unknown_select_exits_two(self, tmp_path):
        code = self.main(tmp_path, {"src/m.py": "x = 1\n"},
                         "--select", "no-such-checker")
        assert code == check_mod.EXIT_ERROR

    def test_select_narrows_checkers(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        code = self.main(tmp_path, files, "--select", "monotonic-clock")
        assert code == check_mod.EXIT_CLEAN

    def test_json_report_shape(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        code = self.main(tmp_path, files, "--json")
        assert code == check_mod.EXIT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == check_mod.REPORT_SCHEMA_VERSION
        assert doc["summary"]["new"] == 1
        assert doc["summary"]["by_checker"] == {"task-leak": 1}
        (finding,) = doc["findings"]
        assert finding["checker"] == "task-leak"
        assert finding["path"] == "src/m.py"
        assert finding["line"] > 0 and finding["fingerprint"]
        assert not finding["baselined"]

    def test_output_file(self, tmp_path, capsys):
        files = dict(INJECTIONS["task-leak"])
        target = tmp_path / "findings.json"
        self.main(tmp_path, files, "--output", str(target))
        doc = json.loads(target.read_text())
        assert doc["summary"]["total"] == 1

    def test_list_checkers(self, tmp_path, capsys):
        assert check_mod.main(["--list-checkers"]) == check_mod.EXIT_CLEAN
        out = capsys.readouterr().out
        for checker_id in checker_ids():
            assert checker_id in out
        assert "bad-pragma" in out and "parse-error" in out

    def test_parse_error_is_a_finding(self, tmp_path, capsys):
        code = self.main(tmp_path, {"src/m.py": "def broken(:\n"})
        assert code == check_mod.EXIT_FINDINGS
        assert "parse-error" in capsys.readouterr().out


def test_module_and_subcommand_entry_points(tmp_path):
    """`python -m repro.devtools.check` and `repro check` both run, with
    the documented exit codes, from a subprocess."""
    (tmp_path / "src").mkdir()
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fix'\n")
    (tmp_path / "src" / "m.py").write_text(
        "import asyncio\nasync def f(c):\n    asyncio.create_task(c)\n"
    )
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    for entry in (["-m", "repro.devtools.check"], ["-m", "repro", "check"]):
        proc = subprocess.run(
            [sys.executable, *entry, str(tmp_path / "src"),
             "--root", str(tmp_path), "--json"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == check_mod.EXIT_FINDINGS, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["summary"]["by_checker"] == {"task-leak": 1}


# ------------------------------------------------------------- meta checks


def test_repo_source_tree_is_clean_modulo_baseline(capsys):
    """The real gate over the real tree: src/ plus the example/benchmark
    trees produce no findings beyond the committed baseline."""
    code = check_mod.main([
        str(REPO / "src"), str(REPO / "benchmarks"), str(REPO / "examples"),
        str(REPO / "scripts"), "--root", str(REPO),
    ])
    out = capsys.readouterr().out
    assert code == check_mod.EXIT_CLEAN, out
    assert "0 new" in out


def test_committed_baseline_has_no_stale_entries(capsys):
    check_mod.main([
        str(REPO / "src"), str(REPO / "benchmarks"), str(REPO / "examples"),
        str(REPO / "scripts"), "--root", str(REPO),
    ])
    out = capsys.readouterr().out
    assert "stale baseline" not in out, out


def test_find_root_discovers_pyproject(tmp_path):
    nested = tmp_path / "pkg" / "sub"
    nested.mkdir(parents=True)
    (tmp_path / "pyproject.toml").write_text("[project]\n")
    assert find_root(nested) == tmp_path


def test_all_checkers_have_identity():
    checkers = all_checkers()
    ids = [c.id for c in checkers]
    assert len(ids) == len(set(ids)) and len(ids) >= 7
    for checker in checkers:
        assert checker.id and checker.description and checker.hint


@pytest.mark.skipif(shutil.which("mypy") is None,
                    reason="mypy not installed (CI runs it)")
def test_mypy_typed_core_passes():
    proc = subprocess.run(
        ["mypy"], cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
