"""The StorageBackend contract, backend conversion, and the config API.

Contract tests run against every registered backend through the public
``open_backend`` factory — a new backend that passes this file (plus the
parametrized cluster suites) is a drop-in.  SQLite-specific behaviors
(WAL pragmas, lazy materialization, torn-WAL crash recovery) and the
``ClusterConfig`` / deprecation-shim surface live here too.

Written against plain ``asyncio.run`` where a cluster is needed, so the
suite does not depend on a pytest-asyncio plugin being installed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.config import ClusterConfig, open_cluster
from repro.cluster.manifest import StorageMismatchError, load_manifest
from repro.cluster.rebalance import rebalance
from repro.cluster.router import ClusterStore
from repro.cluster.sqlite import DEFAULT_CACHE_SETS, SqliteBackend, db_filename
from repro.cluster.storage import (
    BACKEND_NAMES,
    StorageCorruptError,
    apply_mutation,
    backend_class,
    open_backend,
)
from repro.errors import ReproError
from repro.service.store import SetStore, UnknownSetError


def _entries(seed: int, n: int = 8):
    rng = random.Random(seed)
    return [
        (
            f"s{i:02d}",
            frozenset(rng.sample(range(1, 1 << 30), rng.randint(1, 30))),
            rng.randrange(5),
        )
        for i in range(n)
    ]


class _Shard:
    """A backend's live store, mutated the one way a shard mutates:
    through :func:`apply_mutation`, durable first.  Reads go to the
    store."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.store = backend.open_store()

    def __getattr__(self, attr):
        return getattr(self.store, attr)

    def create(self, name: str, values=(), version: int = 0) -> None:
        self._mutate("create", (name, values, version))

    def apply_diff(self, name: str, add=(), remove=()) -> int:
        return self._mutate("apply", (name, add, remove))

    def _mutate(self, op: str, args: tuple):
        return asyncio.run(apply_mutation(self.store, self.backend, op, args))


def _committed(name: str, directory) -> list:
    """The durable truth as a read-only opener sees it, sorted."""
    backend = open_backend(name, directory, create=False)
    try:
        return sorted(backend.iter_sets())
    finally:
        backend.close()


def _contents(entries) -> list:
    """``(name, values, version)`` entries with the values as a Python
    set, so element arrays and set literals compare by contents."""
    return [
        (name, {int(v) for v in values}, version)
        for name, values, version in entries
    ]


class TestBackendContract:
    """Every registered backend must pass these identically."""

    def test_registry_covers_all_names(self):
        for name in BACKEND_NAMES:
            cls = backend_class(name)
            assert cls.name == name
        with pytest.raises(ReproError, match="unknown storage backend"):
            backend_class("bogus")

    def test_roundtrip_create_diff_reopen(self, tmp_path, storage_backend):
        backend = open_backend(storage_backend, tmp_path)
        store = _Shard(backend)
        store.create("a", {1, 2, 3})
        store.create("b", {10})
        assert store.apply_diff("a", add=[4], remove=[1]) == 2
        assert store.apply_diff("b", add=[10]) == 0    # no-op: no version bump
        backend.close()

        committed = dict(
            (name, (values, version))
            for name, values, version in _contents(
                _committed(storage_backend, tmp_path)
            )
        )
        assert committed == {
            "a": ({2, 3, 4}, 1),
            "b": ({10}, 0),
        }

    def test_failed_durable_write_persists_nothing(
        self, tmp_path, storage_backend, monkeypatch
    ):
        backend = open_backend(storage_backend, tmp_path)
        store = _Shard(backend)
        store.create("s", {1, 2})

        def exploding(name, add=(), remove=()):
            raise OSError("no space left on device")

        monkeypatch.setattr(backend, "record_diff", exploding)
        with pytest.raises(OSError):
            store.apply_diff("s", add=[99])
        # visible state untouched, durable state untouched
        assert store.get("s") == {1, 2}
        assert store.version("s") == 0
        backend.close()
        assert _contents(_committed(storage_backend, tmp_path)) == [
            ("s", {1, 2}, 0)
        ]

    def test_diff_against_unknown_set_raises_before_persisting(
        self, tmp_path, storage_backend
    ):
        backend = open_backend(storage_backend, tmp_path)
        store = _Shard(backend)
        with pytest.raises(UnknownSetError):
            store.apply_diff("ghost", add=[1])
        backend.close()
        assert _committed(storage_backend, tmp_path) == []

    def test_stage_installs_a_complete_epoch(self, tmp_path, storage_backend):
        cls = backend_class(storage_backend)
        entries = _entries(seed=7)
        staged = cls.stage(tmp_path, entries, epoch=3)
        assert staged > 0
        # the staged files are exactly the backend's declared layout
        base_names = cls.data_filenames(3)
        present = {p.name for p in tmp_path.iterdir()}
        assert present <= base_names
        assert any(name in present for name in base_names)
        # and a read-only open at that epoch sees every entry
        backend = cls(tmp_path, epoch=3, create=False)
        try:
            assert _contents(sorted(backend.iter_sets())) == _contents(
                sorted(entries)
            )
        finally:
            backend.close()

    def test_epoch_zero_and_nonzero_filenames_are_disjoint(
        self, storage_backend
    ):
        cls = backend_class(storage_backend)
        assert cls.data_filenames(0) & cls.data_filenames(2) == set()

    def test_stats_report_the_contract_keys(self, tmp_path, storage_backend):
        backend = open_backend(storage_backend, tmp_path)
        store = _Shard(backend)
        store.create("s", {1})
        store.apply_diff("s", add=[2])
        stats = backend.stats()
        for key in (
            "epoch", "records_appended", "compactions", "recovered_sets",
            "tail_error",
        ):
            assert key in stats
        assert stats["records_appended"] >= 2
        assert stats["tail_error"] == ""
        backend.close()

    def test_compact_preserves_committed_state(
        self, tmp_path, storage_backend
    ):
        backend = open_backend(storage_backend, tmp_path)
        store = _Shard(backend)
        store.create("s", range(1, 200))
        for i in range(30):
            store.apply_diff("s", add=[1000 + i], remove=[1 + i])
        expected = ("s", store.get("s"), store.version("s"))
        backend.compact(store.items() if backend.compact_from_entries
                        else None)
        backend.close()
        assert _contents(_committed(storage_backend, tmp_path)) == [expected]

    def test_fsync_is_the_only_setting(self, tmp_path, storage_backend):
        backend = open_backend(storage_backend, tmp_path / "a", fsync=True)
        assert backend.fsync is True
        backend.close()
        with pytest.raises(TypeError):
            open_backend(storage_backend, tmp_path / "b", cache_sets=5)

    def test_readonly_open_never_creates_files(
        self, tmp_path, storage_backend
    ):
        target = tmp_path / "missing"
        backend = open_backend(storage_backend, target, create=False)
        assert list(backend.iter_sets()) == []
        backend.close()
        assert not target.exists()


class TestCrossBackendEquivalence:
    def test_same_mutations_same_committed_state(self, tmp_path):
        """The version arithmetic is part of the contract: the identical
        mutation sequence must commit identical contents AND versions on
        every backend (SQLite's total_changes bump == the in-memory
        changed-count bump)."""
        rng = random.Random(0xBEEF)
        script = []
        for i in range(6):
            script.append(("create", f"s{i}", rng.sample(range(1, 999), 12)))
        for _ in range(80):
            name = f"s{rng.randrange(6)}"
            script.append((
                "apply", name,
                rng.sample(range(1, 999), rng.randrange(0, 5)),
                rng.sample(range(1, 999), rng.randrange(0, 3)),
            ))

        states = {}
        for name in BACKEND_NAMES:
            backend = open_backend(name, tmp_path / name)
            store = _Shard(backend)
            for step in script:
                if step[0] == "create":
                    store.create(step[1], step[2])
                else:
                    store.apply_diff(step[1], add=step[2], remove=step[3])
            backend.close()
            states[name] = _committed(name, tmp_path / name)
        first, *rest = (_contents(state) for state in states.values())
        assert all(state == first for state in rest)
        assert len(first) == 6


class TestSqliteSpecific:
    def test_wal_mode_and_synchronous_pragmas(self, tmp_path):
        backend = SqliteBackend(tmp_path, fsync=False)
        conn = backend._conn
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA synchronous").fetchone()[0] == 1  # NORMAL
        backend.close()
        strict = SqliteBackend(tmp_path, fsync=True)
        assert (
            strict._conn.execute("PRAGMA synchronous").fetchone()[0] == 2
        )  # FULL
        strict.close()

    def test_uint64_elements_roundtrip(self, tmp_path):
        """Elements are uint64; SQLite INTEGERs are signed.  The high
        half of the range must survive the two's-complement mapping."""
        values = {0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1}
        backend = SqliteBackend(tmp_path)
        store = _Shard(backend)
        store.create("wide", values)
        store.apply_diff("wide", remove=[1 << 63])
        backend.close()
        [(_, committed, _)] = _contents(_committed("sqlite", tmp_path))
        assert committed == values - {1 << 63}

    def test_lazy_store_faults_and_evicts_under_cache_cap(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("repro.cluster.sqlite.DEFAULT_CACHE_SETS", 4)
        backend = SqliteBackend(tmp_path)
        store = _Shard(backend)
        for i in range(12):
            store.create(f"s{i}", {i, i + 100})
        assert len(store._sets) <= 4          # write path already bounded
        assert store.cache_evictions > 0
        # cold reads fault evicted sets back in, bit-for-bit
        before = store.cache_faults
        for i in range(12):
            assert store.get(f"s{i}") == {i, i + 100}
        assert store.cache_faults > before
        assert len(store._sets) <= 4
        # the registry is the database, not the cache
        assert store.names() == sorted(f"s{i}" for i in range(12))
        assert len(store.stats()) == 12
        assert store.cache_stats()["capacity"] == 4
        backend.close()

    def test_cluster_stats_loads_no_set(self, tmp_path, monkeypatch):
        """``cluster_stats()`` (every metrics scrape) counts an inline
        SQLite shard's sets and elements from the database's per-set
        summary: the same totals, and not one set hit, faulted in or
        evicted on the way."""
        monkeypatch.setattr("repro.cluster.sqlite.DEFAULT_CACHE_SETS", 4)
        sizes = {f"s{i:02d}": i + 1 for i in range(12)}

        async def inner():
            config = ClusterConfig(storage="sqlite")
            async with open_cluster(tmp_path, config) as store:
                for name, size in sizes.items():
                    await store.create(name, range(1, size + 1))
                lazy = store._shards[0].store
                before = lazy.cache_stats()
                [shard] = store.cluster_stats()["per_shard"]
                return shard, before, lazy.cache_stats()

        shard, before, after = asyncio.run(inner())
        assert (shard["sets"], shard["elements"]) == (12, sum(sizes.values()))
        for key in ("hits", "faults", "evictions"):
            assert after[key] == before[key], key

    def test_cache_default_is_generous(self):
        assert DEFAULT_CACHE_SETS >= 256

    def test_sigkilled_writer_loses_nothing_acknowledged(self, tmp_path):
        """The torn-WAL drill: a writer process SIGKILLs itself after N
        committed transactions without ever closing; reopening recovers
        every one of them (WAL recovery is the journal's torn-tail
        tolerance)."""
        script = textwrap.dedent(
            """
            import asyncio, os, signal, sys
            from repro.cluster.sqlite import SqliteBackend
            from repro.cluster.storage import apply_mutation

            async def main():
                backend = SqliteBackend(sys.argv[1])
                store = backend.open_store()
                await apply_mutation(
                    store, backend, "create", ("crash", range(1, 100), 0)
                )
                for i in range(25):
                    await apply_mutation(
                        store, backend, "apply", ("crash", [1000 + i], [])
                    )
                os.kill(os.getpid(), signal.SIGKILL)   # no close, no checkpoint

            asyncio.run(main())
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], env=env
        )
        assert proc.returncode == -9
        [(name, values, version)] = _contents(_committed("sqlite", tmp_path))
        assert name == "crash"
        assert values == set(range(1, 100)) | {1000 + i for i in range(25)}
        assert version == 25

    def test_compact_truncates_the_wal(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.cluster.storage.COMPACT_MIN_BYTES", 1024)
        backend = SqliteBackend(tmp_path)
        store = _Shard(backend)
        store.create("s", range(1, 2000))
        for i in range(50):
            store.apply_diff("s", add=[100_000 + i])
        assert backend._wal_bytes() > 0
        assert backend.should_compact()
        backend.compact()
        assert backend._wal_bytes() == 0
        assert not backend.should_compact()
        backend.close()
        [(_, values, _)] = _committed("sqlite", tmp_path)
        assert len(values) == 1999 + 50

    def test_corrupt_database_is_a_storage_corrupt_error(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        store = _Shard(backend)
        store.create("s", {1})
        backend.close()
        (tmp_path / db_filename()).write_bytes(b"\xff" * 512)
        with pytest.raises(StorageCorruptError):
            SqliteBackend(tmp_path)


class TestSqliteBulkBinding:
    """SQLite binds elements up to ``BULK_VALUES`` per statement: on
    both sides of every batch boundary it must commit what the journal
    backend and a bare ``SetStore`` hold."""

    SIZES = (0, 1, 498, 499, 500, 999, 10_000)

    @staticmethod
    def _script(seed: int) -> list:
        """Per size: a create straddling 2^63, then a diff adding and
        removing that many values (half of the adds already present,
        half of the removes absent), then a pure no-op diff."""
        rng = np.random.default_rng(seed)
        script = []
        for size in TestSqliteBulkBinding.SIZES:
            # 3 * size distinct uint64 values, top half >= 2^63
            pool = np.unique(rng.integers(
                0, 1 << 64, size=3 * size + 64, dtype=np.uint64
            ))[: 3 * size]
            pool = rng.permutation(pool)
            base, fresh, absent = np.split(pool, 3)
            name = f"n{size}"
            half = size // 2
            script.append(("create", name, base))
            script.append((
                "apply", name,
                np.concatenate([base[:half], fresh[: size - half]]),
                np.concatenate([base[half:], absent[:half]]),
            ))
            script.append(("apply", name, fresh[: size - half], absent))
        edges = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1]
        script.append(("create", "edges", edges))
        script.append(("apply", "edges", edges, [1 << 62, 1 << 63]))
        return script

    @staticmethod
    def _run(store, script) -> list:
        """Every step's return value."""
        results = []
        for step in script:
            if step[0] == "create":
                results.append(store.create(step[1], step[2]))
            else:
                results.append(
                    store.apply_diff(step[1], add=step[2], remove=step[3])
                )
        return results

    def test_every_batch_boundary_matches_the_journal_and_set_store(
        self, tmp_path
    ):
        script = self._script(seed=5)
        memory = SetStore()
        expected_results = self._run(memory, script)
        # each size's first diff changes exactly its fresh adds and its
        # present removes; the no-op diff changes nothing
        sizes = self.SIZES
        changed = expected_results[1 : 3 * len(sizes) : 3]
        assert changed == [2 * (size - size // 2) for size in sizes]
        assert expected_results[2 : 3 * len(sizes) : 3] == [0] * len(sizes)
        expected = _contents(memory.items())
        for name in BACKEND_NAMES:
            backend = open_backend(name, tmp_path / name)
            store = _Shard(backend)
            assert self._run(store, script) == expected_results, name
            backend.close()
            assert _contents(_committed(name, tmp_path / name)) == expected
        # an n-value set's version: 1 for the changing diff, 0 for the
        # no-op, so the durable bump rule held at every size
        versions = {name: version for name, _, version in expected}
        assert versions["n0"] == 0
        assert all(versions[f"n{size}"] == 1 for size in sizes if size)

    def test_stage_round_trips_every_batch_boundary(self, tmp_path):
        memory = SetStore()
        self._run(memory, self._script(seed=6))
        entries = memory.items()
        SqliteBackend.stage(tmp_path, entries)
        assert _contents(_committed("sqlite", tmp_path)) == _contents(entries)

    def test_diff_on_a_missing_set_persists_nothing(self, tmp_path):
        backend = SqliteBackend(tmp_path)
        backend.record_create("s", range(1, 1200))
        wide = np.arange(5000, 6500, dtype=np.uint64)
        with pytest.raises(UnknownSetError):
            backend.record_diff("ghost", add=wide, remove=wide[:700])
        conn = backend._conn
        assert conn.execute(
            "SELECT COUNT(*) FROM elements WHERE set_name = 'ghost'"
        ).fetchone() == (0,)
        backend.close()
        assert _contents(_committed("sqlite", tmp_path)) == [
            ("s", set(range(1, 1200)), 0)
        ]


class TestStorageMismatch:
    def _populate(self, data_dir, storage):
        async def inner():
            config = ClusterConfig(shards=2, storage=storage)
            async with open_cluster(data_dir, config) as store:
                await store.create("a", {1, 2, 3})
                await store.apply_diff("a", add=[4])

        asyncio.run(inner())

    def test_manifest_records_the_backend(self, tmp_path, storage_backend):
        self._populate(tmp_path, storage_backend)
        assert load_manifest(tmp_path).storage == storage_backend

    def test_mismatched_backend_refuses_with_remediation(
        self, tmp_path, storage_backend
    ):
        self._populate(tmp_path, storage_backend)
        other = next(n for n in BACKEND_NAMES if n != storage_backend)

        async def inner():
            config = ClusterConfig(shards=2, storage=other)
            with pytest.raises(StorageMismatchError) as excinfo:
                await open_cluster(tmp_path, config).start()
            message = str(excinfo.value)
            assert storage_backend in message and other in message
            assert "repro rebalance" in message and "--storage" in message

        asyncio.run(inner())

    def test_serve_mismatched_storage_fails_fast(self, tmp_path, capsys):
        from repro.cli import main

        self._populate(tmp_path, "journal")
        code = main([
            "serve", "--data-dir", str(tmp_path), "--shards", "2",
            "--storage", "sqlite", "--port", "0",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot serve" in err and "rebalance" in err

    def test_serve_storage_without_data_dir_is_usage_error(self, capsys):
        from repro.cli import main

        assert main(["serve", "--storage", "sqlite", "--port", "0"]) == 2
        assert "--data-dir" in capsys.readouterr().err


class TestBackendConversion:
    def _populate(self, data_dir, shards, storage, seed=0):
        rng = random.Random(seed)
        sets = {
            f"t{i}": set(rng.sample(range(1, 1 << 20), rng.randint(2, 25)))
            for i in range(10)
        }

        async def inner():
            config = ClusterConfig(shards=shards, storage=storage)
            async with open_cluster(data_dir, config) as store:
                for name, values in sets.items():
                    await store.create(name, values)
                    await store.apply_diff(name, add=[max(values) + 1])
                return (
                    {n: store.get(n) for n in store.names()},
                    {n: store.version(n) for n in store.names()},
                )

        return asyncio.run(inner())

    def _recovered(self, data_dir, shards, storage):
        async def inner():
            config = ClusterConfig(shards=shards, storage=storage)
            async with open_cluster(data_dir, config) as store:
                return (
                    {n: store.get(n) for n in store.names()},
                    {n: store.version(n) for n in store.names()},
                )

        return asyncio.run(inner())

    def test_conversion_roundtrip_is_bit_for_bit(
        self, tmp_path, storage_backend
    ):
        """journal -> sqlite -> journal (or the reverse): same shard
        count, every set and version identical at every step, shard
        files swept to exactly the committed backend's layout."""
        other = next(n for n in BACKEND_NAMES if n != storage_backend)
        expected = self._populate(tmp_path, 2, storage_backend, seed=1)

        there = rebalance(tmp_path, 2, storage=other)
        assert there.changed and there.converted
        assert (there.old_storage, there.new_storage) == (
            storage_backend, other,
        )
        assert set(there.rewritten_shards) == {0, 1}
        assert load_manifest(tmp_path).storage == other
        assert self._recovered(tmp_path, 2, other) == expected

        back = rebalance(tmp_path, 2, storage=storage_backend)
        assert back.changed and back.converted
        assert self._recovered(tmp_path, 2, storage_backend) == expected

        # the final sweep left only the committed backend's files
        manifest = load_manifest(tmp_path)
        for shard in range(2):
            shard_dir = tmp_path / f"shard-{shard:02d}"
            allowed = backend_class(storage_backend).data_filenames(
                manifest.shard_epoch(shard)
            )
            assert {p.name for p in shard_dir.iterdir()} <= allowed

    def test_conversion_combined_with_resize(self, tmp_path):
        expected = self._populate(tmp_path, 2, "journal", seed=2)
        result = rebalance(tmp_path, 5, storage="sqlite")
        assert result.converted and result.old_shards == 2
        assert self._recovered(tmp_path, 5, "sqlite") == expected

    def test_omitting_storage_keeps_the_committed_backend(self, tmp_path):
        expected = self._populate(tmp_path, 2, "sqlite", seed=3)
        result = rebalance(tmp_path, 4)           # no storage argument
        assert result.new_storage == "sqlite" and not result.converted
        assert self._recovered(tmp_path, 4, "sqlite") == expected

    def test_unknown_target_backend_fails_before_touching_files(
        self, tmp_path
    ):
        self._populate(tmp_path, 2, "journal", seed=4)
        before = load_manifest(tmp_path).to_dict()
        with pytest.raises(ReproError, match="unknown storage backend"):
            rebalance(tmp_path, 2, storage="wibble")
        assert load_manifest(tmp_path).to_dict() == before

    def test_cli_rebalance_converts_and_reports(self, tmp_path, capsys):
        from repro.cli import main

        expected = self._populate(tmp_path, 2, "journal", seed=5)
        code = main([
            "rebalance", "--data-dir", str(tmp_path), "--shards", "2",
            "--storage", "sqlite", "--json",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["changed"] is True
        assert out["old_storage"] == "journal"
        assert out["new_storage"] == "sqlite"
        assert self._recovered(tmp_path, 2, "sqlite") == expected


class TestClusterConfigApi:
    def test_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ClusterConfig(shards=0)
        with pytest.raises(ValueError, match="storage"):
            ClusterConfig(storage="wibble")
        with pytest.raises(ValueError, match="executor"):
            ClusterConfig(executor="threads")
        with pytest.raises(ValueError, match="vnodes"):
            ClusterConfig(vnodes=0)

    def test_replace_returns_a_validated_copy(self):
        config = ClusterConfig(shards=2)
        grown = dataclasses.replace(config, shards=4)
        assert (config.shards, grown.shards) == (2, 4)
        with pytest.raises(ValueError):
            dataclasses.replace(config, storage="wibble")

    def test_config_is_the_only_way_to_set_knobs(self, tmp_path):
        """``ClusterStore(data_dir, config)``: a knob passed as a keyword
        of its own is a TypeError; the config's knobs reach the store."""
        with pytest.raises(TypeError):
            ClusterStore(shards=2)
        store = ClusterStore(tmp_path, ClusterConfig(shards=2, fsync=True))
        assert store.config.shards == 2
        assert store.config.fsync is True

        async def inner():
            async with store:
                await store.create("s", {1})
                assert store.get("s") == {1}

        asyncio.run(inner())
        assert load_manifest(tmp_path).shards == 2

    def test_open_store_returns_a_memory_only_store(
        self, tmp_path, storage_backend
    ):
        backend = open_backend(storage_backend, tmp_path)
        store = backend.open_store()
        assert isinstance(store, SetStore)
        store.create("s", {1})              # no write reaches the backend
        assert store.apply_diff("s", add=[2]) == 1
        assert backend.stats()["records_appended"] == 0
        backend.close()
        assert _committed(storage_backend, tmp_path) == []
