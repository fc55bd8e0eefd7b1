"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.gf import CarrylessField, TableField, TowerField32


@pytest.fixture(scope="session")
def gf8() -> TableField:
    return TableField(8)


@pytest.fixture(scope="session")
def gf7() -> TableField:
    """The paper's workhorse field (n = 127)."""
    return TableField(7)


@pytest.fixture(scope="session")
def gf32() -> TowerField32:
    return TowerField32()


@pytest.fixture(scope="session")
def gf32_ref() -> CarrylessField:
    return CarrylessField(32)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0xC0FFEE)


# -- cluster storage backends --------------------------------------------------

@pytest.fixture(params=["journal", "sqlite"])
def storage_backend(request) -> str:
    """Parametrizes a test over every shard storage backend."""
    return request.param


@pytest.fixture()
def make_cluster(storage_backend):
    """A ClusterStore factory bound to the parametrized storage backend.

    ``make_cluster(shards, data_dir, **config_overrides)`` builds the
    store through :class:`repro.cluster.config.ClusterConfig` /
    :func:`repro.cluster.config.open_cluster` (the supported construction
    path); the chosen backend name is available as
    ``make_cluster.storage`` for tests that need to reach the files.
    """
    from repro.cluster.config import ClusterConfig, open_cluster

    def factory(shards=1, data_dir=None, **overrides):
        overrides.setdefault("storage", storage_backend)
        return open_cluster(data_dir, ClusterConfig(shards=shards, **overrides))

    factory.storage = storage_backend
    return factory


@contextlib.contextmanager
def _bch_engine(batch: bool):
    from repro.bch.codec import BCHCodec

    with pytest.MonkeyPatch.context() as patch:
        if not batch:
            decode_many = BCHCodec.decode_many
            sketch_rows = BCHCodec.sketch_rows
            patch.setattr(
                BCHCodec, "decode_many",
                lambda self, sketches, **kw: decode_many(
                    self, sketches, **{**kw, "batch": False}
                ),
            )
            patch.setattr(
                BCHCodec, "sketch_rows",
                lambda self, rows, batch=True: sketch_rows(
                    self, rows, batch=False
                ),
            )
        yield


@pytest.fixture()
def bch_engine():
    """``with bch_engine(batch):`` runs its body on the batched BCH
    engine, or with ``batch=False`` on the codec's scalar per-group
    engine — the reference the batched one must match bit for bit."""
    return _bch_engine


@contextlib.asynccontextmanager
async def _memory_cluster(sets=None, **config):
    from repro.cluster.config import ClusterConfig, open_cluster

    async with open_cluster(None, ClusterConfig(**config)) as store:
        for name, values in (sets or {}).items():
            await store.create(name, values)
        yield store


@pytest.fixture()
def memory_cluster():
    """The store plain ``repro serve`` runs: ``async with
    memory_cluster({name: values}) as store`` yields a started 1-shard
    in-memory ClusterStore holding those sets, closed on exit (keyword
    arguments override ``ClusterConfig`` fields)."""
    return _memory_cluster


# -- deterministic fault injection ---------------------------------------------

class CrashPoint(Exception):
    """Raised by :meth:`FaultPlan.reached` when an armed point fires
    with no explicit action — the simulated crash itself."""


class FaultPlan:
    """A deterministic, seeded schedule of injected faults.

    One plan holds everything a fault drill needs, so every schedule
    replays bit-for-bit from its seed:

    * **named crash points** — ``arm("point", action, at_hit=N)``
      schedules a fault for the *N*-th time the driver passes
      ``reached("point")``; with no action the plan raises
      :class:`CrashPoint` (a simulated crash), otherwise it runs the
      action (e.g. :meth:`sigkill`).  ``arm_random`` picks the hit
      number from the plan's own rng.
    * **torn writes / short reads** — :meth:`torn_write` appends a
      record minus its tail (a crash mid-append), :meth:`short_read`
      truncates a file (the next reader sees a short read); both draw
      cut points from the seeded rng when not pinned.
    * **wire corruption** — :meth:`flip_bit` flips one (seeded) bit.
    * **SIGKILL-at-step** — :meth:`sigkill` wraps a pid (or a callable
      resolving one at fire time) into an action for ``arm``.

    ``fired`` logs every fault the plan actually injected, so a drill
    can assert its schedule happened rather than silently testing the
    happy path.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self._armed: dict[str, tuple[int, object]] = {}
        self._hits: dict[str, int] = {}
        self.fired: list[tuple[str, int]] = []

    # -- crash-point scheduling --
    def arm(self, point: str, action=None, at_hit: int = 1) -> None:
        """Schedule ``action`` for the ``at_hit``-th pass of ``point``
        (default: raise :class:`CrashPoint` there)."""
        if at_hit < 1:
            raise ValueError(f"at_hit must be >= 1, got {at_hit}")
        self._armed[point] = (at_hit, action)

    def arm_random(self, point: str, max_hits: int, action=None) -> int:
        """Arm ``point`` at a seeded-random hit in ``[1, max_hits]``;
        returns the chosen hit for the drill's log."""
        at_hit = int(self.rng.integers(1, max_hits + 1))
        self.arm(point, action, at_hit=at_hit)
        return at_hit

    def reached(self, point: str) -> bool:
        """The driver passes a named point; fires the armed fault when
        the schedule says so.  Returns whether a fault fired."""
        hit = self._hits.get(point, 0) + 1
        self._hits[point] = hit
        armed = self._armed.get(point)
        if armed is None or hit != armed[0]:
            return False
        del self._armed[point]
        self.fired.append((point, hit))
        action = armed[1]
        if action is None:
            raise CrashPoint(point)
        action()
        return True

    @staticmethod
    def sigkill(pid):
        """An ``arm`` action: SIGKILL ``pid`` (a pid, or a callable
        resolving one when the point fires) — the no-cleanup death."""
        def action() -> None:
            os.kill(pid() if callable(pid) else pid, signal.SIGKILL)
        return action

    # -- file surgery --
    def torn_write(self, path, record: bytes, cut: int | None = None) -> int:
        """Append ``record`` minus its last ``cut`` bytes (seeded when
        not pinned): a crash mid-append.  Returns the cut size."""
        path = Path(path)
        if cut is None:
            cut = int(self.rng.integers(1, max(2, len(record))))
        path.write_bytes(path.read_bytes() + record[: len(record) - cut])
        return cut

    def short_read(self, path, keep: int | None = None) -> int:
        """Truncate ``path`` to ``keep`` bytes (seeded when not
        pinned): the next reader sees a short read.  Returns ``keep``."""
        path = Path(path)
        data = path.read_bytes()
        if keep is None:
            keep = int(self.rng.integers(0, max(1, len(data))))
        path.write_bytes(data[:keep])
        return keep

    # -- wire corruption --
    def flip_bit(self, data: bytes, bit: int | None = None) -> bytes:
        """Flip one bit of ``data`` (seeded when not pinned)."""
        arr = bytearray(data)
        if bit is None:
            bit = int(self.rng.integers(0, 8 * len(arr)))
        arr[bit // 8] ^= 1 << (bit % 8)
        return bytes(arr)


@pytest.fixture()
def fault_plan():
    """A :class:`FaultPlan` factory: ``fault_plan(seed)`` builds one
    deterministic fault schedule; call it once per drill/example so
    shrinking and replay stay exact."""
    return FaultPlan


@pytest.fixture()
def corrupt_shard(storage_backend):
    """Damage one shard directory's base state file beyond recovery.

    Returns a callable ``corrupt(shard_dir, epoch=0)`` that makes the
    parametrized backend's next open raise ``StorageCorruptError`` —
    the journal by tearing the atomically-installed snapshot, SQLite by
    scribbling over the database header (and dropping the WAL sidecars
    that could otherwise heal it).
    """
    def corrupt(shard_dir, epoch: int = 0) -> None:
        if storage_backend == "journal":
            from repro.cluster.journal import (
                JournalBackend,
                snapshot_filename,
            )
            from repro.service.store import SetStore

            snapshot = shard_dir / snapshot_filename(epoch)
            if not snapshot.exists():
                # fold the journal into a snapshot first so there is an
                # atomically-installed file to tear
                backend = JournalBackend(shard_dir, epoch=epoch)
                store = SetStore()
                backend.recover(store)
                backend.compact(store.items())
                backend.close()
            snapshot.write_bytes(snapshot.read_bytes()[:-3] or b"\xff" * 64)
        else:
            from repro.cluster.sqlite import db_filename

            db = shard_dir / db_filename(epoch)
            db.write_bytes(b"\xff" * 512)
            for suffix in ("-wal", "-shm"):
                sidecar = db.with_name(db.name + suffix)
                sidecar.unlink(missing_ok=True)

    return corrupt
