"""Named set store: snapshot isolation, apply-diff merging, and a model
check of the element-array representation across storage backends."""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.cluster import sqlite
from repro.cluster.journal import JournalBackend
from repro.cluster.sqlite import SqliteBackend
from repro.cluster.storage import apply_mutation
from repro.service.store import (
    OVERLAY_FRACTION,
    SetStore,
    Snapshot,
    UnknownSetError,
)


@pytest.fixture()
def store() -> SetStore:
    s = SetStore()
    s.create("inv", {1, 2, 3})
    return s


class TestRegistry:
    def test_create_get_names(self, store):
        assert store.names() == ["inv"]
        assert "inv" in store and "other" not in store
        assert store.get("inv") == {1, 2, 3}
        assert store.size("inv") == 3

    def test_get_returns_a_copy(self, store):
        store.get("inv").add(99)
        assert store.get("inv") == {1, 2, 3}

    def test_unknown_set_raises(self, store):
        with pytest.raises(UnknownSetError):
            store.get("nope")
        with pytest.raises(UnknownSetError):
            store.snapshot("nope")


class TestSnapshotSemantics:
    def test_snapshot_is_frozen_against_later_mutation(self, store):
        snap = store.snapshot("inv")
        store.apply_diff("inv", add={10})
        assert snap.values.tolist() == [1, 2, 3]
        assert store.get("inv") == {1, 2, 3, 10}

    def test_version_tracks_mutations(self, store):
        v0 = store.snapshot("inv").version
        store.apply_diff("inv", add={10})
        assert store.version("inv") == v0 + 1
        # a no-op apply bumps reconciles but not the version
        store.apply_diff("inv", add={10})
        assert store.version("inv") == v0 + 1
        assert store.stats()["inv"]["reconciles"] == 2


class TestApplyDiff:
    def test_concurrent_sessions_merge_to_union(self, store):
        # two sessions snapshot the same base, then both apply
        snap_1 = store.snapshot("inv")
        snap_2 = store.snapshot("inv")
        assert snap_1.values.tolist() == snap_2.values.tolist()
        assert store.apply_diff("inv", add={100, 101}) == 2
        assert store.apply_diff("inv", add={101, 102}) == 1  # 101 already in
        assert store.get("inv") == {1, 2, 3, 100, 101, 102}

    def test_remove(self, store):
        assert store.apply_diff("inv", remove={2, 99}) == 1
        assert store.get("inv") == {1, 3}

    def test_stats_shape(self, store):
        store.apply_diff("inv", add={9})
        stats = store.stats()
        assert stats == {"inv": {"size": 4, "version": 1, "reconciles": 1}}


class TestElementArrays:
    def test_snapshot_shares_the_store_array(self, store):
        first = store.snapshot("inv")
        assert store.snapshot("inv").values is first.values   # no copy
        assert not first.values.flags.writeable
        with pytest.raises(ValueError):
            first.values[0] = 7

    def test_add_and_remove_same_element_counts_twice(self, store):
        assert store.apply_diff("inv", add=[50], remove=[50]) == 2
        assert store.apply_diff("inv", add=[1], remove=[1]) == 1
        assert store.get("inv") == {2, 3}
        assert store.version("inv") == 2

    def test_overlay_folds_past_its_cap_without_a_snapshot(self):
        # small diffs wait in the overlay for the next snapshot; past
        # 1/OVERLAY_FRACTION of the set they are folded in right away, so
        # replaying many diffs never builds a huge overlay
        store = SetStore()
        store.create("s", range(1, 801))
        cap = 800 // OVERLAY_FRACTION
        store.apply_diff("s", add=range(1000, 1000 + cap))
        entry = store._sets["s"]
        assert len(entry.added) == cap and len(entry.base) == 800
        store.apply_diff("s", remove=[1])
        assert not entry.added and not entry.removed
        assert len(entry.base) == 800 + cap - 1
        assert store.get("s") == set(range(2, 801)) | set(
            range(1000, 1000 + cap)
        )


_MODEL_ELEMENTS = st.one_of(
    st.integers(0, 300), st.sampled_from([2**63, 2**64 - 1])
)
_NAMES = st.sampled_from(["a", "b", "c"])


def _exploding(*args, **kwargs):
    """A durable write that always fails."""
    raise OSError("disk full")


class StoreModel(RuleBasedStateMachine):
    """``SetStore`` against a dict of Python sets.

    Three stores take every mutation: a plain in-memory store and two
    durable ones written through :func:`apply_mutation`, as a shard
    worker writes them — a journal-backed store (closed and reopened at
    random) and SQLite's lazy store with a 2-set cache.  After every
    step each must equal the model, every array it hands out must be a
    sorted, distinct, read-only element array, and every snapshot taken
    earlier must still hold the contents it was taken with.  The plain
    store is checked through its overlay without folding it, so diffs
    pile up there across steps until a read, a snapshot or the overlay
    cap folds them.
    """

    def __init__(self) -> None:
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="store-model-"))
        self.model: dict[str, tuple[set[int], int]] = {}
        self.snapshots: list[tuple[Snapshot, list[int], int]] = []
        self.loop = asyncio.new_event_loop()
        self.cache_sets = sqlite.DEFAULT_CACHE_SETS
        sqlite.DEFAULT_CACHE_SETS = 2     # 3 names: sets get evicted
        self.plain = SetStore()
        self.journal = JournalBackend(self.tmp / "journal")
        self.journal_store = self.journal.open_store()
        self.sqlite = SqliteBackend(self.tmp / "sqlite")
        self.sqlite_store = self.sqlite.open_store()

    def teardown(self) -> None:
        sqlite.DEFAULT_CACHE_SETS = self.cache_sets
        self.journal.close()
        self.sqlite.close()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    @property
    def durable(self) -> list:
        """``(store, backend)`` for each store a backend persists."""
        return [
            (self.journal_store, self.journal),
            (self.sqlite_store, self.sqlite),
        ]

    def _mutate(self, store, backend, op, args):
        return self.loop.run_until_complete(
            apply_mutation(store, backend, op, args)
        )

    # -- rules ---------------------------------------------------------------
    @rule(name=_NAMES, version=st.integers(0, 3),
          values=st.lists(_MODEL_ELEMENTS, min_size=80, max_size=160))
    def create(self, name, values, version):
        self.plain.create(name, values, version=version)
        for store, backend in self.durable:
            self._mutate(store, backend, "create", (name, values, version))
        self.model[name] = (set(values), version)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), diffs=st.lists(
        st.tuples(st.lists(_MODEL_ELEMENTS, max_size=4),
                  st.lists(_MODEL_ELEMENTS, max_size=4)),
        min_size=1, max_size=4,
    ))
    def apply_diffs(self, data, diffs):
        # back-to-back diffs on one set, no read in between
        name = data.draw(st.sampled_from(sorted(self.model)))
        for add, remove in diffs:
            self._apply(name, add, remove)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), element=_MODEL_ELEMENTS)
    def add_and_remove_same_element(self, data, element):
        name = data.draw(st.sampled_from(sorted(self.model)))
        present = element in self.model[name][0]
        assert self._apply(name, [element], [element]) == (1 if present else 2)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def snapshot(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        snap = self.plain.snapshot(name)
        self.snapshots.append(
            (snap, sorted(self.model[name][0]), self.model[name][1])
        )

    @precondition(lambda self: self.model)
    @rule(data=st.data(), add=st.lists(_MODEL_ELEMENTS, min_size=1,
                                       max_size=4))
    def failed_durable_write(self, data, add):
        # the invariants then find every store still equal to the model
        name = data.draw(st.sampled_from(sorted(self.model)))
        for store, backend in self.durable:
            backend.record_diff = backend.record_create = _exploding
            try:
                with pytest.raises(OSError):
                    self._mutate(store, backend, "apply",
                                 (name, add, add[:1]))
                with pytest.raises(OSError):
                    self._mutate(store, backend, "create", (name, add, 0))
            finally:
                del backend.record_diff, backend.record_create

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def read_plain(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self._check_reads(self.plain, name)

    @rule()
    def reopen_journal(self):
        self.journal.close()
        self.journal = JournalBackend(self.tmp / "journal")
        self.journal_store = self.journal.open_store()

    def _apply(self, name, add, remove) -> int:
        values, version = self.model[name]
        changed = len(set(add) - values)
        values = values | set(add)
        changed += len(set(remove) & values)
        values = values - set(remove)
        self.model[name] = (values, version + (1 if changed else 0))
        add = np.array(add, dtype=np.uint64)
        assert self.plain.apply_diff(name, add=add, remove=remove) == changed
        for store, backend in self.durable:
            assert self._mutate(
                store, backend, "apply", (name, add, remove)
            ) == changed
        return changed

    # -- invariants ----------------------------------------------------------
    @invariant()
    def plain_store_overlay_equals_the_model(self):
        assert self.plain.names() == sorted(self.model)
        for name, (values, version) in self.model.items():
            entry = self.plain._sets[name]
            _assert_element_array(entry.base)
            base = set(entry.base.tolist())
            assert entry.removed <= base and not entry.added & base
            assert (base - entry.removed) | entry.added == values
            assert self.plain.size(name) == len(values)
            assert self.plain.version(name) == version

    @invariant()
    def durable_stores_equal_the_model(self):
        for store in (self.journal_store, self.sqlite_store):
            assert store.names() == sorted(self.model)
            for name in self.model:
                self._check_reads(store, name)
            for name, arr, version in store.items():
                _assert_element_array(arr)
                assert (set(arr.tolist()), version) == self.model[name]

    def _check_reads(self, store: SetStore, name: str) -> None:
        values, version = self.model[name]
        assert store.size(name) == len(values)
        assert store.version(name) == version
        assert store.get(name) == values
        arr = store.snapshot(name).values
        _assert_element_array(arr)
        assert arr.tolist() == sorted(values)

    @invariant()
    def earlier_snapshots_are_frozen(self):
        for snap, contents, version in self.snapshots:
            _assert_element_array(snap.values)
            assert snap.values.tolist() == contents
            assert snap.version == version
            assert len(snap) == len(contents)


def _assert_element_array(arr) -> None:
    assert arr.dtype == np.uint64 and arr.ndim == 1
    assert not arr.flags.writeable
    assert np.all(arr[1:] > arr[:-1])      # sorted and distinct


TestStoreModel = StoreModel.TestCase
TestStoreModel.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
