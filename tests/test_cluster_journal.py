"""Journal records, torn-tail tolerance, snapshot compaction, recovery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.journal import (
    JournalBackend,
    JournalCorruptError,
    encode_create,
    encode_diff,
    read_records,
)
from repro.service.store import SetStore


class TestRecordCodec:
    def test_create_round_trip(self):
        blob = encode_create("inv/eu", [3, 1, 2**32 - 1], version=9)
        [record], offset, error = read_records(blob)
        assert error == "" and offset == len(blob)
        assert record.name == "inv/eu"
        assert record.version == 9
        assert sorted(int(v) for v in record.add) == [1, 3, 2**32 - 1]

    def test_diff_round_trip(self):
        blob = encode_diff("s", add=[10, 20], remove=[30])
        [record], _, error = read_records(blob)
        assert error == ""
        assert sorted(int(v) for v in record.add) == [10, 20]
        assert [int(v) for v in record.remove] == [30]

    def test_many_records_back_to_back(self):
        blob = encode_create("a", [1]) + encode_diff("a", add=[2]) + \
            encode_diff("b", remove=[3])
        records, offset, error = read_records(blob)
        assert error == "" and offset == len(blob)
        assert [r.name for r in records] == ["a", "a", "b"]

    def test_truncated_tail_stops_at_last_complete_record(self):
        good = encode_diff("s", add=[1, 2, 3])
        torn = encode_diff("s", add=[4, 5, 6])
        for cut in (1, 5, len(torn) - 1):
            records, offset, error = read_records(good + torn[:cut])
            assert len(records) == 1
            assert offset == len(good)
            assert error != ""

    def test_corrupt_byte_fails_checksum(self):
        blob = bytearray(encode_diff("s", add=[1, 2, 3]))
        blob[-1] ^= 0xFF
        records, offset, error = read_records(bytes(blob))
        assert records == [] and offset == 0
        assert "checksum" in error

    def test_implausible_length_rejected(self):
        blob = b"\xff\xff\xff\xff" + b"\x00" * 8
        records, offset, error = read_records(blob)
        assert records == [] and "implausible" in error


class TestShardStorage:
    def _roundtrip(self, tmp_path, mutate):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        mutate(store, storage)
        storage.close()
        recovered = SetStore()
        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(recovered)
        storage2.close()
        return store, recovered

    def test_journal_only_recovery(self, tmp_path):
        def mutate(store, storage):
            store.create("inv", {1, 2, 3})
            storage.append(encode_create("inv", {1, 2, 3}))
            store.apply_diff("inv", add={10, 11})
            storage.append(encode_diff("inv", add=[10, 11]))

        store, recovered = self._roundtrip(tmp_path, mutate)
        assert recovered.get("inv") == store.get("inv")
        assert recovered.version("inv") == store.version("inv")

    def test_versions_rederived_by_replay(self, tmp_path):
        def mutate(store, storage):
            store.create("s", {1})
            storage.append(encode_create("s", {1}))
            for i in range(5):
                store.apply_diff("s", add={100 + i})
                storage.append(encode_diff("s", add=[100 + i]))
            # a no-op apply must not bump the version on replay either
            store.apply_diff("s", add={100})
            storage.append(encode_diff("s", add=[100]))

        store, recovered = self._roundtrip(tmp_path, mutate)
        assert store.version("s") == 5
        assert recovered.version("s") == 5

    def test_torn_tail_truncated_on_recovery(self, tmp_path):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        storage.append(encode_create("s", {1, 2}))
        storage.append(encode_diff("s", add=[3]))
        storage.close()
        # simulate a crash mid-append: chop the last record in half
        journal = tmp_path / "shard" / "journal.log"
        data = journal.read_bytes()
        tail = encode_diff("s", add=[4, 5])
        journal.write_bytes(data + tail[: len(tail) // 2])

        recovered = SetStore()
        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(recovered)
        assert recovered.get("s") == {1, 2, 3}   # last complete record wins
        assert storage2.tail_error != ""
        # the torn bytes are gone: a post-recovery append then a second
        # recovery must see a clean journal
        storage2.append(encode_diff("s", add=[9]))
        storage2.close()
        final = SetStore()
        storage3 = JournalBackend(tmp_path / "shard")
        storage3.recover(final)
        storage3.close()
        assert final.get("s") == {1, 2, 3, 9}
        assert storage3.tail_error == ""

    def test_compaction_preserves_state_and_resets_journal(self, tmp_path):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        store.create("a", set(range(1, 100)))
        storage.append(encode_create("a", set(range(1, 100))))
        store.apply_diff("a", add={1000})
        storage.append(encode_diff("a", add=[1000]))
        storage.compact(store.items())
        assert storage.journal_bytes == 0
        assert storage.snapshot_bytes > 0
        storage.append(encode_diff("a", add=[2000]))
        store.apply_diff("a", add={2000})
        storage.close()

        recovered = SetStore()
        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(recovered)
        storage2.close()
        assert recovered.get("a") == store.get("a")
        assert recovered.version("a") == store.version("a")
        assert storage2.recovered_sets == 1       # from the snapshot
        assert storage2.recovered_records == 1    # the post-compact diff

    def test_should_compact_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.cluster.storage.COMPACT_MIN_BYTES", 64)
        monkeypatch.setattr("repro.cluster.storage.COMPACT_FACTOR", 2)
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        assert not storage.should_compact()
        storage.append(encode_create("s", range(1, 50)))
        assert storage.should_compact()
        store.create("s", range(1, 50))
        storage.compact(store.items())
        assert not storage.should_compact()

    def test_snapshot_with_missing_journal_recovers_snapshot_state(
        self, tmp_path
    ):
        """An operator may delete a journal (e.g. to drop a bad tail);
        recovery must fall back to the snapshot, not raise or start
        empty."""
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        store.create("inv", {1, 2, 3})
        storage.append(encode_create("inv", {1, 2, 3}, version=4))
        storage.compact(store.items())
        storage.close()
        (tmp_path / "shard" / "journal.log").unlink()

        recovered = SetStore()
        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(recovered)
        assert recovered.get("inv") == {1, 2, 3}
        assert storage2.recovered_sets == 1
        assert storage2.recovered_records == 0
        # and the shard is immediately writable again
        storage2.append(encode_diff("inv", add=[9]))
        storage2.close()
        final = SetStore()
        storage3 = JournalBackend(tmp_path / "shard")
        storage3.recover(final)
        storage3.close()
        assert final.get("inv") == {1, 2, 3, 9}

    def test_snapshot_with_zero_length_journal_recovers(self, tmp_path):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        store.create("s", {5, 6})
        storage.append(encode_create("s", {5, 6}))
        storage.compact(store.items())
        storage.close()
        (tmp_path / "shard" / "journal.log").write_bytes(b"")

        recovered = SetStore()
        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(recovered)
        storage2.close()
        assert recovered.get("s") == {5, 6}
        assert storage2.tail_error == ""
        assert storage2.truncated_bytes == 0

    def test_truncated_bytes_counted_in_stats(self, tmp_path):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        storage.append(encode_create("s", {1}))
        storage.close()
        torn = encode_diff("s", add=[2, 3])
        journal = tmp_path / "shard" / "journal.log"
        journal.write_bytes(journal.read_bytes() + torn[:7])

        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(SetStore())
        storage2.close()
        assert storage2.stats()["truncated_bytes"] == 7
        assert storage2.stats()["tail_error"] != ""

    def test_epoch_qualified_filenames(self, tmp_path):
        from repro.cluster.journal import journal_filename, snapshot_filename

        assert snapshot_filename(0) == "snapshot.bin"
        assert journal_filename(0) == "journal.log"
        storage = JournalBackend(tmp_path / "shard", epoch=3)
        store = SetStore()
        storage.recover(store)
        store.create("s", {1})
        storage.append(encode_create("s", {1}))
        storage.compact(store.items())
        storage.close()
        assert (tmp_path / "shard" / "snapshot-e3.bin").exists()
        assert (tmp_path / "shard" / "journal-e3.log").exists()
        assert not (tmp_path / "shard" / "snapshot.bin").exists()
        # epochs are isolated: epoch 0 sees none of epoch 3's state
        blank = SetStore()
        other = JournalBackend(tmp_path / "shard", epoch=0)
        other.recover(blank)
        other.close()
        assert "s" not in blank

    def test_read_only_replay_leaves_a_torn_tail(self, tmp_path):
        """A ``create=False`` backend — the rebalance's reader — replays
        up to a torn tail and iterates the same sets without touching
        the files."""
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        storage.append(encode_create("s", {1, 2}))
        storage.close()
        torn = encode_diff("s", add=[3])
        journal = tmp_path / "shard" / "journal.log"
        damaged = journal.read_bytes() + torn[: len(torn) - 2]
        journal.write_bytes(damaged)

        reader = JournalBackend(tmp_path / "shard", create=False)
        replayed = SetStore()
        reader.replay(replayed)
        assert replayed.get("s") == {1, 2}
        assert reader.stats()["truncated_bytes"] == len(torn) - 2
        assert [
            (name, set(values.tolist()))
            for name, values, _ in reader.iter_sets()
        ] == [("s", {1, 2})]
        # the torn tail was *not* truncated: planning passes leave the
        # current layout byte-identical
        assert journal.read_bytes() == damaged

    def test_corrupt_snapshot_is_fatal(self, tmp_path):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        store.create("s", {1})
        storage.compact(store.items())
        storage.close()
        snapshot = tmp_path / "shard" / "snapshot.bin"
        snapshot.write_bytes(snapshot.read_bytes()[:-3])   # torn snapshot
        with pytest.raises(JournalCorruptError):
            JournalBackend(tmp_path / "shard").recover(SetStore())

    def test_large_element_values_survive(self, tmp_path):
        values = np.array([1, 2**31, 2**32 - 1], dtype=np.uint64)

        def mutate(store, storage):
            store.create("wide", values)
            storage.append(encode_create("wide", values))

        store, recovered = self._roundtrip(tmp_path, mutate)
        assert recovered.get("wide") == {1, 2**31, 2**32 - 1}


class TestChecksumStrength:
    def test_swapped_payload_bytes_are_detected(self):
        # the record checksum is position-tagged: reordering payload
        # bytes (which a plain additive byte sum would miss) must fail
        blob = bytearray(encode_diff("s", add=[0x0102030405060708]))
        header = 8
        i, j = header + 10, header + 12
        assert blob[i] != blob[j]
        blob[i], blob[j] = blob[j], blob[i]
        records, offset, error = read_records(bytes(blob))
        assert records == [] and "checksum" in error

    def test_diff_without_create_is_skipped_not_fatal(self, tmp_path):
        storage = JournalBackend(tmp_path / "shard")
        store = SetStore()
        storage.recover(store)
        storage.append(encode_create("a", {1}))
        storage.append(encode_diff("ghost", add=[9]))   # file surgery
        storage.append(encode_diff("a", add=[2]))
        storage.close()
        recovered = SetStore()
        storage2 = JournalBackend(tmp_path / "shard")
        storage2.recover(recovered)
        storage2.close()
        assert recovered.get("a") == {1, 2}
        assert "ghost" not in recovered
        assert storage2.skipped_records == 1
