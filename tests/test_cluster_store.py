"""Tests for the per-shard durable store (`repro.cluster.store`).

Covers the two promises everything else stands on: an acknowledged
write survives any crash (log replay, torn-tail truncation), and a
damaged byte is never served silently (CRC verification, quarantine,
typed errors chained onto the checksum taxonomy) -- plus the
concurrent-writer discipline mirrored from the checkpoint writer's
racing suite.  Damage is aimed at a key's bytes through
``payload_span`` + ``FaultInjector.damage_span``; the randomised half
of this file is ``test_cluster_store_model.py``.
"""

import os
import struct
import threading

import pytest

from repro.resilience.errors import ChecksumError
from repro.resilience.faults import FaultInjector
from repro.resilience.framing import crc32
import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.cluster.store import (
    COMPACT_DEAD_RATIO,
    COMPACT_FLOOR_BYTES,
    COMPACT_STAGES,
    PUT_STAGES,
    NotFound,
    Quarantined,
    ShardStore,
    StoreClosed,
    StoreError,
    scan_store,
)


@pytest.fixture
def store(tmp_path):
    store = ShardStore(str(tmp_path / "s0"), shard_id="s0")
    yield store
    store.close()


def damage(store, key, mode, seed=0):
    """One seeded at-rest fault inside ``key``'s payload bytes."""
    offset, length = store.payload_span(key)
    injector = FaultInjector(seed=seed)
    assert injector.damage_span(store.journal_path, offset, length, mode)


def flip_byte(path, offset):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]))


class TestPutGet:
    def test_round_trip_bit_exact(self, store):
        payload = os.urandom(4096)
        entry = store.put("key", payload, 1)
        assert entry.length == len(payload)
        assert store.get("key") == payload

    def test_missing_key_is_typed_not_found(self, store):
        with pytest.raises(NotFound):
            store.get("ghost")
        assert isinstance(NotFound("x"), StoreError)

    def test_higher_version_wins_lower_is_ignored(self, store):
        store.put("k", b"new", 5)
        store.put("k", b"old", 3)  # stale write, e.g. a repair loser
        assert store.get("k") == b"new"

    def test_delete_tombstone_survives_recovery(self, store):
        store.put("k", b"data", 1)
        store.delete("k", 2)
        with pytest.raises(NotFound):
            store.get("k")
        store.crash()
        store.recover()
        with pytest.raises(NotFound):
            store.get("k")

    def test_closed_store_refuses_typed(self, store):
        store.crash()
        with pytest.raises(StoreClosed):
            store.put("k", b"x", 1)
        with pytest.raises(StoreClosed):
            store.get("k")

    def test_put_stage_order(self, store):
        stages = []
        store.put("k", b"x" * 100, 1, gate=stages.append)
        assert tuple(stages) == PUT_STAGES


class TestCrashRecovery:
    """A kill at every write stage; the ack point divides the outcomes."""

    class _Die(Exception):
        pass

    def _crash_at(self, store, stage, key, payload, version):
        def gate(reached):
            if reached == stage:
                raise self._Die()

        with pytest.raises(self._Die):
            store.put(key, payload, version, gate=gate)
        store.crash()
        return store.recover()

    @pytest.mark.parametrize(
        "stage", ["put_begin", "journal_partial", "payload_partial"]
    )
    def test_crash_before_ack_loses_only_that_write(self, store, stage):
        store.put("durable", b"must-survive", 1)
        report = self._crash_at(store, stage, "doomed", b"lost", 2)
        assert store.get("durable") == b"must-survive"
        with pytest.raises(NotFound):
            store.get("doomed")
        assert not report.corrupt_records
        # A kill inside the append -- in the header or in the payload --
        # leaves a genuinely torn record for recovery to truncate; one
        # before it leaves no trace at all.
        assert report.torn_tail == (stage != "put_begin")
        assert (report.truncated_bytes > 0) == (stage != "put_begin")

    def test_crash_at_ack_point_keeps_the_write(self, store):
        # journal_synced fires *after* the fsync: the client never saw
        # the ack, but the bytes are durable -- recovery must keep them.
        report = self._crash_at(store, "journal_synced", "k", b"kept", 1)
        assert report.keys == 1
        assert store.get("k") == b"kept"

    def test_torn_tail_truncation_allows_clean_appends(self, store):
        store.put("a", b"one", 1)
        self._crash_at(store, "journal_partial", "b", b"two", 2)
        store.put("c", b"three", 3)
        store.crash()
        report = store.recover()
        assert not report.torn_tail
        assert store.get("a") == b"one"
        assert store.get("c") == b"three"

    def test_corrupt_journal_record_stops_replay_and_truncates(self, store):
        store.put("early", b"kept", 1)
        offset, _ = store.payload_span("early")
        store.close()
        # Flip a byte inside the record's *header* (the last one before
        # the payload) so its framing CRC fails while the file length
        # stays plausible.
        flip_byte(store.journal_path, offset - 3)
        report = store.recover()
        assert report.corrupt_records == 1
        assert report.keys == 0  # the damaged record was 'early''s

    def test_unrecognised_journal_header_starts_fresh(self, tmp_path):
        directory = str(tmp_path / "bad")
        os.makedirs(directory)
        with open(os.path.join(directory, "journal.log"), "wb") as handle:
            handle.write(b"garbage-not-a-journal")
        store = ShardStore(directory)
        assert store.last_recovery.corrupt_records == 1
        store.put("k", b"fine", 1)
        assert store.get("k") == b"fine"
        store.close()


class TestQuarantine:
    def test_bit_flip_raises_typed_chained_onto_checksum_error(self, store):
        store.put("k", b"payload" * 64, 1)
        damage(store, "k", "bit_flip", seed=1)
        size = os.path.getsize(store.journal_path)
        with pytest.raises(Quarantined) as excinfo:
            store.get("k")
        assert isinstance(excinfo.value.__cause__, ChecksumError)
        # The damaged bytes stay where they are (the forensic copy);
        # the log only grew by the small QUARANTINE record.
        assert 0 < os.path.getsize(store.journal_path) - size < 64
        assert store.payload_span("k")[1] == len(b"payload" * 64)
        # Subsequent reads stay typed without re-probing the disk.
        with pytest.raises(Quarantined):
            store.get("k")
        assert store.counters["payloads_quarantined"] == 1

    def test_quarantined_key_absent_from_digest(self, store):
        store.put("k", b"data", 1)
        store.put("clean", b"fine", 2)
        damage(store, "k", "truncate", seed=2)
        with pytest.raises(Quarantined):
            store.get("k")
        assert set(store.digest()) == {"clean"}

    def test_rewrite_after_quarantine_restores_service(self, store):
        store.put("k", b"original", 1)
        damage(store, "k", "unlink", seed=3)
        with pytest.raises(Quarantined):
            store.get("k")
        store.put("k", b"original", 2)  # e.g. an anti-entropy repair copy
        assert store.get("k") == b"original"


class TestScrub:
    def test_scrub_finds_latent_damage_before_a_reader(self, store):
        for i in range(6):
            store.put(f"k{i}", os.urandom(512), i + 1)
        damage(store, "k3", "bit_flip", seed=4)
        outcome = store.scrub(None)
        assert outcome["corrupt"] == ["k3"]
        assert store.counters["scrub_corrupt"] == 1
        with pytest.raises(Quarantined):
            store.get("k3")
        assert store.get("k1") is not None

    def test_budgeted_scrub_round_robins_all_keys(self, store):
        for i in range(5):
            store.put(f"k{i}", bytes([i]) * 64, i + 1)
        seen = 0
        for _ in range(5):
            seen += store.scrub(1)["checked"]
        assert seen == 5
        assert store.counters["scrub_checked"] == 5


class TestScan:
    def test_clean_store_scans_clean(self, store):
        store.put("k", b"data", 1)
        scan = scan_store(store.directory, deep=True)
        assert scan["issues"] == []
        assert scan["keys"] == 1

    def test_scan_classifies_torn_vs_corrupt(self, store):
        store.put("k", b"data", 1)
        store.close()
        with open(store.journal_path, "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0))  # torn header
        scan = scan_store(store.directory)
        assert scan["torn_tail"]
        assert [c for c, _, _ in scan["issues"]] == ["torn"]

    def test_scan_deep_catches_payload_rot(self, store):
        store.put("k", b"data" * 100, 1)
        store.put("tail", b"last", 2)
        offset, _ = store.payload_span("k")
        store.close()
        flip_byte(store.journal_path, offset)
        fast = scan_store(store.directory, deep=False)
        assert fast["issues"] == []  # mid-log payloads: fast scan is blind
        deep = scan_store(store.directory, deep=True)
        assert [(c, where) for c, where, _ in deep["issues"]] == [
            ("corrupt", "key 'k'")
        ]
        assert deep["payloads_checked"] == 2 and deep["keys"] == 2

    def test_scan_does_not_mutate(self, store):
        store.put("k", b"data", 1)
        store.close()
        with open(store.journal_path, "ab") as handle:
            handle.write(b"\x01\x02")
        before = os.path.getsize(store.journal_path)
        scan_store(store.directory)
        assert os.path.getsize(store.journal_path) == before


class TestLogLayout:
    """``journal.log`` is the store: headers and payloads in one file."""

    def test_tear_at_every_byte_offset_of_a_record(self, tmp_path):
        source = ShardStore(str(tmp_path / "src"), fsync=False)
        source.put("base", b"kept" * 8, 1)
        start = os.path.getsize(source.journal_path)
        payload = os.urandom(200)
        source.put("torn", payload, 2)
        source.close()
        with open(source.journal_path, "rb") as handle:
            blob = handle.read()
        # Header bytes, payload bytes, and the whole record.
        for cut in range(start, len(blob) + 1):
            directory = tmp_path / f"cut{cut}"
            directory.mkdir()
            (directory / "journal.log").write_bytes(blob[:cut])
            store = ShardStore(str(directory), fsync=False)
            assert store.get("base") == b"kept" * 8
            if cut == len(blob):
                assert store.get("torn") == payload
                assert not store.last_recovery.torn_tail
            else:
                # The pre-put state, nothing in between.
                with pytest.raises(NotFound):
                    store.get("torn")
                assert store.last_recovery.torn_tail == (cut > start)
                assert os.path.getsize(store.journal_path) == start
            # The next append lands on a record boundary.
            store.put("next", b"n" * 9, 3)
            store.close()
            scan = scan_store(str(directory), deep=True)
            assert scan["issues"] == [] and scan["keys"] == 2 + (
                cut == len(blob)
            )

    @pytest.mark.parametrize("stage", ["payload_partial", "journal_synced"])
    def test_reads_do_not_wait_on_a_parked_put(self, store, stage):
        store.put("other", b"readable", 1)
        parked, release = threading.Event(), threading.Event()

        def gate(reached):
            if reached == stage:
                parked.set()
                assert release.wait(timeout=30.0)

        writer = threading.Thread(
            target=store.put, args=("slow", b"x" * 4096, 2, gate)
        )
        writer.start()
        try:
            assert parked.wait(timeout=30.0)
            answers = []
            reader = threading.Thread(target=lambda: answers.extend([
                store.get("other"), store.contains("slow"),
                store.max_version(), sorted(store.digest()),
                store.stats()["keys"],
            ]))
            reader.start()
            reader.join(timeout=10.0)
            assert not reader.is_alive(), "a read queued behind the append"
            # Appended but not acked: invisible, as an unjournaled
            # segment used to be.
            assert answers == [b"readable", False, 1, ["other"], 1]
        finally:
            release.set()
            writer.join(timeout=30.0)
        assert not writer.is_alive()
        assert store.get("slow") == b"x" * 4096

    def test_payload_rot_mid_log_costs_that_key_only(self, store):
        for index in range(5):
            store.put(f"k{index}", bytes([index]) * 300, index + 1)
        damage(store, "k1", "bit_flip", seed=9)
        store.crash()
        report = store.recover()
        # A bad payload under a good header is skipped, not a stop sign.
        assert report.records_replayed == 5 and report.quarantined == 1
        assert not report.torn_tail and not report.corrupt_records
        assert not report.truncated_bytes
        with pytest.raises(Quarantined):
            store.get("k1")
        for index in (0, 2, 3, 4):
            assert store.get(f"k{index}") == bytes([index]) * 300
        assert store.max_version() == 5

    def test_v1_journal_raises_typed_and_is_left_untouched(self, tmp_path):
        directory = tmp_path / "old"
        directory.mkdir()
        v1 = b"LVJ1\x01" + b"a v1 record stream the v2 walk cannot parse"
        (directory / "journal.log").write_bytes(v1)
        with pytest.raises(StoreError, match="version 1") as excinfo:
            ShardStore(str(directory))
        assert type(excinfo.value) is StoreError
        assert (directory / "journal.log").read_bytes() == v1
        scan = scan_store(str(directory))
        assert [c for c, _, _ in scan["issues"]] == ["corrupt"]
        assert (directory / "journal.log").read_bytes() == v1

    def test_quarantine_is_a_state_that_survives_restart(self, store):
        store.put("k", b"payload" * 40, 1)
        store.put("clean", b"fine", 2)
        offset, length = store.payload_span("k")
        with open(store.journal_path, "rb") as handle:
            handle.seek(offset)
            original = handle.read(length)
        damage(store, "k", "bit_flip", seed=5)
        with pytest.raises(Quarantined):
            store.get("k")
        # Heal the bytes behind the store's back: only the QUARANTINE
        # record can keep the key out of digest() across the restart.
        with open(store.journal_path, "r+b") as handle:
            handle.seek(offset)
            handle.write(original)
        store.crash()
        report = store.recover()
        assert report.quarantined == 1
        assert set(store.digest()) == {"clean"}
        with pytest.raises(Quarantined):
            store.get("k")
        # Verify's fast scan reads the mark too.
        store.close()
        fast = scan_store(store.directory)
        assert [where for _, where, _ in fast["issues"]] == ["key 'k'"]
        # A repair copy at the same version supersedes the mark.
        store.recover()
        store.put("k", b"payload" * 40, 1)
        store.crash()
        store.recover()
        assert store.get("k") == b"payload" * 40

    def test_offsets_come_from_the_file_not_a_counter(self, store):
        store.put("a", b"A" * 500, 1)
        store.put("b", b"B" * 500, 2)
        # The file shrinks behind the live store's back (the soak's
        # truncate fault): later puts must still be indexed where their
        # bytes actually landed.
        offset, _ = store.payload_span("b")
        FaultInjector().file_truncate(store.journal_path, at=offset + 100)
        store.put("c", b"C" * 500, 3)
        assert store.get("c") == b"C" * 500
        assert store.get("a") == b"A" * 500
        # The stale entry fails its length/CRC check: typed, not bytes.
        with pytest.raises(Quarantined):
            store.get("b")

    def test_one_fsync_per_put_and_a_directory_fsync_per_journal(
        self, tmp_path, monkeypatch
    ):
        import stat

        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store = ShardStore(str(tmp_path / "fresh"))
        # Creating the journal: its bytes, then the dirent naming it.
        assert synced == [False, True]
        del synced[:]
        store.put("k", b"payload", 1)
        store.delete("k", 2)
        assert synced == [False, False]
        del synced[:]
        store.crash()
        store.recover()
        assert synced == []  # nothing created, nothing truncated
        # A compaction: the copy's bytes, then the dirent of its rename.
        store.compact()
        assert synced == [False, True]
        store.close()

    def test_recover_and_scan_stream_the_log(self, tmp_path):
        import tracemalloc

        store = ShardStore(str(tmp_path / "big"), fsync=False)
        for index in range(48):
            store.put(f"k{index}", os.urandom(1 << 16), index + 1)
        store.crash()
        size = os.path.getsize(store.journal_path)
        assert size > 3 << 20
        tracemalloc.start()
        try:
            report = store.recover()
            scan = scan_store(store.directory, deep=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            store.close()
        assert report.keys == 48 and scan["payloads_checked"] == 48
        # One record at a time, never the whole journal.
        assert peak < size // 8

    def test_an_append_that_dies_part_way_fail_stops_the_store(self, store):
        store.put("acked", b"safe", 1)

        def gate(stage):
            if stage == "payload_partial":
                raise OSError("disk went away")

        with pytest.raises(OSError):
            store.put("doomed", b"lost" * 50, 2, gate=gate)
        # Appending behind the torn record would bury later acks with
        # it: the store is down until recovery truncates the tail.
        with pytest.raises(StoreClosed):
            store.put("later", b"never buried", 3)
        report = store.recover()
        assert report.torn_tail
        store.put("later", b"never buried", 3)
        store.crash()
        store.recover()
        assert store.get("acked") == b"safe"
        assert store.get("later") == b"never buried"


def record_bytes(key, payload):
    """A PUT record's journal bytes: framed header (47 + key) + payload."""
    return 47 + len(key.encode()) + len(payload)


def bound(live):
    """What ``journal.log`` may hold: file header, live, dead <= ratio x
    live + floor."""
    return 5 + (1 + COMPACT_DEAD_RATIO) * live + COMPACT_FLOOR_BYTES


class TestCompaction:
    """The journal reclaims what no index entry points at (ROADMAP 7a)."""

    def test_overwrites_keep_the_journal_and_its_replay_bounded(self, tmp_path):
        store = ShardStore(str(tmp_path / "hot"), fsync=False)
        keys = [f"k{index}" for index in range(4)]
        live = {}
        replays = []
        for version in range(1, 3001):
            key = keys[version % len(keys)]
            payload = os.urandom(700 + version % 600)
            store.put(key, payload, version)
            live[key] = payload
            total = sum(record_bytes(k, v) for k, v in live.items())
            assert os.path.getsize(store.journal_path) <= bound(total)
            if version % 1000 == 0:
                store.crash()
                report = store.recover()
                # Deep replay reads every byte of the log -- and the
                # log is bounded by the live bytes, not by history.
                assert report.bytes_read == os.path.getsize(store.journal_path)
                assert report.bytes_read <= bound(total)
                replays.append(report.records_replayed)
        # 3000 puts of ~1 KB would be ~3 MB; each replay walks only the
        # last compaction's survivors and what came after.
        assert store.counters["compactions"] >= 8
        assert max(replays) < 400
        for key, payload in live.items():
            assert store.get(key) == payload
        store.close()

    def test_a_put_that_makes_the_journal_due_compacts_through_its_gate(
        self, tmp_path
    ):
        store = ShardStore(str(tmp_path / "due"), fsync=False)
        payload = b"v" * 4096
        for version in range(1, 1000):
            stages = []
            store.put("k", payload, version, gate=stages.append)
            if store.counters["compactions"]:
                break
        assert tuple(stages) == PUT_STAGES + COMPACT_STAGES
        # One live record: the journal is that record and nothing else.
        assert os.path.getsize(store.journal_path) == 5 + record_bytes(
            "k", payload
        )
        # Dead bytes had reached live bytes plus the floor, no earlier.
        dead = (version - 1) * record_bytes("k", payload)
        assert dead >= COMPACT_DEAD_RATIO * record_bytes("k", payload) + (
            COMPACT_FLOOR_BYTES
        ) > dead - record_bytes("k", payload)
        store.close()

    def test_everything_owed_survives_compaction_and_a_restart(self, store):
        store.put("kept", b"K" * 300, 1)
        store.put("overwritten", b"old" * 100, 2)
        store.put("overwritten", b"new" * 100, 3)
        store.put("stale-loser", b"winner", 5)
        store.put("stale-loser", b"loser", 4)
        store.put("bad", b"B" * 300, 6)
        store.put("gone", b"G" * 300, 7)
        store.delete("gone", 9)  # the highest version is a tombstone's
        damage(store, "bad", "bit_flip", seed=3)
        with pytest.raises(Quarantined):
            store.get("bad")
        before = store.digest()
        outcome = store.compact()
        assert outcome["bytes_after"] < outcome["bytes_before"]
        assert outcome["quarantined"] == []  # already marked
        for restarted in (False, True):
            if restarted:
                store.crash()
                report = store.recover()
                assert not report.truncated_bytes and report.quarantined == 1
            assert store.digest() == before
            assert store.max_version() == 9
            assert store.get("kept") == b"K" * 300
            assert store.get("overwritten") == b"new" * 100
            assert store.get("stale-loser") == b"winner"
            with pytest.raises(NotFound):
                store.get("gone")
            with pytest.raises(Quarantined):
                store.get("bad")
        # A later put may reuse the deleted key below the clock's top.
        store.put("gone", b"back", 8)
        assert store.get("gone") == b"back"
        issues = scan_store(store.directory, deep=True)["issues"]
        assert [issue[:2] for issue in issues] == [("corrupt", "key 'bad'")]

    def test_compaction_never_gives_rotten_bytes_a_fresh_crc(self, store):
        store.put("rot", b"R" * 500, 1)
        store.put("fine", b"F" * 500, 2)
        damage(store, "rot", "bit_flip", seed=11)
        offset, length = store.payload_span("rot")
        with open(store.journal_path, "rb") as handle:
            handle.seek(offset)
            rotten = handle.read(length)
        with telemetry.session() as registry:
            outcome = store.compact()
        # Found by the copy's CRC check, quarantined as a scrub would.
        assert outcome["quarantined"] == ["rot"]
        assert store.counters["payloads_quarantined"] == 1
        assert store.counters["scrub_corrupt"] == 1
        assert registry.counters["store.payloads_quarantined"] == 1
        with pytest.raises(Quarantined):
            store.get("rot")
        # The damaged bytes moved with their original header, whose
        # last field is the CRC of the bytes that were acked.
        offset, length = store.payload_span("rot")
        with open(store.journal_path, "rb") as handle:
            handle.seek(offset - 4)
            (header_crc,) = struct.unpack("<I", handle.read(4))
            assert handle.read(length) == rotten
        assert header_crc == crc32(b"R" * 500) != crc32(rotten)
        store.crash()
        store.recover()
        with pytest.raises(Quarantined):
            store.get("rot")
        assert "rot" not in store.digest()
        assert store.get("fine") == b"F" * 500
        # Healed behind the store's back, the key stays quarantined:
        # the QUARANTINE mark was copied too.
        with open(store.journal_path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"R" * 500)
        store.crash()
        store.recover()
        with pytest.raises(Quarantined):
            store.get("rot")

    @pytest.mark.parametrize("stage", COMPACT_STAGES)
    def test_a_crash_at_every_stage_loses_nothing(self, store, stage):
        for version in range(1, 9):
            store.put(f"k{version % 3}", bytes([version]) * 400, version)
        store.delete("k0", 9)
        owed = store.digest()

        def gate(reached):
            if reached == stage:
                raise TestCrashRecovery._Die()

        with pytest.raises(TestCrashRecovery._Die):
            store.compact(gate=gate)
        # Fail-stop, like an append that died part-way.
        with pytest.raises(StoreClosed):
            store.get("k1")
        leftover = os.path.exists(store.compact_path)
        assert leftover == (stage in ("compact_partial", "compact_synced"))
        if leftover:
            assert scan_store(store.directory)["leftover_compaction"]
        report = store.recover()
        assert not os.path.exists(store.compact_path)
        assert not report.truncated_bytes and not report.quarantined
        assert store.digest() == owed and store.max_version() == 9
        assert store.get("k1") == bytes([7]) * 400
        assert store.get("k2") == bytes([8]) * 400
        with pytest.raises(NotFound):
            store.get("k0")
        compacted = stage == "compact_renamed"
        assert (report.records_replayed == 3) == compacted

    def test_a_get_racing_the_swap_reads_the_old_file(self, store):
        store.put("filler", b"f" * 4096, 1)
        store.put("k", b"exact bytes" * 50, 2)
        store.put("filler", b"g" * 4096, 3)
        old_span = store.payload_span("k")
        parked, release = threading.Event(), threading.Event()
        read = store._read_verified

        def parking_read(fd, entry):
            # Between the index lookup and the pread.
            parked.set()
            assert release.wait(timeout=30.0)
            return read(fd, entry)

        store._read_verified = parking_read
        answers = []

        def reader():
            try:
                answers.append(store.get("k"))
            except Exception as exc:  # pragma: no cover - the bug
                answers.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            assert parked.wait(timeout=30.0)
            store.compact()
            assert store.payload_span("k") != old_span
        finally:
            release.set()
            thread.join(timeout=30.0)
        del store._read_verified
        assert answers == [b"exact bytes" * 50]
        assert store.counters["payloads_quarantined"] == 0
        assert store.stats()["quarantined_keys"] == 0
        assert store.get("k") == b"exact bytes" * 50

    def test_readers_and_writers_race_compactions(self, tmp_path):
        """Overwrites big enough to compact every few dozen puts, more
        threads than cores, a short switch interval: a read returns an
        acked value of its key or a typed error, and nothing is marked."""
        import itertools
        import sys

        store = ShardStore(str(tmp_path / "churn"), fsync=False)
        versions = itertools.count(1)
        keys = [f"k{index}" for index in range(4)]
        done = threading.Event()
        errors, reads = [], []

        def value(key, version):
            return f"{key}:{version:06d}".encode() * 800

        def writer(tag):
            try:
                for op in range(100):
                    version = next(versions)
                    key = keys[(tag + op) % len(keys)]
                    store.put(key, value(key, version), version)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            seen = dict.fromkeys(keys, 0)
            count = 0
            try:
                while not done.is_set():
                    for key in keys:
                        try:
                            got = store.get(key)
                        except (NotFound, Quarantined):
                            continue
                        count += 1
                        name, version = got[:9].decode().split(":")
                        assert name == key and got == value(key, int(version))
                        assert int(version) >= seen[key]
                        seen[key] = int(version)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            reads.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [
                threading.Thread(target=writer, args=(tag,)) for tag in range(4)
            ]
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in writers + readers)
        assert store.counters["compactions"] >= 5 and sum(reads) > 0
        # A read that lost a race with a swap may have raised, but it
        # never marks an entry whose bytes are fine.
        assert store.counters["payloads_quarantined"] == 0
        live = store.digest()
        assert len(live) == 4
        store.crash()
        report = store.recover()
        assert not report.torn_tail and not report.corrupt_records
        assert store.digest() == live and store.max_version() == 400
        store.close()

    def test_a_leftover_compaction_reads_torn_until_recovery(self, store):
        store.put("k", b"v" * 100, 1)
        store.close()
        with open(store.compact_path, "wb") as handle:
            handle.write(b"LVJ1\x02half a copy")
        scan = scan_store(store.directory)
        assert scan["leftover_compaction"] and not scan["torn_tail"]
        assert [c for c, _, _ in scan["issues"]] == ["torn"]
        store.recover()
        assert not os.path.exists(store.compact_path)
        assert scan_store(store.directory)["issues"] == []
        assert store.get("k") == b"v" * 100

    def test_compaction_telemetry(self, store):
        store.put("k", b"a" * 1000, 1)
        store.put("k", b"b" * 1000, 2)
        previous = flightrecorder.set_recorder(flightrecorder.FlightRecorder())
        try:
            with telemetry.session() as registry:
                outcome = store.compact()
            events = flightrecorder.get_recorder().snapshot()
        finally:
            flightrecorder.set_recorder(previous)
        reclaimed = outcome["bytes_before"] - outcome["bytes_after"]
        assert reclaimed == record_bytes("k", b"a" * 1000)
        assert registry.counters["store.compactions"] == 1
        assert registry.counters["store.compacted_bytes"] == reclaimed
        assert store.counters["compactions"] == 1
        assert store.counters["compacted_bytes"] == reclaimed
        (event,) = [e for e in events if e["kind"] == "store.compacted"]
        assert event["fields"]["bytes_before"] == outcome["bytes_before"]
        assert event["fields"]["bytes_after"] == outcome["bytes_after"]
        assert event["fields"]["seconds"] >= 0


class TestConcurrentWriters:
    """Racing writers on one store (satellite).

    Mirrors the checkpoint racing-writer suite: the append lock means
    the log is always a sequence of complete records -- whatever the
    interleaving, recovery must see one winner per key and zero torn
    state.
    """

    def test_many_writers_distinct_keys_all_durable(self, store):
        errors = []

        def writer(index):
            try:
                for op in range(8):
                    store.put(
                        f"w{index}-{op}",
                        bytes([index]) * (64 + op),
                        index * 100 + op,
                    )
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        store.crash()
        report = store.recover()
        assert report.keys == 48
        assert not report.torn_tail and not report.corrupt_records
        for index in range(6):
            for op in range(8):
                assert store.get(f"w{index}-{op}") == bytes([index]) * (64 + op)

    def test_readers_and_writers_race_without_lost_updates(self, store):
        """More threads than cores, a short switch interval, shared keys:
        the index (short lock) and the log (append lock) must agree."""
        import itertools
        import sys

        versions = itertools.count(1)
        keys = [f"k{index}" for index in range(8)]
        done = threading.Event()
        errors, reads = [], []

        def writer(tag):
            try:
                for op in range(40):
                    version = next(versions)
                    key = keys[(tag + op) % len(keys)]
                    store.put(key, f"{key}:{version:06d}".encode() * 20, version)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            seen = dict.fromkeys(keys, 0)
            count = 0
            try:
                while not done.is_set():
                    for key in keys:
                        try:
                            value = store.get(key)
                        except NotFound:
                            continue
                        count += 1
                        name, version = value[:9].decode().split(":")
                        assert name == key and value == value[:9] * 20
                        # The version-guarded index never steps back.
                        assert int(version) >= seen[key]
                        seen[key] = int(version)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            reads.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [
                threading.Thread(target=writer, args=(tag,)) for tag in range(4)
            ]
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            done.set()
            for thread in readers:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in writers + readers)
        # No lost counter update, no lost or interleaved record.
        assert store.counters["puts"] == 160
        assert store.counters["gets"] == sum(reads)
        live = store.digest()
        store.crash()
        report = store.recover()
        assert report.records_replayed == 160 and report.keys == 8
        assert not report.torn_tail and not report.corrupt_records
        assert store.digest() == live and store.max_version() == 160

    def test_barrier_synchronised_same_key_race_single_winner(self, store):
        barrier = threading.Barrier(2, timeout=30.0)

        def gate(stage):
            # Both writers have hashed and framed their records before
            # either append starts -- the worst-case interleaving.
            if stage == "put_begin":
                barrier.wait()

        errors = []

        def writer(tag):
            try:
                store.put("contested", bytes([tag]) * 256, tag, gate=gate)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(tag,)) for tag in (1, 2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors and not any(t.is_alive() for t in threads)
        # The committed value is exactly ONE writer's payload: the
        # higher version, per the version-guarded index, whichever
        # record landed first.
        assert store.get("contested") == bytes([2]) * 256
        # And recovery replays both whole records to the same winner.
        store.crash()
        report = store.recover()
        assert report.records_replayed == 2 and not report.torn_tail
        assert store.get("contested") == bytes([2]) * 256


class TestDiskFaultInjector:
    """The FaultInjector's at-rest modes (satellite)."""

    def test_file_bit_flip_changes_exactly_content(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 100)
        injector = FaultInjector(seed=5)
        assert injector.file_bit_flip(path, 2) == 2
        blob = open(path, "rb").read()
        assert len(blob) == 100 and blob != b"\x00" * 100
        assert injector.injected == 1

    def test_file_truncate_and_unlink(self, tmp_path):
        path = str(tmp_path / "f")
        with open(path, "wb") as handle:
            handle.write(b"x" * 100)
        injector = FaultInjector(seed=6)
        removed = injector.file_truncate(path)
        assert removed > 0 and os.path.getsize(path) == 100 - removed
        assert injector.file_unlink(path)
        assert not os.path.exists(path)
        assert injector.injected == 2

    def test_damage_file_is_seeded_and_reports_mode(self, tmp_path):
        modes = []
        for seed in range(8):
            path = str(tmp_path / f"f{seed}")
            with open(path, "wb") as handle:
                handle.write(os.urandom(64))
            modes.append(FaultInjector(seed=seed).damage_file(path))
        assert all(m in ("bit_flip", "truncate", "unlink") for m in modes)
        assert len(set(modes)) > 1  # the draw actually varies
        # Same seed, same file content -> same mode (reproducible).
        path = str(tmp_path / "again")
        with open(path, "wb") as handle:
            handle.write(os.urandom(64))
        assert FaultInjector(seed=0).damage_file(path) == modes[0]

    @pytest.mark.parametrize("mode", ["bit_flip", "truncate", "unlink"])
    def test_damage_span_touches_only_its_span(self, tmp_path, mode):
        path = str(tmp_path / "f")
        original = bytes(range(1, 201))
        with open(path, "wb") as handle:
            handle.write(original)
        injector = FaultInjector(seed=8)
        assert injector.damage_span(path, 50, 100, mode) == mode
        with open(path, "rb") as handle:
            blob = handle.read()
        # Same size, same bytes outside the span, damage inside it.
        assert len(blob) == 200
        assert blob[:50] == original[:50] and blob[150:] == original[150:]
        assert blob[50:150] != original[50:150]
        if mode == "unlink":
            assert blob[50:150] == bytes(100)
        if mode == "truncate":
            kept = len(blob[50:150].rstrip(b"\0"))
            assert blob[50 : 50 + kept] == original[50 : 50 + kept]
        assert injector.injected == 1
        # Past EOF there is nothing to damage; an unknown mode is a bug.
        assert injector.damage_span(path, 500, 10, mode) == ""
        with pytest.raises(ValueError):
            injector.damage_span(path, 0, 10, "shred")

    def test_missing_file_is_a_noop_not_an_error(self, tmp_path):
        injector = FaultInjector(seed=7)
        ghost = str(tmp_path / "ghost")
        assert injector.file_bit_flip(ghost) == 0
        assert injector.file_truncate(ghost) == 0
        assert not injector.file_unlink(ghost)
        assert injector.damage_span(ghost, 0, 8) == ""
        assert injector.injected == 0
