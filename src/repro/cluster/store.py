"""Per-shard durable storage: one append-only log, crash-consistent.

A :class:`ShardStore` is the disk a :class:`~repro.cluster.shard.ClusterShard`
stands on.  It holds opaque compressed payloads (LLM.265 container-v3
blobs in production; any bytes in tests) under string keys with two
guarantees the cluster's durability contract is built from:

- **An acknowledged write is durable.**  :meth:`put` returns only
  after the record -- a CRC-framed header, then the payload bytes --
  is appended to ``journal.log`` and fsynced: one append, one flush.
  A crash at any earlier point loses at most the unacknowledged write
  -- never an acknowledged one, and never a previously written key.
- **A damaged byte is never silently served.**  Every :meth:`get`
  re-verifies the payload's length and CRC32 (framing from
  :mod:`repro.resilience.framing`); a mismatch quarantines the key and
  raises the typed :class:`Quarantined` (chained onto the
  :class:`~repro.resilience.errors.ChecksumError` taxonomy), so the
  router can fail over to a replica instead of returning garbage.

A store directory holds one file, ``journal.log``: the magic ``"LVJ1"``
and version byte 2, then records (and, only while a compaction runs,
its replacement ``journal.compact``).  One record is
``frame_slice(header)`` (``u32 len | u32 crc | header``) followed by
``payload_len`` raw payload bytes; the header is::

    op u8 (1 = PUT, 2 = DEL, 3 = QUARANTINE) | version u64
    key_len u16 | key utf-8
    hash 16 bytes (blake2b-128 of payload)
    payload_len u64 | payload_crc u32

``DEL`` and ``QUARANTINE`` records carry no payload.  The volatile
index maps key -> (version, hash, offset, length, crc); a get is one
``os.pread`` of that span plus the CRC.  The header has its own frame
so the two kinds of damage stay apart: a bad *header* CRC makes
everything after it unreachable (the walk is header -> skip
``payload_len`` -> header), a bad *payload* CRC under a good header
costs that one key and none of its successors.

**Recovery** (:meth:`recover`) streams the log record by record: a
torn final record (the SIGKILL-mid-append case) is truncated away
(``counters["torn_tail_truncations"]``); a damaged header mid-log stops
replay there and truncates the untrusted suffix
(``counters["corrupt_records"]``) -- the keys it drops come back via
anti-entropy from replicas (:mod:`repro.cluster.repair`).  A payload
that fails its CRC during replay is indexed quarantined, never served
and never invented.  **Quarantine** is a state, not a place: the entry
is marked, a small ``QUARANTINE`` record keeps it marked across
restarts, the damaged bytes stay in the log as the forensic copy, and
a later put at the same or a higher version supersedes it.

**Compaction** (:meth:`ShardStore.compact`) keeps the log bounded: once
its dead bytes (superseded, stale and deleted records, tombstones,
quarantine marks) reach :data:`COMPACT_DEAD_RATIO` x the live bytes plus
:data:`COMPACT_FLOOR_BYTES`, the put or delete that crossed the line
copies every indexed record into ``journal.compact``, fsyncs it,
renames it over ``journal.log`` and fsyncs the directory -- all under
the append lock, so no later append is acknowledged before the rename
is durable.  Headers are re-packed from the index (version, hash and
CRC as first journaled, never recomputed from the bytes); each payload
is CRC-checked as it is copied and quarantined on a mismatch, damaged
bytes and mark included.  A leftover ``journal.compact`` means the
rename never happened: the old journal is authoritative and
:meth:`ShardStore.recover` deletes it.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import threading
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, Iterator, List, Optional, Tuple

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.resilience.errors import ChecksumError
from repro.resilience.framing import SLICE_OVERHEAD, crc32, frame_slice

__all__ = [
    "COMPACT_DEAD_RATIO",
    "COMPACT_FLOOR_BYTES",
    "COMPACT_STAGES",
    "NotFound",
    "Quarantined",
    "RecoveryReport",
    "ShardStore",
    "StoreClosed",
    "StoreEntry",
    "StoreError",
    "scan_store",
]

_JOURNAL_MAGIC = b"LVJ1"
_JOURNAL_VERSION = 2
_JOURNAL_HEADER = _JOURNAL_MAGIC + bytes([_JOURNAL_VERSION])
_JOURNAL_NAME = "journal.log"
_COMPACT_NAME = "journal.compact"
_HASH_BYTES = 16

_OP_PUT = 1
_OP_DEL = 2
_OP_QUARANTINE = 3

_FRAME = struct.Struct("<II")
#: op, version, key_len  /  (key)  /  hash, payload_len, payload_crc
_RECORD_PREFIX = struct.Struct("<BQH")
_RECORD_SUFFIX = struct.Struct(f"<{_HASH_BYTES}sQI")
#: No framed header is longer; a length field that claims more is damage.
_MAX_HEADER = _RECORD_PREFIX.size + 0xFFFF + _RECORD_SUFFIX.size
#: A framed header's size without its key.
_HEADER_FIXED = SLICE_OVERHEAD + _RECORD_PREFIX.size + _RECORD_SUFFIX.size

#: Stages :meth:`ShardStore.put` announces to its crash gate, in order
#: (the checkpoint writer's simulated crash surface,
#: :mod:`repro.tensor.checkpoint`): the chaos soak SIGKILLs a shard
#: *mid-write* at one -- halfway through the header or the payload,
#: which is what actually produces torn records on real machines.
#: ``journal_synced`` is the acknowledgement point: a crash at any
#: earlier stage loses the write; at or after it, the write is durable.
PUT_STAGES = (
    "put_begin",
    "journal_partial",
    "payload_partial",
    "journal_synced",
)

#: Stages :meth:`ShardStore.compact` announces to the same gate, in
#: order: half the records copied (flushed, not synced), the copy
#: fsynced, the rename and directory fsync done.  A crash before
#: ``compact_renamed`` leaves the old journal authoritative (recovery
#: deletes the leftover ``journal.compact``); at it, the compacted one.
COMPACT_STAGES = (
    "compact_begin",
    "compact_partial",
    "compact_synced",
    "compact_renamed",
)

#: A store compacts once its dead bytes reach this many times its live
#: bytes plus :data:`COMPACT_FLOOR_BYTES`, so ``journal.log`` stays
#: below ``(1 + ratio) x live + floor`` and each compaction copies at
#: most what was appended since the one before.  The floor keeps a
#: small store from compacting on every overwrite.
COMPACT_DEAD_RATIO = 1
COMPACT_FLOOR_BYTES = 256 << 10


def _no_gate(stage: str) -> None:
    """The gate of a write no one is watching."""


class StoreError(Exception):
    """Base of the typed store failure vocabulary."""


class NotFound(StoreError):
    """The key is not present on this shard (it may be on a replica)."""

    def __init__(self, key: str, message: str = "") -> None:
        super().__init__(message or f"key {key!r} not found")
        self.key = key


class Quarantined(StoreError):
    """The key's payload failed verification and was quarantined.

    Always chained (``__cause__``) onto the
    :class:`~repro.resilience.errors.CorruptStreamError` taxonomy
    describing what was wrong with the bytes.
    """

    def __init__(self, key: str, reason: str) -> None:
        super().__init__(f"key {key!r} quarantined: {reason}")
        self.key = key
        self.reason = reason


class StoreClosed(StoreError):
    """The store's process is gone (crashed or closed); recover first."""


@dataclass
class StoreEntry:
    """One key's committed state; its payload is bytes ``[offset,
    offset + length)`` of ``journal.log``."""

    version: int
    hash_hex: str
    length: int
    crc: int
    offset: int
    quarantined: bool = False


@dataclass
class RecoveryReport:
    """What one :meth:`ShardStore.recover` replay found and fixed."""

    records_replayed: int = 0
    keys: int = 0
    torn_tail: bool = False
    corrupt_records: int = 0
    truncated_bytes: int = 0
    #: Indexed keys that cannot be served: their payload failed its CRC
    #: during this replay, or an earlier run's QUARANTINE record says so.
    quarantined: int = 0
    #: Journal bytes the replay read, file header included: bounded by
    #: the live bytes, not by the store's history (see compaction).
    bytes_read: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _pack_record(
    op: int, version: int, key: str, digest: bytes = b"\0" * _HASH_BYTES,
    length: int = 0, crc: int = 0,
) -> bytes:
    """One framed header (everything of a record but the payload)."""
    encoded = key.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"key too long: {key!r}")
    return frame_slice(
        _RECORD_PREFIX.pack(op, version, len(encoded))
        + encoded
        + _RECORD_SUFFIX.pack(digest, length, crc)
    )


def _record_size(key: str, entry: StoreEntry) -> int:
    """Bytes ``key``'s PUT record takes in the journal, header included."""
    return _HEADER_FIXED + len(key.encode("utf-8")) + entry.length


def _unpack_record(header: bytes) -> Tuple[int, int, str, bytes, int, int]:
    op, version, key_len = _RECORD_PREFIX.unpack_from(header, 0)
    offset = _RECORD_PREFIX.size
    key = header[offset : offset + key_len].decode("utf-8")
    offset += key_len
    digest, length, crc = _RECORD_SUFFIX.unpack_from(header, offset)
    if offset + _RECORD_SUFFIX.size != len(header):
        raise ValueError("journal record has trailing bytes")
    if op not in (_OP_PUT, _OP_DEL, _OP_QUARANTINE):
        raise ValueError(f"unknown op {op}")
    if op != _OP_PUT and length:
        raise ValueError(f"op {op} record claims a payload")
    return op, version, key, digest, length, crc


def _walk_journal(
    handle: BinaryIO, size: int, deep: bool
) -> Iterator[Tuple[int, Optional[tuple], str]]:
    """Yield ``(offset, record_or_None, reason)`` per record, streaming.

    ``handle`` is the open journal of ``size`` bytes; at most one header
    and one payload are in memory at a time.  A record is ``(op, key,
    entry, end, payload_ok)``: ``end`` is the next record boundary and
    ``payload_ok`` the payload's CRC verdict, ``None`` where the bytes
    were seeked over -- every payload is checked when ``deep``, else
    only one that ends at EOF, the one place an interrupted append can
    leave whole-length wrong bytes.  ``None`` marks damage, ``reason``
    starting ``"torn"`` (the record runs past EOF -- an interrupted
    append) or ``"corrupt"`` (complete bytes, bad header), and ends the
    walk: nothing after it can be trusted without a resynchronisation
    point the format does not have.
    """
    offset = len(_JOURNAL_HEADER)
    handle.seek(offset)
    while offset < size:
        payload_at = offset + SLICE_OVERHEAD
        if payload_at <= size:
            header_len, checksum = _FRAME.unpack(handle.read(SLICE_OVERHEAD))
            payload_at += header_len
        if payload_at > size:
            yield offset, None, "torn header"
            return
        if header_len > _MAX_HEADER:
            yield offset, None, "corrupt: impossible header length"
            return
        header = handle.read(header_len)
        if len(header) < header_len or crc32(header) != checksum:
            yield offset, None, "corrupt: header checksum mismatch"
            return
        try:
            op, version, key, digest, length, crc = _unpack_record(header)
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            # The frame's CRC passed but the header is malformed: a
            # record that was *written* wrong.  Same policy.
            yield offset, None, f"corrupt: malformed record ({exc})"
            return
        end = payload_at + length
        if end > size:
            yield offset, None, "torn payload"
            return
        payload_ok = None
        if length and (deep or end == size):
            payload = handle.read(length)
            payload_ok = len(payload) == length and crc32(payload) == crc
        else:
            handle.seek(end)
        entry = StoreEntry(version, digest.hex(), length, crc, payload_at)
        yield offset, (op, key, entry, end, payload_ok), ""
        offset = end


@dataclass
class _Replay:
    """The log folded into an index, and where (and why) the fold stopped."""

    index: Dict[str, StoreEntry]
    records: int = 0
    payloads_checked: int = 0
    max_version: int = 0
    #: First byte not covered by a whole, trusted record.
    end: int = len(_JOURNAL_HEADER)
    #: ``""`` when the walk reached EOF, else :func:`_walk_journal`'s reason.
    damage: str = ""


def _replay(handle: BinaryIO, size: int, deep: bool) -> _Replay:
    """Fold the journal's records, in order, into the index they imply.

    The rule is :meth:`ShardStore.put`'s: a PUT or DEL applies when its
    version is not below the indexed one; a QUARANTINE marks exactly
    the version it names; a PUT whose payload failed its CRC is indexed
    quarantined (it still shadows older versions -- serving those would
    be a silent stale read).
    """
    replay = _Replay({})
    index = replay.index
    for offset, record, replay.damage in _walk_journal(handle, size, deep):
        if record is None:
            replay.end = offset
            break
        op, key, entry, replay.end, payload_ok = record
        replay.records += 1
        replay.max_version = max(replay.max_version, entry.version)
        current = index.get(key)
        if op == _OP_QUARANTINE:
            if current is not None and current.version == entry.version:
                current.quarantined = True
        elif current is None or entry.version >= current.version:
            if op == _OP_DEL:
                index.pop(key, None)
            else:
                index[key] = entry
        if payload_ok is not None:
            replay.payloads_checked += 1
            entry.quarantined = not payload_ok
    return replay


class ShardStore:
    """Append-only log store with a volatile index.

    Thread-safe on two locks.  Appends -- write, flush, fsync and the
    stage gates -- serialise on ``_append_lock``, so whatever the
    interleaving the log is a sequence of complete records and the
    index ends at the highest version.  The index and counters sit
    under their own short ``_lock``, which :meth:`put` takes only after
    its fsync has returned: :meth:`get`, :meth:`contains`,
    :meth:`digest`, :meth:`max_version` and :meth:`stats` never wait on
    a flush.  Lock order is append, then index.

    A compaction swaps the index and both handles under the index lock
    once the new journal's rename is durable.  A read that looked its
    entry up before the swap still holds the old offsets, so the old
    reader stays open (``_retired``) until the next swap or close and
    the read is answered from the old file's bytes.
    """

    def __init__(
        self,
        directory: str,
        shard_id: str = "",
        fsync: bool = True,
    ) -> None:
        self.directory = str(directory)
        self.shard_id = shard_id or os.path.basename(self.directory)
        self.fsync = fsync
        self.journal_path = os.path.join(self.directory, _JOURNAL_NAME)
        self.compact_path = os.path.join(self.directory, _COMPACT_NAME)
        # Re-entrant: an armed kill fires crash() from inside put's gate.
        self._append_lock = threading.RLock()
        self._lock = threading.Lock()
        self._index: Dict[str, StoreEntry] = {}
        self._max_version = 0
        self._journal: Optional[BinaryIO] = None
        self._reader: Optional[BinaryIO] = None
        #: The reader a compaction replaced; reads may still hold its fd.
        self._retired: Optional[BinaryIO] = None
        self._open = False
        self._scrub_cursor = 0
        #: Bytes of the indexed records, and the journal's end (both
        #: under the append lock): what the compaction trigger compares.
        self._live_bytes = 0
        self._journal_bytes = 0
        self.counters: Dict[str, int] = dict.fromkeys((
            "puts", "gets", "deletes", "recoveries", "crashes",
            "torn_tail_truncations", "corrupt_records",
            "payloads_quarantined", "scrub_checked", "scrub_corrupt",
            "compactions", "compacted_bytes",
        ), 0)
        self.last_recovery: Optional[RecoveryReport] = None
        self.recover()

    # -- lifecycle -----------------------------------------------------

    @property
    def open(self) -> bool:
        return self._open

    def crash(self) -> None:
        """Simulate the owning process dying: all volatile state is gone.

        The disk keeps whatever was flushed -- including a torn tail if
        a :meth:`put` was interrupted -- and nothing else.  The store
        refuses every operation until :meth:`recover` runs.
        """
        with self._append_lock, self._lock:
            self._close_handles()
            self._index = {}
            self._max_version = 0
            self.counters["crashes"] += 1

    def close(self) -> None:
        """Graceful shutdown (everything acknowledged is already synced)."""
        with self._append_lock, self._lock:
            self._close_handles()

    def recover(self) -> RecoveryReport:
        """Crash-consistent open: replay the log, fix the tail.

        Idempotent; safe on a fresh directory (creates the journal) and
        after :meth:`crash` (rebuilds the index from disk).  Torn or
        corrupt suffixes are truncated away so the next append lands
        on a clean record boundary.  A journal of another format
        version raises :class:`StoreError` and is left untouched.
        """
        with self._append_lock, self._lock:
            self._close_handles()
            report = RecoveryReport()
            os.makedirs(self.directory, exist_ok=True)
            # A compaction that never renamed: journal.log still holds
            # everything, so its unfinished copy is dropped.
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.compact_path)
            if not os.path.exists(self.journal_path):
                self._write_fresh_journal()
            with open(self.journal_path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                head = handle.read(len(_JOURNAL_HEADER))
                if head == _JOURNAL_HEADER:
                    replay = _replay(handle, size, deep=True)
                elif head[:-1] == _JOURNAL_MAGIC:
                    raise StoreError(
                        f"{self.journal_path} is journal format version "
                        f"{head[-1]}; this build reads version "
                        f"{_JOURNAL_VERSION} only and will neither replay "
                        f"nor overwrite it"
                    )
                else:
                    # An unrecognisable journal cannot be replayed; treat
                    # the whole file as one corrupt record and start over
                    # (replicas re-seed this shard via anti-entropy).
                    replay = _Replay({}, end=0, damage="corrupt: bad magic")
                report.bytes_read = handle.tell()
            if replay.damage:
                report.truncated_bytes = size - replay.end
                report.torn_tail = replay.damage.startswith("torn")
                report.corrupt_records = int(not report.torn_tail)
                kind = (
                    "torn_tail_truncations" if report.torn_tail
                    else "corrupt_records"
                )
                self.counters[kind] += 1
                if replay.end:
                    with open(self.journal_path, "r+b") as handle:
                        handle.truncate(replay.end)
                        handle.flush()
                        if self.fsync:
                            os.fsync(handle.fileno())
                else:
                    self._write_fresh_journal()
                flightrecorder.record(
                    "store.journal_truncated",
                    shard=self.shard_id,
                    damage=replay.damage,
                    dropped_bytes=report.truncated_bytes,
                )

            report.records_replayed = replay.records
            report.keys = len(replay.index)
            report.quarantined = sum(
                entry.quarantined for entry in replay.index.values()
            )
            self._index = replay.index
            self._max_version = replay.max_version
            self._live_bytes = sum(
                _record_size(key, entry) for key, entry in self._index.items()
            )
            self._journal = open(self.journal_path, "ab")
            self._journal_bytes = self._journal.tell()
            self._reader = open(self.journal_path, "rb", buffering=0)
            self._open = True
            self.counters["recoveries"] += 1
            self.last_recovery = report
            flightrecorder.record(
                "store.recovered", shard=self.shard_id, **report.to_dict()
            )
            return report

    # -- write path ----------------------------------------------------

    def put(
        self,
        key: str,
        payload: bytes,
        version: int,
        gate: Optional[Callable[[str], None]] = None,
    ) -> StoreEntry:
        """Durably store ``payload`` under ``key``; returns on fsync.

        ``gate(stage)`` fires at each :data:`PUT_STAGES` boundary (and
        may raise to simulate the process dying there).  The write is
        acknowledged -- and only then indexed and recoverable -- once
        the ``journal_synced`` stage is reached.  A put that leaves the
        journal due for compaction runs it before returning, through
        the same gate (:data:`COMPACT_STAGES`); the returned entry's
        offset is where the record landed, :meth:`payload_span` where
        it is now.
        """
        self._check_open()
        gate = gate or _no_gate
        gate("put_begin")
        digest = hashlib.blake2b(payload, digest_size=_HASH_BYTES).digest()
        crc = crc32(payload)
        header = _pack_record(_OP_PUT, version, key, digest, len(payload), crc)
        record = memoryview(b"".join((header, payload)))
        # The append is split around two gates so a simulated SIGKILL
        # can land *inside* the header or *inside* the payload -- the
        # torn tails recovery must truncate.  Every piece is flushed to
        # the OS; fsync happens once, at the acknowledgement point.
        cuts = (len(header) // 2, len(header) + len(payload) // 2)
        with self._appending() as journal:
            journal.write(record[: cuts[0]])
            journal.flush()
            gate("journal_partial")
            journal.write(record[cuts[0] : cuts[1]])
            journal.flush()
            gate("payload_partial")
            journal.write(record[cuts[1] :])
            journal.flush()
            if self.fsync:
                os.fsync(journal.fileno())
            # Asked of the file, not counted: a file cut short behind
            # the store's back must not shift later offsets.
            end = journal.tell()
            gate("journal_synced")
            entry = StoreEntry(
                version, digest.hex(), len(payload), crc, end - len(payload)
            )
            with self._lock:
                current = self._index.get(key)
                if current is None or version >= current.version:
                    self._index[key] = entry
                    self._live_bytes += len(record) - (
                        _record_size(key, current) if current else 0
                    )
                self._max_version = max(self._max_version, version)
                self.counters["puts"] += 1
            self._journal_bytes = end
            self._compact_if_due(gate)
        return entry

    def delete(self, key: str, version: int) -> bool:
        """Journal a tombstone for ``key``; True if it was present."""
        self._check_open()
        record = _pack_record(_OP_DEL, version, key)
        with self._appending() as journal:
            journal.write(record)
            journal.flush()
            if self.fsync:
                os.fsync(journal.fileno())
            with self._lock:
                current = self._index.get(key)
                if current is None or version >= current.version:
                    if self._index.pop(key, None) is not None:
                        self._live_bytes -= _record_size(key, current)
                self._max_version = max(self._max_version, version)
                self.counters["deletes"] += 1
            self._journal_bytes = journal.tell()
            self._compact_if_due(_no_gate)
        return current is not None

    # -- read path -----------------------------------------------------

    def get(self, key: str) -> bytes:
        """Verified read: the exact acknowledged bytes, or a typed error.

        Raises :class:`NotFound` for an unknown key and
        :class:`Quarantined` when the stored span fails its length or
        CRC -- in which case the key is also marked quarantined so
        repair re-replicates a clean copy.
        """
        with self._lock:
            self._check_open()
            entry = self._index.get(key)
            if entry is None:
                raise NotFound(key)
            if entry.quarantined:
                raise Quarantined(key, "previously quarantined")
            fd = self._reader.fileno()
            self.counters["gets"] += 1
        try:
            return self._read_verified(fd, entry)
        except ChecksumError as cause:
            self._quarantine(key, entry)
            raise Quarantined(key, "checksum mismatch") from cause

    def contains(self, key: str) -> bool:
        with self._lock:
            entry = self._index.get(key)
            return entry is not None and not entry.quarantined

    def payload_span(self, key: str) -> Tuple[int, int]:
        """``(offset, length)`` of ``key``'s payload inside ``journal_path``.

        What fault injection and forensics address instead of a file
        per key; quarantined keys included (their bytes never move).
        """
        with self._lock:
            entry = self._index.get(key)
        if entry is None:
            raise NotFound(key)
        return entry.offset, entry.length

    @contextlib.contextmanager
    def pinned_span(self, key: str) -> Iterator[Tuple[int, int]]:
        """:meth:`payload_span`, held: no append or compaction moves the
        key's bytes until the block exits.

        For whoever writes to the span behind the store's back (the
        chaos soak's disk faults): a bare :meth:`payload_span`
        can be stale by the time its caller opens the file.
        """
        with self._append_lock:
            yield self.payload_span(key)

    # -- scrubbing -----------------------------------------------------

    def scrub(self, budget: Optional[int] = 16) -> dict:
        """Re-verify up to ``budget`` stored payloads' CRCs (round-robin).

        ``budget=None`` scrubs everything.  Corrupt payloads are
        quarantined exactly as a failed read would, so latent bit rot
        surfaces on the scrubber's cadence, not a client's request.
        Returns ``{"checked": n, "corrupt": [keys...]}``.
        """
        with self._lock:
            self._check_open()
            keys = sorted(
                key for key, entry in self._index.items()
                if not entry.quarantined
            )
            if not keys:
                return {"checked": 0, "corrupt": []}
            if budget is None or budget >= len(keys):
                chosen = keys
                self._scrub_cursor = 0
            else:
                start = self._scrub_cursor % len(keys)
                chosen = [
                    keys[(start + step) % len(keys)] for step in range(budget)
                ]
                self._scrub_cursor = (start + budget) % len(keys)
        corrupt: List[str] = []
        for key in chosen:
            with self._lock:
                entry = self._index.get(key)
                if entry is None or entry.quarantined:
                    continue
                fd = self._reader.fileno()
                self.counters["scrub_checked"] += 1
            try:
                self._read_verified(fd, entry)
            except ChecksumError:
                if self._quarantine(key, entry, scrub=True):
                    corrupt.append(key)
        return {"checked": len(chosen), "corrupt": corrupt}

    # -- compaction ------------------------------------------------------

    def compact(self, gate: Optional[Callable[[str], None]] = None) -> dict:
        """Rewrite the journal as its indexed records; returns the sizes.

        Runs whether or not the journal is due (:meth:`put` and
        :meth:`delete` call it when it is).  ``gate(stage)`` fires at
        each :data:`COMPACT_STAGES` boundary, as in :meth:`put`; a
        failure anywhere fail-stops the store like a failed append.
        Returns ``{"bytes_before", "bytes_after", "quarantined"}``, the
        last the keys whose payload failed its CRC during the copy.
        """
        with self._appending():
            return self._compact(gate or _no_gate)

    def _compact_if_due(self, gate: Callable[[str], None]) -> None:
        """Append lock held: compact once dead bytes reach the bound."""
        dead = self._journal_bytes - len(_JOURNAL_HEADER) - self._live_bytes
        if dead >= COMPACT_DEAD_RATIO * self._live_bytes + COMPACT_FLOOR_BYTES:
            self._compact(gate)

    def _compact(self, gate: Callable[[str], None]) -> dict:
        """Append lock held (through :meth:`_appending`)."""
        started = time.perf_counter()
        gate("compact_begin")
        with self._lock:
            live = sorted(self._index.items(), key=lambda item: item[1].offset)
            fd = self._reader.fileno()
            clock = self._max_version
        before = self._journal_bytes
        index: Dict[str, StoreEntry] = {}
        rotten: List[Tuple[str, StoreEntry]] = []
        with open(self.compact_path, "wb") as out:
            out.write(_JOURNAL_HEADER)
            if clock > max((entry.version for _, entry in live), default=0):
                # The highest version ever journaled belongs to a
                # deleted or superseded record.  A DEL ahead of every
                # PUT deletes nothing and keeps max_version() from
                # running backwards after the next replay.
                out.write(_pack_record(_OP_DEL, clock, ""))
            half = len(live) // 2
            for key, entry in live[:half]:
                index[key] = self._copy_record(out, fd, key, entry, rotten)
            out.flush()
            gate("compact_partial")
            for key, entry in live[half:]:
                index[key] = self._copy_record(out, fd, key, entry, rotten)
            out.flush()
            if self.fsync:
                os.fsync(out.fileno())
            after = out.tell()
        gate("compact_synced")
        os.replace(self.compact_path, self.journal_path)
        if self.fsync:
            self._fsync_directory()
        gate("compact_renamed")
        journal = open(self.journal_path, "ab")
        reader = open(self.journal_path, "rb", buffering=0)
        with self._lock:
            retired, self._retired = self._retired, self._reader
            self._journal.close()
            self._journal, self._reader, self._index = journal, reader, index
            self.counters["compactions"] += 1
            self.counters["compacted_bytes"] += before - after
        if retired is not None:
            retired.close()
        self._live_bytes = sum(
            _record_size(key, entry) for key, entry in index.items()
        )
        self._journal_bytes = after
        seconds = time.perf_counter() - started
        telemetry.count("store.compactions")
        telemetry.count("store.compacted_bytes", before - after)
        flightrecorder.record(
            "store.compacted", shard=self.shard_id, bytes_before=before,
            bytes_after=after, seconds=seconds,
        )
        for key, entry in rotten:
            self._announce_quarantine(key, entry, scrub=True)
        return {
            "bytes_before": before,
            "bytes_after": after,
            "quarantined": [key for key, _ in rotten],
        }

    def _copy_record(
        self,
        out: BinaryIO,
        fd: int,
        key: str,
        entry: StoreEntry,
        rotten: List[Tuple[str, StoreEntry]],
    ) -> StoreEntry:
        """Append lock held: ``entry``'s record into ``out``; its new entry.

        The header is re-packed from the index, so its CRC is the one
        first journaled; a payload that fails it is quarantined (and
        added to ``rotten``) but copied as read, the forensic copy --
        zero-padded if the span was cut short behind the store's back,
        so the new journal stays walkable.
        """
        try:
            payload = os.pread(fd, entry.length, entry.offset)
        except OSError:
            payload = b""
        quarantined = entry.quarantined
        if not quarantined and (
            len(payload) != entry.length or crc32(payload) != entry.crc
        ):
            quarantined = self._mark_quarantined(key, entry, scrub=True)
            rotten.append((key, entry))
        out.write(_pack_record(
            _OP_PUT, entry.version, key, bytes.fromhex(entry.hash_hex),
            entry.length, entry.crc,
        ))
        out.write(payload.ljust(entry.length, b"\0"))
        copied = StoreEntry(
            entry.version, entry.hash_hex, entry.length, entry.crc,
            out.tell() - entry.length, quarantined,
        )
        if quarantined:
            out.write(_pack_record(_OP_QUARANTINE, entry.version, key))
        return copied

    # -- anti-entropy --------------------------------------------------

    def digest(self) -> Dict[str, Tuple[int, str]]:
        """``key -> (version, hash_hex)`` for every *servable* key.

        Quarantined keys are deliberately absent: this shard cannot
        serve them, so for replication accounting it does not hold
        them -- exactly the signal anti-entropy repairs on.
        """
        with self._lock:
            return {
                key: (entry.version, entry.hash_hex)
                for key, entry in self._index.items()
                if not entry.quarantined
            }

    # -- introspection -------------------------------------------------

    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._index))

    def max_version(self) -> int:
        """Highest version any replayed or acked record carries (0: none).

        Superseded, deleted and quarantined versions count, so a clock
        seeded from it never runs backwards into a tombstone.
        """
        with self._lock:
            return self._max_version

    def stats(self) -> dict:
        with self._lock:
            return {
                "shard": self.shard_id,
                "open": self._open,
                "keys": len(self._index),
                "quarantined_keys": sum(
                    entry.quarantined for entry in self._index.values()
                ),
                "counters": dict(self.counters),
            }

    # -- internals (callers hold the locks each one names) --------------

    def _write_fresh_journal(self) -> None:
        with open(self.journal_path, "wb") as handle:
            handle.write(_JOURNAL_HEADER)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        if self.fsync:
            self._fsync_directory()

    def _fsync_directory(self) -> None:
        """The journal's name must be as durable as the acks that land
        behind it: once per journal creation or replacement (a fresh
        journal, a compaction's rename), never per put."""
        dir_fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _close_handles(self) -> None:
        """Both locks held."""
        for handle in (self._journal, self._reader, self._retired):
            try:
                if handle is not None:
                    handle.close()
            except OSError:  # pragma: no cover - close best-effort
                pass
        self._journal = self._reader = self._retired = None
        self._open = False

    def _check_open(self) -> None:
        if not self._open:
            raise StoreClosed(f"store {self.shard_id!r} is not open")

    @contextlib.contextmanager
    def _appending(self) -> Iterator[BinaryIO]:
        """The append lock over one record's writes; yields the journal.

        Fail-stop: if the block dies part-way (a kill at a gate, an I/O
        error) the log may end inside a record, and anything appended
        behind it would be cut off with it at the next replay, acked
        or not.  So the store goes down with the write, and
        :meth:`recover` truncates the tail before another append lands.
        """
        with self._append_lock:
            self._check_open()
            try:
                yield self._journal
            except BaseException:
                if self._open:
                    self.crash()
                raise

    @staticmethod
    def _read_verified(fd: int, entry: StoreEntry) -> bytes:
        """The entry's span if it passes length + CRC, else ChecksumError.

        A span that reads short, a descriptor closed by a racing
        :meth:`crash`, and flipped bits all fail the same check.
        """
        try:
            payload = os.pread(fd, entry.length, entry.offset)
        except OSError:
            payload = b""
        actual = crc32(payload)
        if len(payload) != entry.length or actual != entry.crc:
            raise ChecksumError(
                f"payload at journal@{entry.offset} fails its length/CRC "
                f"check ({len(payload)} of {entry.length} bytes)",
                expected=entry.crc, actual=actual,
            )
        return payload

    def _quarantine(
        self, key: str, entry: StoreEntry, scrub: bool = False
    ) -> bool:
        """Mark ``entry`` unservable; False if it is no longer the live one.

        Only the entry that was read is marked: one superseded by a
        racing put, or read through a racing crash or close (whose
        failure says nothing about the bytes), is left alone.
        """
        try:
            with self._appending() as journal:
                if not self._mark_quarantined(key, entry, scrub):
                    return False
                # Not fsynced: if the record is lost, replay's own CRC
                # pass (or the next read) finds the damage again.
                journal.write(_pack_record(_OP_QUARANTINE, entry.version, key))
                journal.flush()
                self._journal_bytes = journal.tell()
        except StoreClosed:
            return False
        self._announce_quarantine(key, entry, scrub)
        return True

    def _mark_quarantined(self, key: str, entry: StoreEntry, scrub: bool) -> bool:
        """Append lock held: mark the live ``entry``; False if it is not."""
        with self._lock:
            if self._index.get(key) is not entry or entry.quarantined:
                return False
            entry.quarantined = True
            self.counters["payloads_quarantined"] += 1
            if scrub:
                self.counters["scrub_corrupt"] += 1
        return True

    def _announce_quarantine(
        self, key: str, entry: StoreEntry, scrub: bool
    ) -> None:
        telemetry.count("store.payloads_quarantined")
        flightrecorder.record(
            "store.payload_quarantined",
            shard=self.shard_id, key=key, offset=entry.offset,
            length=entry.length, scrub=scrub,
        )


def scan_store(directory: str, deep: bool = False) -> dict:
    """Non-mutating integrity scan of a store directory (for ``verify``).

    Streams the journal through the same walk and fold as
    :meth:`ShardStore.recover`: every header CRC, the payload CRC of a
    record ending at EOF, and -- ``deep=True`` -- of every record.
    Nothing is truncated or quarantined.  Issues are ``(category,
    location, reason)``, the category ``"torn"`` (an interrupted append
    recovery would cleanly truncate, or an interrupted compaction's
    ``journal.compact`` it would delete) or ``"corrupt"`` (damage that
    loses or falsifies data, including a live key that is quarantined).
    """
    journal_path = os.path.join(str(directory), _JOURNAL_NAME)
    issues: List[Tuple[str, str, str]] = []
    replay = _Replay({})
    if not os.path.exists(journal_path):
        issues.append(("corrupt", "journal", "journal.log missing"))
    else:
        with open(journal_path, "rb") as handle:
            head = handle.read(len(_JOURNAL_HEADER))
            if head == _JOURNAL_HEADER:
                size = os.fstat(handle.fileno()).st_size
                replay = _replay(handle, size, deep)
            else:
                issues.append((
                    "corrupt", "journal",
                    f"bad journal header {head!r} "
                    f"(expected LVJ1 v{_JOURNAL_VERSION})",
                ))
    leftover = os.path.exists(os.path.join(str(directory), _COMPACT_NAME))
    if leftover:
        issues.append((
            "torn", _COMPACT_NAME,
            "leftover of an interrupted compaction (journal.log is "
            "authoritative; recovery deletes it)",
        ))
    torn = replay.damage.startswith("torn")
    if torn:
        issues.append((
            "torn", f"journal@{replay.end}",
            f"{replay.damage} at tail (interrupted append)",
        ))
    elif replay.damage:
        issues.append((
            "corrupt", f"journal@{replay.end}",
            f"{replay.damage} (replay stops here)",
        ))
    issues += [
        (
            "corrupt", f"key {key!r}",
            f"payload at journal@{entry.offset} is unservable "
            f"(fails its CRC, or carries a QUARANTINE mark)",
        )
        for key, entry in sorted(replay.index.items()) if entry.quarantined
    ]
    return {
        "journal_records": replay.records,
        "keys": len(replay.index),
        "payloads_checked": replay.payloads_checked,
        "torn_tail": torn,
        "leftover_compaction": leftover,
        "corrupt_records": int(bool(replay.damage) and not torn),
        "issues": issues,
        "deep": deep,
    }
