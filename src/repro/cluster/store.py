"""Per-shard durable storage: journaled, content-addressed, crash-consistent.

A :class:`ShardStore` is the disk a :class:`~repro.cluster.shard.ClusterShard`
stands on.  It holds opaque compressed payloads (LLM.265 container-v3
blobs in production; any bytes in tests) under string keys with two
guarantees the cluster's durability contract is built from:

- **An acknowledged write is durable.**  :meth:`put` returns only
  after the payload's segment file is staged, fsynced, and atomically
  renamed into place *and* the journal record describing it is
  appended and fsynced.  A crash at any earlier point loses at most
  the unacknowledged write -- never an acknowledged one, and never a
  previously written key.
- **A damaged byte is never silently served.**  Every payload is
  CRC32-framed in the journal (via :mod:`repro.resilience.framing`)
  and re-verified on :meth:`get`; a mismatch quarantines the segment
  and raises the typed :class:`Quarantined` (chained onto the
  :class:`~repro.resilience.errors.ChecksumError` taxonomy), so the
  router can fail over to a replica instead of returning garbage.

On-disk layout of one store directory::

    journal.log        magic "LVJ1" + version, then framed records
    segments/<hash>.seg   content-addressed payloads (blake2b-128 hex)
    quarantine/        segments that failed CRC, moved aside for forensics

One journal record (framed as ``u32 len | u32 crc | payload``)::

    op u8 (1 = PUT, 2 = DEL) | version u64
    key_len u16 | key utf-8
    hash 16 bytes (blake2b-128 of payload)
    payload_len u64 | payload_crc u32

Segments are content-addressed, so identical payloads under different
keys share one file, and an interrupted writer can never damage an
existing segment: the rename either installs a complete identical
file or nothing.

**Recovery** (:meth:`recover`) replays the journal: a torn final
record (the SIGKILL-mid-append case) is truncated away
(``store.torn_tail_truncations``); a CRC-damaged record mid-journal
stops replay there and truncates the untrusted suffix
(``store.corrupt_records``) -- the keys it drops come back via
anti-entropy from replicas (:mod:`repro.cluster.repair`).  Indexed
keys whose segment file is missing are quarantined, never invented.

**Scrubbing** (:meth:`scrub`) re-verifies stored segment CRCs on a
budgeted round-robin cadence so latent bit rot is found before a
reader trips over it.

The simulated crash surface mirrors the checkpoint writer's
(:mod:`repro.tensor.checkpoint`): ``gate(stage)`` callbacks fire at
every durability-relevant boundary of :meth:`put` so the chaos
harness can SIGKILL a shard *mid-write* at a chosen stage -- including
halfway through the journal append, which is what actually produces
torn records on real machines.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import repro.telemetry as telemetry
from repro.telemetry import flightrecorder
from repro.resilience.errors import ChecksumError
from repro.resilience.framing import SLICE_OVERHEAD, crc32, frame_slice

__all__ = [
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
_JOURNAL_VERSION = 1
_JOURNAL_HEADER = _JOURNAL_MAGIC + bytes([_JOURNAL_VERSION])
_JOURNAL_NAME = "journal.log"
_SEGMENTS_DIR = "segments"
_QUARANTINE_DIR = "quarantine"
_HASH_BYTES = 16

_OP_PUT = 1
_OP_DEL = 2

#: op, version, key_len  /  (key)  /  hash, payload_len, payload_crc
_RECORD_PREFIX = struct.Struct("<BQH")
_RECORD_SUFFIX = struct.Struct(f"<{_HASH_BYTES}sQI")

#: Stages :meth:`ShardStore.put` announces to its crash gate, in order.
#: ``journal_synced`` is the acknowledgement point: a crash at any
#: earlier stage loses the write; at or after it, the write is durable.
PUT_STAGES = (
    "put_begin",
    "segment_staged",
    "segment_linked",
    "journal_partial",
    "journal_synced",
)


class StoreError(Exception):
    """Base of the typed store failure vocabulary."""


class NotFound(StoreError):
    """The key is not present on this shard (it may be on a replica)."""

    def __init__(self, key: str, message: str = "") -> None:
        super().__init__(message or f"key {key!r} not found")
        self.key = key


class Quarantined(StoreError):
    """The key's segment failed verification and was quarantined.

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
    """One key's committed state in the index."""

    version: int
    hash_hex: str
    length: int
    crc: int
    quarantined: bool = False


@dataclass
class RecoveryReport:
    """What one :meth:`ShardStore.recover` replay found and fixed."""

    records_replayed: int = 0
    keys: int = 0
    torn_tail: bool = False
    corrupt_records: int = 0
    truncated_bytes: int = 0
    segments_missing: int = 0
    tmp_files_removed: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _hash_payload(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=_HASH_BYTES).digest()


def _pack_record(
    op: int, version: int, key: str, digest: bytes, length: int, crc: int
) -> bytes:
    encoded = key.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"key too long: {key!r}")
    return (
        _RECORD_PREFIX.pack(op, version, len(encoded))
        + encoded
        + _RECORD_SUFFIX.pack(digest, length, crc)
    )


def _unpack_record(payload: bytes) -> Tuple[int, int, str, bytes, int, int]:
    op, version, key_len = _RECORD_PREFIX.unpack_from(payload, 0)
    offset = _RECORD_PREFIX.size
    key = payload[offset : offset + key_len].decode("utf-8")
    offset += key_len
    digest, length, crc = _RECORD_SUFFIX.unpack_from(payload, offset)
    if offset + _RECORD_SUFFIX.size != len(payload):
        raise ValueError("journal record has trailing bytes")
    return op, version, key, digest, length, crc


def _walk_journal(blob: bytes):
    """Yield ``(offset, payload_or_None, reason)`` per framed record.

    ``payload`` is the verified record payload; ``None`` marks damage,
    with ``reason`` one of ``"torn"`` (the record runs past EOF -- an
    interrupted append) or ``"corrupt"`` (complete bytes, bad CRC).
    Iteration stops at the first damaged record: nothing after it can
    be trusted without a resynchronisation point the format does not
    have.
    """
    offset = len(_JOURNAL_HEADER)
    size = len(blob)
    header = struct.Struct("<II")
    while offset < size:
        if offset + SLICE_OVERHEAD > size:
            yield offset, None, "torn"
            return
        length, checksum = header.unpack_from(blob, offset)
        end = offset + SLICE_OVERHEAD + length
        if end > size:
            yield offset, None, "torn"
            return
        payload = blob[offset + SLICE_OVERHEAD : end]
        if crc32(payload) != checksum:
            yield offset, None, "corrupt"
            return
        yield offset, payload, ""
        offset = end


_tmp_counter = itertools.count()


class ShardStore:
    """Write-ahead-journaled, content-addressed segment store.

    Thread-safe: concurrent writers stage segments under unique temp
    names and serialise only the journal append + index update, so a
    race between two :meth:`put` calls (same key or not) always leaves
    the journal a sequence of complete records and the index at the
    highest version.
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
        self.segments_dir = os.path.join(self.directory, _SEGMENTS_DIR)
        self.quarantine_dir = os.path.join(self.directory, _QUARANTINE_DIR)
        self._lock = threading.RLock()
        self._index: Dict[str, StoreEntry] = {}
        self._journal = None
        self._open = False
        self._scrub_cursor = 0
        self.counters: Dict[str, int] = {
            name: 0
            for name in (
                "puts", "gets", "deletes", "recoveries",
                "torn_tail_truncations", "corrupt_records",
                "segments_quarantined", "segments_missing",
                "scrub_checked", "scrub_corrupt", "crashes",
            )
        }
        self.last_recovery: Optional[RecoveryReport] = None
        self.recover()

    # -- lifecycle -----------------------------------------------------

    @property
    def open(self) -> bool:
        return self._open

    def crash(self) -> None:
        """Simulate the owning process dying: all volatile state is gone.

        The disk keeps whatever was flushed -- including a torn journal
        tail if a :meth:`put` was interrupted -- and nothing else.  The
        store refuses every operation until :meth:`recover` runs.
        """
        with self._lock:
            if self._journal is not None:
                try:
                    self._journal.close()
                except OSError:  # pragma: no cover - close best-effort
                    pass
                self._journal = None
            self._index = {}
            self._open = False
            self._count("crashes")

    def close(self) -> None:
        """Graceful shutdown (everything acknowledged is already synced)."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
            self._open = False

    def recover(self) -> RecoveryReport:
        """Crash-consistent open: replay the journal, fix the tail.

        Idempotent; safe on a fresh directory (creates the layout) and
        after :meth:`crash` (rebuilds the index from disk).  Torn or
        corrupt journal suffixes are truncated away so the next append
        lands on a clean record boundary.
        """
        with self._lock:
            report = RecoveryReport()
            os.makedirs(self.segments_dir, exist_ok=True)
            os.makedirs(self.quarantine_dir, exist_ok=True)
            journal_path = self._journal_path()
            if not os.path.exists(journal_path):
                self._write_fresh_journal(journal_path)
            with open(journal_path, "rb") as handle:
                blob = handle.read()
            if blob[: len(_JOURNAL_HEADER)] != _JOURNAL_HEADER:
                # An unrecognisable journal cannot be replayed; treat
                # the whole file as one corrupt record and start over
                # (replicas re-seed this shard via anti-entropy).
                report.corrupt_records += 1
                report.truncated_bytes = len(blob)
                self._count("corrupt_records")
                self._write_fresh_journal(journal_path)
                blob = _JOURNAL_HEADER

            index: Dict[str, StoreEntry] = {}
            keep_until = len(blob)
            for offset, payload, reason in _walk_journal(blob):
                if payload is None:
                    keep_until = offset
                    if reason == "torn":
                        report.torn_tail = True
                        self._count("torn_tail_truncations")
                        telemetry.count("store.torn_tail_truncations")
                    else:
                        report.corrupt_records += 1
                        self._count("corrupt_records")
                        telemetry.count("store.corrupt_records")
                    break
                try:
                    op, version, key, digest, length, crc = _unpack_record(
                        payload
                    )
                except (struct.error, UnicodeDecodeError, ValueError):
                    # Framing CRC passed but the payload is malformed:
                    # a record that was *written* wrong.  Same policy
                    # as a corrupt record.
                    keep_until = offset
                    report.corrupt_records += 1
                    self._count("corrupt_records")
                    telemetry.count("store.corrupt_records")
                    break
                report.records_replayed += 1
                current = index.get(key)
                if op == _OP_PUT:
                    if current is None or version >= current.version:
                        index[key] = StoreEntry(
                            version=version,
                            hash_hex=digest.hex(),
                            length=length,
                            crc=crc,
                        )
                elif op == _OP_DEL:
                    if current is None or version >= current.version:
                        index.pop(key, None)

            if keep_until < len(blob):
                report.truncated_bytes = len(blob) - keep_until
                with open(journal_path, "r+b") as handle:
                    handle.truncate(keep_until)
                    handle.flush()
                    if self.fsync:
                        os.fsync(handle.fileno())
                flightrecorder.record(
                    "store.journal_truncated",
                    shard=self.shard_id,
                    torn=report.torn_tail,
                    corrupt_records=report.corrupt_records,
                    dropped_bytes=report.truncated_bytes,
                )

            # An indexed key must have its segment on disk; a missing
            # one (unlink fault, half-restored backup) is quarantined
            # so reads fail typed instead of crashing on open().
            for key, entry in index.items():
                if not os.path.exists(self._segment_path(entry.hash_hex)):
                    entry.quarantined = True
                    report.segments_missing += 1
                    self._count("segments_missing")
                    telemetry.count("store.segments_missing")

            # Orphan temp files are staged segments whose writer died
            # before the rename; they hold no acknowledged data.
            for name in os.listdir(self.segments_dir):
                if name.startswith(".tmp."):
                    try:
                        os.unlink(os.path.join(self.segments_dir, name))
                        report.tmp_files_removed += 1
                    except OSError:  # pragma: no cover - cleanup races
                        pass

            report.keys = len(index)
            self._index = index
            self._journal = open(journal_path, "ab")
            self._open = True
            self._count("recoveries")
            telemetry.count("store.recoveries")
            self.last_recovery = report
            flightrecorder.record(
                "store.recovered",
                shard=self.shard_id,
                keys=report.keys,
                records=report.records_replayed,
                torn_tail=report.torn_tail,
                corrupt_records=report.corrupt_records,
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
        acknowledged -- and only then recoverable -- once the
        ``journal_synced`` stage is reached.
        """
        self._check_open()
        self._gate(gate, "put_begin")
        digest = _hash_payload(payload)
        hash_hex = digest.hex()
        crc = crc32(payload)
        segment = self._segment_path(hash_hex)
        if not os.path.exists(segment):
            # Stage under a name unique per (process, thread, write) so
            # racing writers never interleave inside one temp file --
            # same discipline as the checkpoint writer.
            tmp = os.path.join(
                self.segments_dir,
                f".tmp.{os.getpid()}.{threading.get_ident()}."
                f"{next(_tmp_counter)}",
            )
            with open(tmp, "wb") as handle:
                handle.write(payload)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            self._gate(gate, "segment_staged", tmp=tmp)
            os.replace(tmp, segment)
        else:
            self._gate(gate, "segment_staged")
        self._gate(gate, "segment_linked")

        record = frame_slice(
            _pack_record(_OP_PUT, version, key, digest, len(payload), crc)
        )
        # The append is split around a gate so a simulated SIGKILL can
        # land *inside* the record -- the torn-tail case recovery must
        # truncate.  Both halves are flushed to the OS; fsync happens
        # once, at the acknowledgement point.
        split = max(1, len(record) // 2)
        with self._lock:
            self._check_open()
            self._journal.write(record[:split])
            self._journal.flush()
            self._gate(gate, "journal_partial")
            self._journal.write(record[split:])
            self._journal.flush()
            if self.fsync:
                os.fsync(self._journal.fileno())
            self._gate(gate, "journal_synced")
            entry = StoreEntry(
                version=version, hash_hex=hash_hex,
                length=len(payload), crc=crc,
            )
            current = self._index.get(key)
            if current is None or version >= current.version:
                self._index[key] = entry
            self._count("puts")
        telemetry.count("store.puts")
        return entry

    def delete(self, key: str, version: int) -> bool:
        """Journal a tombstone for ``key``; True if it was present."""
        self._check_open()
        record = frame_slice(
            _pack_record(_OP_DEL, version, key, b"\0" * _HASH_BYTES, 0, 0)
        )
        with self._lock:
            self._check_open()
            self._journal.write(record)
            self._journal.flush()
            if self.fsync:
                os.fsync(self._journal.fileno())
            current = self._index.get(key)
            present = current is not None
            if current is None or version >= current.version:
                self._index.pop(key, None)
            self._count("deletes")
        telemetry.count("store.deletes")
        return present

    # -- read path -----------------------------------------------------

    def get(self, key: str) -> bytes:
        """Verified read: the exact acknowledged bytes, or a typed error.

        Raises :class:`NotFound` for an unknown key and
        :class:`Quarantined` when the segment is missing or fails its
        CRC -- in which case the segment is also moved to the
        quarantine directory so repair re-replicates a clean copy.
        """
        self._check_open()
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                raise NotFound(key)
            if entry.quarantined:
                raise Quarantined(key, "previously quarantined")
        segment = self._segment_path(entry.hash_hex)
        try:
            with open(segment, "rb") as handle:
                payload = handle.read()
        except OSError:
            self._quarantine(key, entry, "segment file missing")
            raise Quarantined(key, "segment file missing") from None
        if len(payload) != entry.length or crc32(payload) != entry.crc:
            self._quarantine(key, entry, "checksum mismatch")
            cause = ChecksumError(
                f"segment {entry.hash_hex} checksum mismatch",
                expected=entry.crc, actual=crc32(payload),
            )
            raise Quarantined(key, "checksum mismatch") from cause
        with self._lock:
            self._count("gets")
        telemetry.count("store.gets")
        return payload

    def contains(self, key: str) -> bool:
        with self._lock:
            entry = self._index.get(key)
            return entry is not None and not entry.quarantined

    # -- scrubbing -----------------------------------------------------

    def scrub(self, budget: Optional[int] = 16) -> dict:
        """Re-verify up to ``budget`` stored segments' CRCs (round-robin).

        ``budget=None`` scrubs everything.  Corrupt segments are
        quarantined exactly as a failed read would, so latent bit rot
        surfaces on the scrubber's cadence, not a client's request.
        Returns ``{"checked": n, "corrupt": [keys...]}``.
        """
        self._check_open()
        with self._lock:
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
            ok = False
            try:
                with open(self._segment_path(entry.hash_hex), "rb") as handle:
                    payload = handle.read()
                ok = (
                    len(payload) == entry.length
                    and crc32(payload) == entry.crc
                )
                reason = "checksum mismatch"
            except OSError:
                reason = "segment file missing"
            with self._lock:
                self._count("scrub_checked")
            telemetry.count("store.scrub_checked")
            if not ok:
                corrupt.append(key)
                self._quarantine(key, entry, reason, scrub=True)
        return {"checked": len(chosen), "corrupt": corrupt}

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

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._index))

    def max_version(self) -> int:
        """Highest version in the index (0 when empty), quarantined keys too."""
        with self._lock:
            return max(
                (entry.version for entry in self._index.values()), default=0
            )

    def stats(self) -> dict:
        with self._lock:
            quarantined = sum(
                1 for entry in self._index.values() if entry.quarantined
            )
            return {
                "shard": self.shard_id,
                "open": self._open,
                "keys": len(self._index),
                "quarantined_keys": quarantined,
                "counters": dict(self.counters),
            }

    # -- internals -----------------------------------------------------

    def _journal_path(self) -> str:
        return os.path.join(self.directory, _JOURNAL_NAME)

    def _segment_path(self, hash_hex: str) -> str:
        return os.path.join(self.segments_dir, f"{hash_hex}.seg")

    def _write_fresh_journal(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(_JOURNAL_HEADER)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    def _check_open(self) -> None:
        if not self._open:
            raise StoreClosed(f"store {self.shard_id!r} is not open")

    @staticmethod
    def _gate(
        gate: Optional[Callable[[str], None]], stage: str, **_info
    ) -> None:
        if gate is not None:
            gate(stage)

    def _quarantine(
        self, key: str, entry: StoreEntry, reason: str, scrub: bool = False
    ) -> None:
        with self._lock:
            live = self._index.get(key)
            if live is not None:
                live.quarantined = True
            self._count("segments_quarantined")
            if scrub:
                self._count("scrub_corrupt")
        telemetry.count("store.segments_quarantined")
        if scrub:
            telemetry.count("store.scrub_corrupt")
        segment = self._segment_path(entry.hash_hex)
        if os.path.exists(segment):
            target = os.path.join(
                self.quarantine_dir, os.path.basename(segment)
            )
            try:
                os.replace(segment, target)
            except OSError:  # pragma: no cover - move is best-effort
                pass
        flightrecorder.record(
            "store.segment_quarantined",
            shard=self.shard_id, key=key,
            segment=entry.hash_hex, reason=reason, scrub=scrub,
        )

    def _count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


def scan_store(directory: str, deep: bool = False) -> dict:
    """Non-mutating integrity scan of a store directory (for ``verify``).

    Walks the journal's framed records and checks that every live
    key's segment exists with the journaled length; ``deep=True`` also
    re-reads each segment and verifies its CRC32.  Unlike
    :meth:`ShardStore.recover` nothing is truncated, quarantined, or
    deleted.  Issues carry a category: ``"torn"`` (an interrupted
    append recovery would cleanly truncate) or ``"corrupt"`` (damage
    that loses or falsifies data).
    """
    directory = str(directory)
    journal_path = os.path.join(directory, _JOURNAL_NAME)
    segments_dir = os.path.join(directory, _SEGMENTS_DIR)
    result = {
        "journal_records": 0,
        "keys": 0,
        "segments_checked": 0,
        "torn_tail": False,
        "corrupt_records": 0,
        "issues": [],  # (category, location, reason)
        "deep": deep,
    }

    def issue(category: str, location: str, reason: str) -> None:
        result["issues"].append((category, location, reason))

    if not os.path.exists(journal_path):
        issue("corrupt", "journal", "journal.log missing")
        return result
    with open(journal_path, "rb") as handle:
        blob = handle.read()
    if blob[: len(_JOURNAL_HEADER)] != _JOURNAL_HEADER:
        issue(
            "corrupt", "journal",
            f"bad journal header {blob[:5]!r} (expected LVJ1 v1)",
        )
        return result

    index: Dict[str, StoreEntry] = {}
    for offset, payload, reason in _walk_journal(blob):
        if payload is None:
            if reason == "torn":
                result["torn_tail"] = True
                issue(
                    "torn", f"journal@{offset}",
                    "torn record at tail (interrupted append)",
                )
            else:
                result["corrupt_records"] += 1
                issue(
                    "corrupt", f"journal@{offset}",
                    "record checksum mismatch (replay stops here)",
                )
            break
        try:
            op, version, key, digest, length, crc = _unpack_record(payload)
        except (struct.error, UnicodeDecodeError, ValueError) as exc:
            result["corrupt_records"] += 1
            issue("corrupt", f"journal@{offset}", f"malformed record: {exc}")
            break
        result["journal_records"] += 1
        current = index.get(key)
        if op == _OP_PUT:
            if current is None or version >= current.version:
                index[key] = StoreEntry(
                    version=version, hash_hex=digest.hex(),
                    length=length, crc=crc,
                )
        elif op == _OP_DEL:
            if current is None or version >= current.version:
                index.pop(key, None)
        else:
            issue("corrupt", f"journal@{offset}", f"unknown op {op}")

    result["keys"] = len(index)
    for key in sorted(index):
        entry = index[key]
        segment = os.path.join(segments_dir, f"{entry.hash_hex}.seg")
        result["segments_checked"] += 1
        try:
            size = os.path.getsize(segment)
        except OSError:
            issue("corrupt", f"key {key!r}", "segment file missing")
            continue
        if size != entry.length:
            issue(
                "corrupt", f"key {key!r}",
                f"segment length {size} != journaled {entry.length}",
            )
            continue
        if deep:
            with open(segment, "rb") as handle:
                payload = handle.read()
            if crc32(payload) != entry.crc:
                issue(
                    "corrupt", f"key {key!r}",
                    "segment checksum mismatch (deep)",
                )
    return result
