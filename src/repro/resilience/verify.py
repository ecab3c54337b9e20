"""Integrity checks behind ``llm265 verify``.

Dispatches on the file's magic bytes -- ``L5`` tensor container,
``LV65`` raw frame stream, ``LVCK`` checkpoint -- and walks every
CRC32-protected region without decoding anything (fast).  ``deep=True``
additionally runs the real decoder in strict mode, which catches
damage a checksum cannot see (e.g. a stream that was *written* wrong).

Imports of the codec stack live inside functions: this module is
reachable from :mod:`repro.resilience` (via the lazy ``verify_path``
wrapper), which the codec stack itself imports for its error types.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.resilience.errors import CorruptStreamError
from repro.resilience.framing import SLICE_OVERHEAD, deframe_slices

__all__ = ["VerifyIssue", "VerifyReport", "verify_path", "verify_bytes"]


@dataclass
class VerifyIssue:
    """One problem found while verifying a file."""

    location: str  # e.g. "slice 3", "entry 'blocks.0.w'", "header"
    reason: str
    #: ``"corrupt"`` -- data is lost or falsified; ``"torn"`` -- an
    #: interrupted append that crash recovery would cleanly truncate
    #: (store journals only).  The CLI maps these to distinct exit codes.
    category: str = "corrupt"

    def __str__(self) -> str:
        tag = f" [{self.category}]" if self.category != "corrupt" else ""
        return f"{self.location}: {self.reason}{tag}"


@dataclass
class VerifyReport:
    """Outcome of one integrity check."""

    path: str
    kind: str  # "container" | "stream" | "checkpoint" | "store" | "unknown"
    checked: int = 0  # CRC-protected regions inspected
    issues: List[VerifyIssue] = field(default_factory=list)
    deep: bool = False

    @property
    def ok(self) -> bool:
        return not self.issues

    @property
    def torn_only(self) -> bool:
        """Every issue is a recoverable torn tail (no data corruption)."""
        return bool(self.issues) and all(
            issue.category == "torn" for issue in self.issues
        )

    def add(self, location: str, reason: str, category: str = "corrupt") -> None:
        self.issues.append(VerifyIssue(location, reason, category))

    def summary(self) -> str:
        mode = "deep" if self.deep else "fast"
        if self.ok:
            return (
                f"{self.path}: OK ({self.kind}, {self.checked} regions "
                f"verified, {mode} check)"
            )
        verdict = "TORN" if self.torn_only else "DAMAGED"
        lines = [
            f"{self.path}: {verdict} ({self.kind}, {len(self.issues)} issue(s), "
            f"{mode} check)"
        ]
        lines.extend(f"  - {issue}" for issue in self.issues)
        return "\n".join(lines)


def _verify_stream(raw: bytes, report: VerifyReport, deep: bool) -> None:
    """Raw ``LV65`` frame bitstream: header + per-frame slice CRCs."""
    from repro.codec.decoder import FrameDecoder
    from repro.codec.encoder import _HEADER_SIZE, unpack_header

    report.kind = "stream"
    try:
        header = unpack_header(raw)
    except CorruptStreamError as exc:
        report.add("header", str(exc))
        return
    report.checked += 1
    _, damage = deframe_slices(
        raw[_HEADER_SIZE:], expected=header["n_frames"], strict=False
    )
    report.checked += header["n_frames"]
    for index, reason in damage:
        report.add(f"slice {index}", reason)
    if deep and report.ok:
        report.deep = True
        try:
            FrameDecoder(raw, conceal=False).decode()
        except CorruptStreamError as exc:
            report.add("decode", str(exc))


def _verify_container(raw: bytes, report: VerifyReport, deep: bool) -> None:
    """``L5`` tensor container: metadata CRC, then the inner stream."""
    from repro.tensor.codec import CompressedTensor, TensorCodec

    report.kind = "container"
    try:
        compressed = CompressedTensor.from_bytes(raw)
    except CorruptStreamError as exc:
        report.add("metadata", str(exc))
        return
    report.checked += 1  # metadata CRC verified by from_bytes
    inner = VerifyReport(path=report.path, kind="stream")
    _verify_stream(compressed.data, inner, deep=False)
    report.checked += inner.checked
    report.issues.extend(inner.issues)
    if deep and report.ok:
        report.deep = True
        try:
            TensorCodec(
                tile=compressed.layout.tile
            ).decode(compressed)
        except CorruptStreamError as exc:
            report.add("decode", str(exc))


def _verify_checkpoint(raw: bytes, report: VerifyReport, deep: bool) -> None:
    """``LVCK`` checkpoint: per-entry CRCs, then per-entry payloads."""
    from repro.tensor.checkpoint import _KIND_LV265, _iter_entries
    from repro.tensor.codec import CompressedTensor

    report.kind = "checkpoint"
    try:
        for name, kind, payload, crc_ok in _iter_entries(raw):
            report.checked += 1
            if not crc_ok:
                report.add(f"entry {name!r}", "checksum mismatch")
            elif deep and kind == _KIND_LV265:
                report.deep = True
                try:
                    CompressedTensor.from_bytes(payload)
                except CorruptStreamError as exc:
                    report.add(f"entry {name!r}", str(exc))
    except CorruptStreamError as exc:
        report.add("structure", str(exc))


def verify_bytes(raw: bytes, path: str = "<bytes>", deep: bool = False) -> VerifyReport:
    """Verify in-memory bytes of any LLM.265 format."""
    report = VerifyReport(path=path, kind="unknown")
    if raw[:4] == b"LVCK":
        _verify_checkpoint(raw, report, deep)
    elif raw[:4] == b"LV65":
        _verify_stream(raw, report, deep)
    elif raw[:2] == b"L5":
        _verify_container(raw, report, deep)
    else:
        report.add(
            "header",
            f"unrecognized magic {raw[:4]!r} (expected L5 / LV65 / LVCK)",
        )
    return report


def _verify_store_dir(path: str, deep: bool) -> VerifyReport:
    """A shard store directory: every record of its ``journal.log``.

    Read-only -- unlike the store's own recovery this truncates and
    quarantines nothing.  A torn tail is reported with category
    ``"torn"`` (recovery would fix it losing only the unacknowledged
    write); everything else is ``"corrupt"``.  ``deep`` re-reads every
    payload against its CRC; the fast scan checks headers, the final
    record's payload and the store's own quarantine marks.
    """
    from repro.cluster.store import scan_store

    report = VerifyReport(path=str(path), kind="store", deep=deep)
    scan = scan_store(path, deep=deep)
    report.checked = scan["journal_records"] + scan["payloads_checked"]
    for category, location, reason in scan["issues"]:
        report.add(location, reason, category=category)
    return report


def verify_path(path: str, deep: bool = False) -> VerifyReport:
    """Verify a file (any LLM.265 format) or a store directory on disk.

    Never raises on damaged *content*; a directory is dispatched to the
    shard-store scanner (its ``journal.log`` holds headers and payloads).
    """
    import os

    if os.path.isdir(path):
        return _verify_store_dir(path, deep)
    with open(path, "rb") as handle:
        raw = handle.read()
    return verify_bytes(raw, path=str(path), deep=deep)
