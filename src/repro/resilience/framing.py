"""CRC32-checksummed slice framing (the NAL-unit layer of LLM.265).

Video codecs survive bit errors because the bitstream is cut into
independently decodable, individually checksummed units; a damaged unit
is detected on arrival and either reported (strict) or concealed.  This
module is that layer for every byte payload in the system:

- the frame codec writes one slice per frame,
- the tensor container protects its metadata with a trailing CRC.

Wire format of one slice::

    u32 payload length | u32 CRC32(payload) | payload bytes

``SLICE_OVERHEAD`` (8 bytes) is the whole per-slice cost, which is why
the measured framing overhead on a default 256x256 tile is ~0.03%.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, List, Optional, Tuple

from repro.resilience.errors import (
    ChecksumError,
    CorruptStreamError,
    TruncatedStreamError,
)

__all__ = [
    "SLICE_OVERHEAD",
    "crc32",
    "deframe_slices",
    "frame_slices",
]

_SLICE_HEADER = struct.Struct("<II")
SLICE_OVERHEAD = _SLICE_HEADER.size  # bytes added per slice


def crc32(data: bytes) -> int:
    """CRC32 as an unsigned 32-bit value."""
    return zlib.crc32(data) & 0xFFFFFFFF


def frame_slices(slices: Iterable[bytes]) -> bytes:
    """Concatenate ``slices`` into length+CRC framed wire format."""
    parts: List[bytes] = []
    for payload in slices:
        parts.append(_SLICE_HEADER.pack(len(payload), crc32(payload)))
        parts.append(payload)
    return b"".join(parts)


def frame_slice(payload: bytes) -> bytes:
    """Frame a single slice (header + payload)."""
    return _SLICE_HEADER.pack(len(payload), crc32(payload)) + payload


def deframe_slices(
    raw: bytes, expected: Optional[int] = None, strict: bool = True
) -> Tuple[List[Optional[bytes]], List[Tuple[int, str]]]:
    """Parse framed slices back out of ``raw``.

    Returns ``(slices, damage)`` where ``slices[i]`` is the verified
    payload of slice ``i`` or ``None`` if it was damaged, and ``damage``
    lists ``(index, reason)`` pairs.  With ``strict=True`` the first
    damaged slice raises (:class:`ChecksumError` /
    :class:`TruncatedStreamError`); with ``strict=False`` parsing
    continues past damage whenever the slice length field itself is
    intact, which is what concealment mode relies on.

    ``expected`` pins the slice count (from an out-of-band header): the
    result is padded with ``None`` entries for slices lost to
    truncation and trailing garbage beyond ``expected`` is an error.
    """
    slices: List[Optional[bytes]] = []
    damage: List[Tuple[int, str]] = []

    def fail(index: int, reason: str, exc_type=CorruptStreamError, **kw) -> None:
        if strict:
            raise exc_type(f"slice {index}: {reason}", **kw)
        damage.append((index, reason))

    offset = 0
    index = 0
    while offset < len(raw) and (expected is None or index < expected):
        if offset + SLICE_OVERHEAD > len(raw):
            fail(index, "truncated slice header", TruncatedStreamError)
            slices.append(None)
            index += 1
            offset = len(raw)  # partial header consumed, nothing trails
            break  # cannot re-synchronise without a length field
        length, checksum = _SLICE_HEADER.unpack_from(raw, offset)
        offset += SLICE_OVERHEAD
        payload = raw[offset : offset + length]
        if len(payload) < length:
            fail(index, "truncated slice payload", TruncatedStreamError)
            slices.append(None)
            index += 1
            offset = len(raw)
            break
        offset += length
        actual = crc32(payload)
        if actual != checksum:
            fail(
                index,
                "checksum mismatch",
                ChecksumError,
                expected=checksum,
                actual=actual,
            )
            slices.append(None)
        else:
            slices.append(payload)
        index += 1

    if expected is not None:
        if offset < len(raw):
            fail(len(slices), "trailing bytes after final slice")
        while len(slices) < expected:
            fail(len(slices), "slice missing (stream truncated)", TruncatedStreamError)
            slices.append(None)
    return slices, damage

