"""Compressed model checkpoints: whole state dicts through LLM.265.

The paper's weight-compression result (Section 4.1) as a storage
format: every 2-D weight is video-coded at a fractional bit budget,
1-D parameters (norms, biases -- a tiny fraction) stay FP32 verbatim.
A 16-bit checkpoint shrinks ~5.5x at 2.9 bits/value.

The on-disk format is a flat, non-executable binary table (version 2
replaced the original pickle payload -- loading a checkpoint must
never run code):

    magic "LVCK" | version u8 | count u32
    per entry, ``count`` times:
      name_len u16 | name utf-8
      kind u8 (0 = LLM.265 container, 1 = raw ndarray)
      payload_len u32 | payload_crc u32 (CRC32 of payload)
      payload bytes

Raw-ndarray payloads are themselves self-describing:

    dtype_len u8 | dtype ascii | ndim u8 | dims u32[ndim] | C-order bytes

Writes are crash-safe (temp file + ``os.replace``), and every entry
carries its own CRC32 so :func:`load_checkpoint_with_report` can skip
exactly the damaged tensors instead of losing the whole file.
"""

from __future__ import annotations

import itertools
import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.resilience.errors import (
    ChecksumError,
    CorruptStreamError,
    TruncatedStreamError,
)
from repro.parallel import ParallelConfig
from repro.resilience.framing import crc32
from repro.tensor.codec import CompressedTensor, TensorCodec

_MAGIC = b"LVCK"
_VERSION = 2
_KIND_LV265 = 0
_KIND_RAW = 1
_ENTRY_HEADER = struct.Struct("<BII")  # kind, payload_len, payload_crc


@dataclass
class CheckpointStats:
    """Size accounting for one saved checkpoint."""

    compressed_bytes: int
    raw_fp16_bytes: int
    num_compressed_tensors: int
    num_raw_tensors: int

    @property
    def compression_ratio(self) -> float:
        return self.raw_fp16_bytes / max(1, self.compressed_bytes)


@dataclass
class CheckpointLoadReport:
    """What a tolerant load recovered and what it had to skip."""

    total_entries: int = 0
    loaded: List[str] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)  # (name, reason)

    @property
    def clean(self) -> bool:
        return not self.skipped

    def summary(self) -> str:
        if self.clean:
            return f"all {self.total_entries} tensors loaded"
        details = ", ".join(f"{name} ({reason})" for name, reason in self.skipped)
        return (
            f"{len(self.loaded)}/{self.total_entries} tensors loaded; "
            f"skipped: {details}"
        )


def _pack_raw(tensor: np.ndarray) -> bytes:
    tensor = np.ascontiguousarray(tensor)
    dtype = tensor.dtype.str.encode("ascii")
    if len(dtype) > 255 or tensor.ndim > 255:
        raise ValueError(f"tensor not serializable: dtype={dtype!r} ndim={tensor.ndim}")
    header = struct.pack("<B", len(dtype)) + dtype + struct.pack("<B", tensor.ndim)
    dims = struct.pack(f"<{tensor.ndim}I", *tensor.shape) if tensor.ndim else b""
    return header + dims + tensor.tobytes()


def _unpack_raw(payload: bytes) -> np.ndarray:
    try:
        dtype_len = payload[0]
        dtype = np.dtype(payload[1 : 1 + dtype_len].decode("ascii"))
        if dtype.hasobject:
            raise CorruptStreamError("checkpoint entry with object dtype")
        offset = 1 + dtype_len
        ndim = payload[offset]
        offset += 1
        shape = struct.unpack_from(f"<{ndim}I", payload, offset) if ndim else ()
        offset += 4 * ndim
        count = 1
        for dim in shape:
            count *= dim
        data = payload[offset : offset + count * dtype.itemsize]
        if len(data) < count * dtype.itemsize:
            raise TruncatedStreamError("truncated raw tensor payload")
        return np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    except (IndexError, struct.error, TypeError) as exc:
        raise CorruptStreamError(f"corrupt raw tensor payload: {exc}") from None


_tmp_counter = itertools.count()


def _atomic_write(path: str, blob: bytes) -> None:
    """Crash-safe write: the path either keeps its old content or gets
    the complete new one, never a partial file.

    The temp name is unique per (process, thread, write), not just per
    process: two threads racing ``save()`` on the same path must each
    stage a complete private file, so whichever ``os.replace`` lands
    last wins wholesale -- the survivor is always one writer's intact
    checkpoint, never an interleaving of both.
    """
    tmp = (
        f"{path}.tmp.{os.getpid()}.{threading.get_ident()}.{next(_tmp_counter)}"
    )
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def save_checkpoint(
    state: Dict[str, np.ndarray],
    path: str,
    bits_per_value: float = 2.9,
    codec: Optional[TensorCodec] = None,
    min_compress_size: int = 256,
    parallel: Optional[ParallelConfig] = None,
) -> CheckpointStats:
    """Write ``state`` to ``path`` with LLM.265-compressed weights.

    Tensors with >= 2 dims and at least ``min_compress_size`` elements
    go through the codec; everything else is stored raw (FP32).

    ``parallel`` (ignored when an explicit ``codec`` is passed) enables
    slice-parallel tile encoding inside the default codec; the written
    bytes are identical to a serial save.
    """
    codec = codec or TensorCodec(tile=128, parallel=parallel)
    num_compressed = 0
    num_raw = 0
    parts: List[bytes] = []
    for name, tensor in state.items():
        tensor = np.asarray(tensor)
        if tensor.ndim >= 2 and tensor.size >= min_compress_size:
            kind = _KIND_LV265
            payload = codec.encode(tensor, bits_per_value=bits_per_value).to_bytes()
            num_compressed += 1
        else:
            kind = _KIND_RAW
            payload = _pack_raw(tensor.astype(np.float32))
            num_raw += 1
        encoded_name = name.encode("utf-8")
        if len(encoded_name) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        parts.append(struct.pack("<H", len(encoded_name)))
        parts.append(encoded_name)
        parts.append(_ENTRY_HEADER.pack(kind, len(payload), crc32(payload)))
        parts.append(payload)

    blob = b"".join(
        [_MAGIC, struct.pack("<BI", _VERSION, len(state))] + parts
    )
    _atomic_write(path, blob)

    raw_fp16 = sum(np.asarray(t).size * 2 for t in state.values())
    return CheckpointStats(
        compressed_bytes=len(blob),
        raw_fp16_bytes=raw_fp16,
        num_compressed_tensors=num_compressed,
        num_raw_tensors=num_raw,
    )


def _iter_entries(blob: bytes):
    """Yield ``(name, kind, payload, crc_ok)`` for each entry.

    Structural damage (truncation inside headers) raises
    :class:`TruncatedStreamError`; payload damage is reported via
    ``crc_ok`` so callers choose strict or tolerant handling.
    """
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CorruptStreamError("not an LLM.265 checkpoint")
    try:
        version, count = struct.unpack_from("<BI", blob, len(_MAGIC))
    except struct.error:
        raise TruncatedStreamError("checkpoint shorter than its header") from None
    if version != _VERSION:
        raise CorruptStreamError(f"unsupported checkpoint version {version}")
    offset = len(_MAGIC) + struct.calcsize("<BI")
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8", "replace")
            if len(blob) - offset < name_len:
                raise TruncatedStreamError("truncated checkpoint entry name")
            offset += name_len
            kind, payload_len, payload_crc = _ENTRY_HEADER.unpack_from(blob, offset)
            offset += _ENTRY_HEADER.size
        except struct.error:
            raise TruncatedStreamError("truncated checkpoint entry header") from None
        payload = blob[offset : offset + payload_len]
        if len(payload) < payload_len:
            raise TruncatedStreamError(f"truncated payload for entry {name!r}")
        offset += payload_len
        yield name, kind, payload, crc32(payload) == payload_crc


def _decode_entry(
    name: str, kind: int, payload: bytes, codec: TensorCodec
) -> np.ndarray:
    if kind == _KIND_LV265:
        return codec.decode(CompressedTensor.from_bytes(payload))
    if kind == _KIND_RAW:
        return np.asarray(_unpack_raw(payload), dtype=np.float64)
    raise CorruptStreamError(f"unknown entry kind {kind} for {name!r}")


def load_checkpoint(
    path: str,
    codec: Optional[TensorCodec] = None,
    parallel: Optional[ParallelConfig] = None,
) -> Dict[str, np.ndarray]:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Strict: any damaged entry raises :class:`CorruptStreamError`.  Use
    :func:`load_checkpoint_with_report` to salvage the intact tensors
    from a damaged file.  ``parallel`` (ignored when an explicit
    ``codec`` is passed) selects slice-parallel tile decoding.
    """
    codec = codec or TensorCodec(tile=128, parallel=parallel)
    with open(path, "rb") as handle:
        blob = handle.read()
    state: Dict[str, np.ndarray] = {}
    for name, kind, payload, crc_ok in _iter_entries(blob):
        if not crc_ok:
            raise ChecksumError(f"checkpoint entry {name!r}: checksum mismatch")
        state[name] = _decode_entry(name, kind, payload, codec)
    return state


def load_checkpoint_with_report(
    path: str,
    codec: Optional[TensorCodec] = None,
) -> Tuple[Dict[str, np.ndarray], CheckpointLoadReport]:
    """Tolerant load: skip damaged entries, report what was lost.

    Structural damage to the file header still raises -- there is
    nothing to salvage without the entry table.
    """
    codec = codec or TensorCodec(tile=128)
    with open(path, "rb") as handle:
        blob = handle.read()
    report = CheckpointLoadReport()
    state: Dict[str, np.ndarray] = {}
    try:
        for name, kind, payload, crc_ok in _iter_entries(blob):
            report.total_entries += 1
            if not crc_ok:
                report.skipped.append((name, "checksum mismatch"))
                continue
            try:
                state[name] = _decode_entry(name, kind, payload, codec)
            except CorruptStreamError as exc:
                report.skipped.append((name, str(exc)))
                continue
            report.loaded.append(name)
    except TruncatedStreamError as exc:
        # Entries past the truncation point are unrecoverable; keep
        # what decoded cleanly and record the cut.
        report.skipped.append(("<rest of file>", str(exc)))
    return state, report
