"""The LLM.265 tensor codec: public encode/decode API.

Pipeline (Section 3.2 of the paper):

1. view the tensor as 2-D and cut it into frame tiles (NVENC frame
   dimension limits),
2. min-max quantize each tile to 8-bit Luma samples,
3. run the intra-only video encoder over the tile sequence,
4. on decode, reverse every step bit-exactly.

Rate control supports three mutually exclusive targets: a raw ``qp``,
a fractional ``bits_per_value`` budget, or a tensor-domain
``target_mse``.  A target is a QP search over the same frames, and the
search holds pass 1's analysis of them from its first probe to its last
(:class:`repro.codec.pass1.HeldAnalysis`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec.decoder import FrameDecoder
from repro.codec.encoder import ENCODES, EncoderConfig, FrameEncoder
from repro.codec.pass1 import HeldAnalysis
from repro.codec.profiles import H265_PROFILE, CodecProfile
from repro.codec.quantizer import check_qp
from repro.codec.ratecontrol import rate_law_qp, solve_qp
from repro.parallel import ParallelConfig
from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    ChecksumError,
    ConcealmentReport,
    CorruptStreamError,
    TruncatedStreamError,
)
from repro.resilience.framing import SLICE_OVERHEAD, crc32
from repro.tensor.alignment import MXAlignment, mx_align, mx_from_side_info, mx_unalign
from repro.tensor.frames import TileLayout, join_tiles, split_tiles
from repro.tensor.precision import QuantizationGrid, grid_for

_DEFAULT_TILE = 256

# -- container format -----------------------------------------------------
#
# ``to_bytes`` writes a compact binary container (it used to pickle the
# metadata, which made the *actual* serialized size several hundred
# bytes larger than the ``nbytes`` accounting claimed).  The format is
# deliberately minimal: everything derivable from the tensor shape and
# tile edge (2-D view dimensions, frame shape, tile count) is derived,
# not stored, and ``nbytes`` reports the exact serialized size.
#
#   magic "L5" | version u8 | flags u8 (bit0 = budget_met) | qp f32
#   tile u16 | ndim u8 | dims u32[ndim]
#   dtype  u8 code (255 = escape: u8 length + utf-8 name)
#   profile u8 code (255 = escape: u8 length + utf-8 name)
#   per tile, in raster order:
#     tag u8 = 0 (minmax): scale f64 | offset f64
#     tag u8 = 1 (mx):     original_size u32 | side_len u32 | side bytes
#   payload_len u32 | meta_crc u32 (CRC32 of all preceding bytes)
#   payload bytes (the video bitstream, itself CRC-sliced per frame)
#
# Version 3 added the trailing ``payload_len``/``meta_crc`` pair: the
# metadata is the one region concealment cannot patch (a wrong grid
# silently destroys every value), so it fails loudly via its own CRC,
# while payload damage is localised by the per-frame slice checksums.

_MAGIC = b"L5"
_CONTAINER_VERSION = 3
_DTYPE_CODES = {
    "float16": 1,
    "float32": 2,
    "float64": 3,
    "int8": 4,
    "uint8": 5,
    "int16": 6,
    "int32": 7,
    "int64": 8,
}
_DTYPE_NAMES = {code: name for name, code in _DTYPE_CODES.items()}
_PROFILE_CODES = {"h264": 1, "h265": 2, "av1": 3}
_PROFILE_NAMES = {code: name for name, code in _PROFILE_CODES.items()}
_ESCAPE = 0xFF
_GRID_MINMAX = 0
_GRID_MX = 1


def _pack_name(name: str, codes: dict) -> bytes:
    code = codes.get(name)
    if code is not None:
        return struct.pack("<B", code)
    raw = name.encode("utf-8")
    if len(raw) > 255:
        raise ValueError(f"name too long to serialize: {name!r}")
    return struct.pack("<BB", _ESCAPE, len(raw)) + raw


def _unpack_name(raw: bytes, offset: int, names: dict) -> Tuple[str, int]:
    code = raw[offset]
    if code != _ESCAPE:
        try:
            return names[code], offset + 1
        except KeyError:
            raise CorruptStreamError(f"unknown name code {code}") from None
    length = raw[offset + 1]
    start = offset + 2
    return raw[start : start + length].decode("utf-8"), start + length


def _stream_fixed_bits(n_frames: int) -> float:
    """QP-independent bits inside the frame stream itself.

    The 21-byte checksummed header plus the 8-byte length+CRC framing
    of each frame slice; rate control uses this (plus the container
    metadata size) to recognise budgets that only fixed overhead, not
    coding quality, can blow.
    """
    from repro.codec.encoder import _HEADER_SIZE

    return 8.0 * (_HEADER_SIZE + SLICE_OVERHEAD * n_frames)


def _rows_cols(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """2-D view dimensions, mirroring :func:`repro.tensor.frames.as_2d`."""
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return 1, shape[0]
    rows = 1
    for dim in shape[:-1]:
        rows *= dim
    return rows, shape[-1]


@dataclass
class CompressedTensor:
    """A tensor in compressed form, self-contained for decoding."""

    data: bytes
    layout: TileLayout
    grids: Tuple[QuantizationGrid, ...]
    frame_shape: Tuple[int, int]
    dtype: str
    profile_name: str
    qp: float
    #: False when a bits_per_value budget could not be met because the
    #: container overhead exceeds it (tiny tensors); the codec then
    #: returns its *finest* encode rather than silently destroying data.
    budget_met: bool = True
    #: Per-stream instrumentation of the final encode (bits per syntax
    #: element class, stage timings); populated only while telemetry is
    #: enabled.  Never serialized and excluded from equality.
    encode_stats: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def num_values(self) -> int:
        return int(np.prod(self.layout.shape)) if self.layout.shape else 1

    @property
    def nbytes(self) -> int:
        """Exact serialized size: ``len(to_bytes())`` without building it all."""
        return len(self._pack_meta()) + len(self.data)

    @property
    def bits_per_value(self) -> float:
        return 8.0 * self.nbytes / max(1, self.num_values)

    @property
    def compression_ratio(self) -> float:
        """Ratio versus the FP16 representation the paper baselines on."""
        return 16.0 / self.bits_per_value

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"CompressedTensor(shape={self.layout.shape}, dtype={self.dtype}, "
            f"codec={self.profile_name}, qp={self.qp:.2f}, "
            f"{self.nbytes} bytes, {self.bits_per_value:.2f} bits/value, "
            f"{self.compression_ratio:.1f}x vs FP16, "
            f"budget_met={self.budget_met})"
        )

    def __repr__(self) -> str:
        return self.summary()

    # -- serialization -------------------------------------------------

    def _pack_meta(self) -> bytes:
        shape = self.layout.shape
        if not 0 < self.layout.tile <= 0xFFFF:
            raise ValueError(f"tile edge {self.layout.tile} out of range")
        if len(shape) > 255 or any(dim > 0xFFFFFFFF for dim in shape):
            raise ValueError(f"shape {shape} not serializable")
        parts = [
            _MAGIC,
            struct.pack(
                "<BBfHB",
                _CONTAINER_VERSION,
                1 if self.budget_met else 0,
                float(self.qp),
                self.layout.tile,
                len(shape),
            ),
            struct.pack(f"<{len(shape)}I", *shape) if shape else b"",
            _pack_name(self.dtype, _DTYPE_CODES),
            _pack_name(self.profile_name, _PROFILE_CODES),
        ]
        for grid in self.grids:
            if isinstance(grid, MXAlignment):
                parts.append(
                    struct.pack(
                        "<BII", _GRID_MX, grid.original_size, len(grid.side_info)
                    )
                )
                parts.append(grid.side_info)
            else:
                parts.append(
                    struct.pack("<Bdd", _GRID_MINMAX, grid.scale, grid.offset)
                )
        parts.append(struct.pack("<I", len(self.data)))
        meta = b"".join(parts)
        return meta + struct.pack("<I", crc32(meta))

    def to_bytes(self) -> bytes:
        """Serialize to a portable byte string (compact binary, no pickle)."""
        return self._pack_meta() + self.data

    @classmethod
    def from_bytes(cls, raw: bytes, strict: bool = True) -> "CompressedTensor":
        """Inverse of :meth:`to_bytes`.

        Raises :class:`CorruptStreamError` (a ``ValueError``) on any
        damage to the metadata: bad magic, version, checksum, or
        truncation.  ``strict=False`` tolerates a payload whose length
        disagrees with the header (the per-slice checksums localise
        that damage during a concealment-mode decode); the metadata
        itself must always verify -- a wrong quantization grid cannot
        be concealed.
        """
        if raw[: len(_MAGIC)] != _MAGIC:
            raise CorruptStreamError("not an LLM.265 tensor container")
        try:
            return cls._parse(raw, strict)
        except (struct.error, IndexError):
            raise TruncatedStreamError("truncated LLM.265 tensor container") from None

    @classmethod
    def _parse(cls, raw: bytes, strict: bool) -> "CompressedTensor":
        offset = len(_MAGIC)
        version, flags, qp, tile, ndim = struct.unpack_from("<BBfHB", raw, offset)
        if version != _CONTAINER_VERSION:
            raise CorruptStreamError(f"unsupported container version {version}")
        offset += struct.calcsize("<BBfHB")
        shape = struct.unpack_from(f"<{ndim}I", raw, offset) if ndim else ()
        offset += 4 * ndim
        dtype, offset = _unpack_name(raw, offset, _DTYPE_NAMES)
        profile_name, offset = _unpack_name(raw, offset, _PROFILE_NAMES)

        rows, cols = _rows_cols(shape)
        layout = TileLayout(shape=tuple(shape), rows=rows, cols=cols, tile=tile)
        frame_shape = (min(tile, rows), min(tile, cols))

        grids: List = []
        for _ in range(layout.num_tiles):
            tag = raw[offset]
            offset += 1
            if tag == _GRID_MINMAX:
                scale, grid_offset = struct.unpack_from("<dd", raw, offset)
                offset += 16
                grids.append(QuantizationGrid(scale=scale, offset=grid_offset))
            elif tag == _GRID_MX:
                original_size, side_len = struct.unpack_from("<II", raw, offset)
                offset += 8
                side_info = raw[offset : offset + side_len]
                if len(side_info) < side_len:
                    raise TruncatedStreamError("truncated MX side info")
                offset += side_len
                grids.append(mx_from_side_info(side_info, original_size))
            else:
                raise CorruptStreamError(f"unknown grid tag {tag}")

        (payload_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        (stored_crc,) = struct.unpack_from("<I", raw, offset)
        actual_crc = crc32(raw[:offset])
        offset += 4
        if actual_crc != stored_crc:
            raise ChecksumError(
                "container metadata checksum mismatch",
                expected=stored_crc,
                actual=actual_crc,
            )
        data = raw[offset:]
        if strict and len(data) != payload_len:
            raise TruncatedStreamError(
                f"container payload length mismatch: header says {payload_len} "
                f"bytes, found {len(data)}"
            )
        return cls(
            data=data,
            layout=layout,
            grids=tuple(grids),
            frame_shape=frame_shape,
            dtype=dtype,
            profile_name=profile_name,
            qp=qp,
            budget_met=bool(flags & 1),
        )


class TensorCodec:
    """Video-codec-backed tensor compressor (the LLM.265 system).

    Parameters
    ----------
    profile:
        Codec toolset (H.264 / H.265 / AV1).  Defaults to H.265 as the
        paper does (Section 4.1.1).
    tile:
        Maximum frame edge; larger tensors become multiple frames, each
        intra-coded: the paper shows inter prediction *hurts* tensors
        (Figure 2(b) step 6).
    alignment:
        How floats map to 8-bit samples: ``"minmax"`` (one affine per
        frame, the paper's default) or ``"mx"`` (per-32-block shared
        exponents via the three-in-one alignment unit, Section 7 --
        robust to extreme outliers at ~0.25 bits/value side info).
    parallel:
        Optional :class:`~repro.parallel.ParallelConfig` enabling
        slice-parallel encode and decode over tiles.  Bitstreams and
        reconstructions are bit-identical to serial operation (slices
        are independently codable); ``None`` keeps everything serial.
    encode:
        Costing/coding backend forwarded to the frame encoder:
        ``"native"`` (default) uses the compiled kernels when
        available, ``"python"`` pins their pure-Python twin.
        Bitstreams are byte-identical either way; stored as
        :attr:`encode_mode` (``encode`` the method keeps its name).
    """

    #: The mode search every encode runs: the two-pass search, the only
    #: one production has.  A read-only name that nothing branches on.
    rd_search = "turbo"

    def __init__(
        self,
        profile: CodecProfile = H265_PROFILE,
        tile: int = _DEFAULT_TILE,
        qp_search_precision: float = 0.25,
        alignment: str = "minmax",
        parallel: Optional[ParallelConfig] = None,
        encode: str = "native",
    ) -> None:
        if alignment not in ("minmax", "mx"):
            raise ValueError("alignment must be 'minmax' or 'mx'")
        if encode not in ENCODES:
            raise ValueError(f"encode must be one of {ENCODES}, got {encode!r}")
        self.profile = profile
        self.tile = tile
        self.qp_search_precision = qp_search_precision
        self.alignment = alignment
        self.parallel = parallel
        self.encode_mode = encode

    # -- encoding --------------------------------------------------------

    def encode(
        self,
        tensor: np.ndarray,
        qp: Optional[float] = None,
        bits_per_value: Optional[float] = None,
        target_mse: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> CompressedTensor:
        """Compress ``tensor`` under exactly one rate/quality target.

        A ``qp`` must be finite and within ``[MIN_QP, MAX_QP]`` (0 and 51)
        of :mod:`repro.codec.quantizer`, else ``ValueError``.
        ``deadline`` is a cooperative time budget checked between
        rate-control iterations and at every frame boundary inside the
        encoder; when it expires the encode raises
        :class:`~repro.resilience.errors.DeadlineExceeded` cleanly (no
        partial container is ever returned).
        """
        chosen = [t is not None for t in (qp, bits_per_value, target_mse)]
        if sum(chosen) == 0:
            qp = 24.0
        elif sum(chosen) > 1:
            raise ValueError("pass only one of qp / bits_per_value / target_mse")
        elif qp is not None:
            check_qp(qp)

        tensor = np.asarray(tensor)
        with telemetry.span("tensor.encode"):
            telemetry.count("tensor.encodes")
            if deadline is not None:
                deadline.check("tensor.encode")
            frames, grids, layout, frame_shape = self._to_frames(tensor)

            if qp is not None:
                compressed = self._encode_at(
                    frames, grids, layout, frame_shape, tensor, qp, deadline
                )
            elif bits_per_value is not None:
                compressed = self._search_bitrate(
                    frames, grids, layout, frame_shape, tensor, bits_per_value,
                    deadline,
                )
            else:
                compressed = self._search_mse(
                    frames, grids, layout, frame_shape, tensor, target_mse,
                    deadline,
                )
        return compressed

    def decode(
        self,
        compressed: CompressedTensor,
        conceal: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> np.ndarray:
        """Reconstruct the tensor from its compressed form.

        With ``conceal=True`` damaged frame slices are patched (zero /
        neighbor prediction) instead of failing; use
        :meth:`decode_with_report` to learn *which* tiles were patched.
        """
        tensor, _ = self.decode_with_report(
            compressed, conceal=conceal, deadline=deadline
        )
        return tensor

    def decode_with_report(
        self,
        compressed: CompressedTensor,
        conceal: bool = True,
        deadline: Optional[Deadline] = None,
    ) -> Tuple[np.ndarray, ConcealmentReport]:
        """Like :meth:`decode` but also returns the concealment report.

        Each concealed slice index is a tile index in raster order, so
        the report pinpoints exactly which region of the tensor carries
        predicted rather than decoded values.
        """
        with telemetry.span("tensor.decode"):
            decoder = FrameDecoder(
                compressed.data,
                conceal=conceal,
                parallel=self.parallel,
                deadline=deadline,
            )
            decoded_frames = decoder.decode()
            tiles: List[np.ndarray] = []
            for index, frame in enumerate(decoded_frames):
                y0, x0, h, w = compressed.layout.tile_box(index)
                grid = compressed.grids[index]
                cropped = frame[:h, :w]
                if isinstance(grid, MXAlignment):
                    tiles.append(mx_unalign(cropped.reshape(-1), grid, (h, w)))
                else:
                    tiles.append(grid.to_values(cropped))
            restored = join_tiles(tiles, compressed.layout)
        return restored.astype(compressed.dtype, copy=False), decoder.report

    def roundtrip(
        self, tensor: np.ndarray, **targets
    ) -> Tuple[np.ndarray, CompressedTensor]:
        """Encode then decode; returns (restored, compressed)."""
        compressed = self.encode(tensor, **targets)
        return self.decode(compressed), compressed

    # -- internals ---------------------------------------------------------

    def _encoder_config(
        self, qp: float, deadline: Optional[Deadline] = None
    ) -> EncoderConfig:
        return EncoderConfig(
            profile=self.profile,
            qp=qp,
            parallel=self.parallel,
            encode=self.encode_mode,
            deadline=deadline,
        )

    def _to_frames(self, tensor: np.ndarray):
        with telemetry.span("tensor.to_frames"):
            tiles, layout = split_tiles(tensor, self.tile)
            telemetry.count("tensor.tiles", len(tiles))
            frame_h = min(self.tile, layout.rows)
            frame_w = min(self.tile, layout.cols)
            frames: List[np.ndarray] = []
            grids: List = []
            for piece in tiles:
                values = piece.astype(np.float64)
                if self.alignment == "mx":
                    flat_codes, grid = mx_align(values.reshape(-1))
                    codes = flat_codes.reshape(values.shape)
                else:
                    grid = grid_for(values)
                    codes = grid.to_codes(values)
                pad_h = frame_h - codes.shape[0]
                pad_w = frame_w - codes.shape[1]
                if pad_h or pad_w:
                    codes = np.pad(codes, ((0, pad_h), (0, pad_w)), mode="edge")
                frames.append(codes)
                grids.append(grid)
        return frames, tuple(grids), layout, (frame_h, frame_w)

    def _encode_at(
        self, frames, grids, layout, frame_shape, tensor, qp: float,
        deadline: Optional[Deadline] = None,
        held: Optional[HeldAnalysis] = None,
    ) -> CompressedTensor:
        """One encoder run at ``qp``; a search passes the pass-1 analysis
        it holds across its probes as ``held``."""
        telemetry.count("tensor.encoder_runs")
        result = FrameEncoder(self._encoder_config(qp, deadline)).encode(frames, held)
        return CompressedTensor(
            data=result.data,
            layout=layout,
            grids=grids,
            frame_shape=frame_shape,
            dtype=str(tensor.dtype),
            profile_name=self.profile.name,
            qp=qp,
            encode_stats=result.stats,
        )

    def _tensor_mse(self, compressed: CompressedTensor, tensor: np.ndarray) -> float:
        restored = self.decode(compressed)
        delta = restored.astype(np.float64) - tensor.astype(np.float64)
        return float(np.mean(delta**2))

    def _search_bitrate(
        self, frames, grids, layout, frame_shape, tensor, budget: float,
        deadline: Optional[Deadline] = None,
    ) -> CompressedTensor:
        """Smallest QP whose total rate (payload + metadata) fits the budget.

        For tensors so small that the fixed container overhead alone
        exceeds the budget, no QP can help -- returning the coarsest
        (data-destroying) encode would be perverse, so the codec
        returns its *finest* encode with ``budget_met = False``.  The
        absolute overshoot is a few dozen bytes by construction.
        (:func:`repro.codec.ratecontrol.search_qp_for_bitrate` returns
        the coarsest encode instead: it has frames and a budget, not a
        tensor whose values someone will read back.)

        The same principle applies *before* the budget becomes strictly
        unmeetable: when the QP-independent bytes (container metadata,
        stream header, slice framing) eat more than half the budget,
        any QP that technically fits does so by obliterating the
        payload, not by coding it better.  Such budgets are declared
        unmeetable in spirit and also get the finest-encode fallback.

        Every probe reads the pass-1 analysis the first one made
        (:class:`~repro.codec.pass1.HeldAnalysis`); it goes with the search.
        """
        held = HeldAnalysis()

        def encode_at(qp: float) -> CompressedTensor:
            return self._encode_at(
                frames, grids, layout, frame_shape, tensor, qp, deadline, held
            )

        with telemetry.span("ratecontrol.search_bitrate"):
            # The metadata is the same size at every QP.
            empty = CompressedTensor(
                b"", layout, grids, frame_shape, str(tensor.dtype),
                self.profile.name, 0.0,
            )
            values = max(1, empty.num_values)
            fixed_bits = 8.0 * empty.nbytes + _stream_fixed_bits(layout.num_tiles)
            met = not fixed_bits > 0.5 * budget * values
            if met:
                _, best, met = solve_qp(
                    encode_at,
                    lambda compressed: compressed.bits_per_value,
                    budget,
                    self.qp_search_precision,
                    guess=rate_law_qp(frames, budget - fixed_bits / values),
                    deadline=deadline,
                )
            if not met:
                telemetry.count("ratecontrol.iterations")
                best = encode_at(0.0)
                best.budget_met = False
        return best

    def _search_mse(
        self, frames, grids, layout, frame_shape, tensor, max_mse: float,
        deadline: Optional[Deadline] = None,
    ) -> CompressedTensor:
        """Largest QP whose tensor-domain MSE stays within the budget.

        When even QP 0 misses the target that finest encode is returned,
        best effort.  Probes share one held pass-1 analysis, as in
        :meth:`_search_bitrate`.
        """
        held = HeldAnalysis()
        with telemetry.span("ratecontrol.search_mse"):
            _, best, _ = solve_qp(
                lambda qp: self._encode_at(
                    frames, grids, layout, frame_shape, tensor, qp, deadline, held
                ),
                lambda compressed: self._tensor_mse(compressed, tensor),
                max_mse,
                self.qp_search_precision,
                distortion=True,
                deadline=deadline,
            )
        return best
