"""RD-optimised intra frame encoder (two-pass search, quad-tree CUs).

Every frame is an intra slice, coded in two passes, both once per
*group* of consecutive frames (:data:`GROUP_SAMPLES`).  Pass 1
(:mod:`repro.codec.pass1`) costs every (block, size, mode) candidate of
the group at once against *source* references: a QP-independent
analysis (block DCT, reference windows @ the mode operator) that a rate
search holds across its probes (:data:`HELD_ANALYSIS_BYTES`), then the
pick at each CTU's step and Lagrangian.  Pass 2 runs the quadtree DP
over those costs, re-codes only the chosen leaves against the true
reconstruction and writes each slice with the CABAC-style arithmetic
coder -- one C call for the whole group with ``encode="native"``, the
Python twin for any slice it refuses (see
:meth:`FrameEncoder._turbo_pass2`).  This module also owns the stream
format: header, QP dither and slice framing.  The decoder in
:mod:`repro.codec.decoder` replays the same syntax, so reconstructions
are bit-exact on both sides.

``use_partition=False`` (a fixed CU grid) is served here too.  The
other stage ablations of Figure 2(b) -- inter prediction, intra
prediction off, the transform off -- and the exact per-leaf mode search
are :class:`repro.codec.reference.ReferenceEncoder`'s alone;
:class:`FrameEncoder` refuses them.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from time import perf_counter
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec import intra, pass1
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.profiles import H265_PROFILE, CodecProfile
from repro.parallel import ParallelConfig, parallel_map
from repro.resilience.deadline import Deadline
from repro.resilience.errors import (
    ChecksumError,
    CorruptStreamError,
    TruncatedStreamError,
)
from repro.resilience.framing import SLICE_OVERHEAD, crc32, frame_slice
from repro.codec.quantizer import check_qp, qstep, rd_lambda
from repro.codec.syntax import CodecContexts, encode_coeff_block, encode_intra_mode
from repro.codec.transform import (
    SUPPORTED_SIZES,
    dct_matrix,
    forward_dct2_batch,
    inverse_dct2_batch,
    zigzag_order,
)

#: Costing/coding backends: ``"native"`` dispatches pass 1's pick and
#: the whole-group pass 2 to the self-building C kernels
#: (:mod:`repro.codec.entropy.native`) when they are available,
#: falling back transparently to the pure-Python twin otherwise.
#: ``"python"`` pins the twin even with the kernels loaded -- the
#: bit-exactness reference the benchmark identity gates and the
#: differential fuzz suite compare against.
#: Streams are byte-identical between the two by construction and by
#: test (tests/test_encode_fuzz.py, tests/test_native_encode.py).
ENCODES = ("native", "python")

#: Parallel encode dispatch thresholds, mirroring the decoder's.  Below
#: either bound the fan-out overhead (task submission, per-worker
#: encoder construction, result hand-back) costs more than the encode
#: itself, so the encoder silently stays serial.  Encodes must have at
#: least this many frames (= slices) ...
_PARALLEL_MIN_SLICES = 4
#: ... and at least this many raw sample bytes (4 x 128^2 tiles) to fan
#: out.  The values mirror the decoder's pinned thresholds -- same
#: fan-out machinery, same per-task overhead -- rather than a fresh
#: measurement: on single-CPU hosts the ``_effective_cpus() > 1`` guard
#: below makes the thresholds moot (parallel encode can never beat
#: serial there, so the encoder always stays serial), and that guard is
#: what the "parallel never loses to serial" claim leans on.
#: tests/test_native_encode.py pins the constants and the fallback
#: accounting.
_PARALLEL_MIN_BYTES = 1 << 16
#: Pass 1 predicts from source pixels, so it runs once per *group* of
#: consecutive frames: as many as fit in this many padded samples, at
#: least one.  That is one 256 x 256 slice, the largest candidate tensor
#: pass 1 ever allocated, so peak memory keeps its bound while a KV
#: page's four one-CTU slices share one DCT, GEMM and pick call per size
#: and one pass-2 kernel call.  Groups depend on the frame list only,
#: never on the worker count.  The decoder groups slices by the same
#: bound (its two stages run once per group), so the name is neither
#: side's.
GROUP_SAMPLES = 1 << 16
#: Bytes of pass-1 analysis a rate search may hold across its probes
#: (:class:`repro.codec.pass1.HeldAnalysis`): one full 256 x 256 H.265
#: group -- 3 CU sizes x (1 + 11 candidates) x 65 536 float64.  Groups
#: past it are analysed again by every probe.
HELD_ANALYSIS_BYTES = 18 << 20


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _transform_tables(sizes: Tuple[int, ...]) -> tuple:
    """``(dct_matrix, zigzag_order)`` per size class, ``None`` where unused.

    The slice-encode kernel takes its basis and scan tables from here,
    so kernel and twin transform with the very same doubles.
    """
    return tuple(
        (dct_matrix(n), zigzag_order(n)) if n in sizes else None
        for n in SUPPORTED_SIZES
    )


#: Quantizer step and Lagrangian of every QP a stream header can name,
#: the doubles :func:`qstep` / :func:`rd_lambda` return.
_QSTEPS = np.array([qstep(qp) for qp in range(256)], dtype=np.float64)
_LAMBDAS = np.array([rd_lambda(qp) for qp in range(256)], dtype=np.float64)


def _kernel_ledger(
    stats: telemetry.EncodeStats,
    qp: np.ndarray,
    n_leaves: int,
    levels: np.ndarray,
    bits: np.ndarray,
    tree: bool,
) -> None:
    """Book one kernel-coded slice as the twin books it leaf by leaf.

    ``qp`` is the slice's per-CTU QPs, ``levels`` its coded levels and
    ``bits`` its ledger row.  Every split turns one quadtree node into
    four and every leaf is an intra leaf with one coefficient block;
    entries the twin would never have touched stay absent.
    """
    for value in qp.ravel().tolist():
        stats.add_qp(value)
    n_ctus = qp.size
    for name, value in (
        ("ctu", n_ctus),
        ("cu.leaf", n_leaves),
        ("cu.split", (n_leaves - n_ctus) // 3),
        ("mode.intra", n_leaves),
        ("coeff_blocks", n_leaves),
        ("coeff_nonzero", int(np.count_nonzero(levels))),
    ):
        if value:
            stats.add_count(name, value)
    # ENCODE_BIT_CLASSES order: split flags exist only under a tree,
    # last / sig / level only with a coded block.
    coded = len(levels) > 0
    touched = (tree, True, True, coded, coded, coded)
    for name, value, used in zip(native.ENCODE_BIT_CLASSES, bits.tolist(), touched):
        if used:
            stats.add_bits(name, value)


MAGIC = b"LV65"
#: Version 2 introduced error-resilient slices: each frame is an
#: independently decodable segment (own arithmetic coder + contexts)
#: wrapped in CRC32 framing, so a damaged slice is detected on decode
#: and -- in concealment mode -- skipped instead of killing the stream.
VERSION = 2

_FLAG_INTRA = 1
_FLAG_TRANSFORM = 2
_FLAG_PARTITION = 4
_FLAG_INTER = 8

_HEADER_FMT = "<4sBBBHHHBBBB"
_HEADER_BODY_SIZE = struct.calcsize(_HEADER_FMT)
# The header carries its own trailing CRC32: a flipped bit in e.g.
# ``n_frames`` or ``width`` cannot be concealed (it re-shapes the whole
# stream), so it must fail loudly rather than silently mis-decode.
_HEADER_SIZE = _HEADER_BODY_SIZE + 4


@dataclass
class EncoderConfig:
    """Knobs for one encoding session."""

    profile: CodecProfile = H265_PROFILE
    qp: float = 30.0
    #: Stage flags, written into the stream header.  :class:`FrameEncoder`
    #: takes the defaults (and ``use_partition=False``) only; the other
    #: Figure 2(b) stages are :mod:`repro.codec.reference`'s.
    use_intra: bool = True
    use_transform: bool = True
    use_partition: bool = True
    use_inter: bool = False
    fixed_cu_size: int = 8  # CU grid when partitioning is disabled
    #: Costing/coding backend, one of :data:`ENCODES`.  "native" uses
    #: the compiled kernels when available (byte-identical output, see
    #: :data:`ENCODES`); "python" pins their pure-Python twin.
    encode: str = "native"
    #: Slice-parallel fan-out policy (None = serial).  Frames are
    #: independently decodable slices, so parallel output is
    #: byte-identical to serial.
    parallel: Optional[ParallelConfig] = None
    #: Cooperative time budget for this encode (None = unbounded).
    #: Checked at every frame boundary -- in the serial loop, in each
    #: parallel slice worker, and by the pool wait itself -- so an
    #: over-budget encode raises
    #: :class:`~repro.resilience.errors.DeadlineExceeded` at a slice
    #: boundary with no partial state left behind.  Output bytes are
    #: unaffected by the deadline (an encode either completes
    #: identically or raises).
    deadline: Optional[Deadline] = None

    def __post_init__(self) -> None:
        if self.encode not in ENCODES:
            raise ValueError(
                f"encode must be one of {ENCODES}, got {self.encode!r}"
            )
        check_qp(self.qp)

    def flags(self) -> int:
        value = 0
        if self.use_intra:
            value |= _FLAG_INTRA
        if self.use_transform:
            value |= _FLAG_TRANSFORM
        if self.use_partition:
            value |= _FLAG_PARTITION
        if self.use_inter:
            value |= _FLAG_INTER
        return value


@dataclass
class EncodeResult:
    """Bitstream plus bookkeeping the rate-control loop uses."""

    data: bytes
    num_values: int
    mse: float
    #: Per-stream instrumentation snapshot (bits per syntax element
    #: class, stage timings, structural counters); populated only while
    #: telemetry is enabled, see :mod:`repro.telemetry`.
    stats: Optional[dict] = None

    @property
    def bits_per_value(self) -> float:
        return 8.0 * len(self.data) / max(1, self.num_values)


def pack_header(
    config: EncoderConfig, width: int, height: int, n_frames: int
) -> bytes:
    """Serialize stream parameters (everything the decoder needs up front)."""
    qp_base = int(np.floor(config.qp))
    qp_frac = int(round((config.qp - qp_base) * 256.0))
    if qp_frac == 256:
        qp_base += 1
        qp_frac = 0
    body = struct.pack(
        _HEADER_FMT,
        MAGIC,
        VERSION,
        config.profile.profile_id,
        config.flags(),
        width,
        height,
        n_frames,
        max(0, min(255, qp_base)),
        qp_frac,
        config.profile.ctu_size if config.use_partition else config.fixed_cu_size,
        config.profile.min_cu_size if config.use_partition else config.fixed_cu_size,
    )
    return body + struct.pack("<I", crc32(body))


def unpack_header(data: bytes) -> Dict[str, int]:
    """Parse the stream header written by :func:`pack_header`."""
    if len(data) < _HEADER_SIZE:
        raise TruncatedStreamError("stream too short for header")
    (
        magic,
        version,
        profile_id,
        flags,
        width,
        height,
        n_frames,
        qp_base,
        qp_frac,
        ctu,
        min_cu,
    ) = struct.unpack_from(_HEADER_FMT, data, 0)
    if magic != MAGIC:
        raise CorruptStreamError("bad magic: not an LLM.265 stream")
    if version != VERSION:
        raise CorruptStreamError(f"unsupported stream version {version}")
    (stored_crc,) = struct.unpack_from("<I", data, _HEADER_BODY_SIZE)
    actual_crc = crc32(data[:_HEADER_BODY_SIZE])
    if stored_crc != actual_crc:
        raise ChecksumError(
            "stream header checksum mismatch",
            expected=stored_crc,
            actual=actual_crc,
        )
    return {
        "profile_id": profile_id,
        "use_intra": bool(flags & _FLAG_INTRA),
        "use_transform": bool(flags & _FLAG_TRANSFORM),
        "use_partition": bool(flags & _FLAG_PARTITION),
        "use_inter": bool(flags & _FLAG_INTER),
        "width": width,
        "height": height,
        "n_frames": n_frames,
        "qp_base": qp_base,
        "qp_frac": qp_frac,
        "ctu": ctu,
        "min_cu": min_cu,
        "header_size": _HEADER_SIZE,
    }


class QpDither:
    """Bresenham dither over CTUs turning a float QP into integer QPs.

    Encoder and decoder both instantiate this with the header's
    (base, frac) pair and call :meth:`next` once per CTU, so the two
    sides always agree on the per-CTU quantizer.
    """

    def __init__(self, qp_base: int, qp_frac: int) -> None:
        self._base = qp_base
        self._frac = qp_frac
        self._accum = 128  # start mid-bucket so frac=0 never bumps

    def next(self) -> int:
        self._accum += self._frac
        if self._accum >= 256:
            self._accum -= 256
            return min(51, self._base + 1)
        return self._base

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` values of :meth:`next` as one int64 array: call
        ``k`` bumps iff the accumulator it finds, ``(accum + k * frac) % 256``
        in closed form, reaches 256 once ``frac`` is added."""
        found = (self._accum + self._frac * np.arange(count, dtype=np.int64)) % 256
        self._accum = (self._accum + count * self._frac) % 256
        return np.where(found + self._frac >= 256, min(51, self._base + 1), self._base)

    @classmethod
    def advanced(cls, qp_base: int, qp_frac: int, steps: int) -> "QpDither":
        """A dither positioned as if :meth:`next` had been called ``steps`` times.

        The accumulator is a pure modular counter (every overflow
        subtracts 256), so its state after ``k`` steps is
        ``(128 + k * frac) % 256`` in closed form.  This is what lets a
        parallel slice worker reproduce frame ``i``'s per-CTU QP
        sequence without replaying frames ``0 .. i-1``.
        """
        dither = cls(qp_base, qp_frac)
        dither.seek(steps)
        return dither

    def seek(self, steps: int) -> None:
        """Reposition as if :meth:`next` had been called ``steps`` times in all."""
        self._accum = (128 + steps * self._frac) % 256


# Plan nodes: ("leaf", mode, is_inter, mv, levels) | ("split", [children x4]).
_Plan = Tuple


class _Pass1(NamedTuple):
    """What turbo pass 1 hands pass 2: a group's tables, frame axis first."""

    qp: np.ndarray  # (frames, ctu rows, ctu cols) int64 QPs, then each CTU's ...
    step: np.ndarray  # ... quantizer step
    lam: np.ndarray  # ... Lagrangian
    modes: Dict[int, np.ndarray]  # CU size, largest first -> best coarse mode per block
    costs: Dict[int, np.ndarray]  # CU size -> that mode's RD cost

    def frame(self, k: int) -> "_Pass1":
        """Frame ``k``'s tables (views), as the twin reads them."""
        return _Pass1(
            self.qp[k], self.step[k], self.lam[k],
            {n: modes[k] for n, modes in self.modes.items()},
            {n: costs[k] for n, costs in self.costs.items()},
        )


class FrameEncoder:
    """Encodes a sequence of 8-bit grayscale frames into one bitstream.

    Every frame is an intra slice coded by the two-pass search; a config
    that asks for any other Figure 2(b) stage is refused at construction
    (:meth:`_check_stages`).
    """

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = cfg = config or EncoderConfig()
        self._check_stages()
        if cfg.profile.min_cu_size < 4:
            raise ValueError("minimum CU size is 4")
        self._ctu = cfg.profile.ctu_size if cfg.use_partition else cfg.fixed_cu_size
        self._min_cu = (
            cfg.profile.min_cu_size if cfg.use_partition else cfg.fixed_cu_size
        )
        #: CU sizes of the quadtree, largest first.
        self._sizes = [self._ctu]
        while cfg.use_partition and self._sizes[-1] > self._min_cu:
            self._sizes.append(self._sizes[-1] // 2)
        self._stats: Optional[telemetry.EncodeStats] = None
        #: The last frame's reconstruction (an inter frame's reference in
        #: :class:`repro.codec.reference.ReferenceEncoder`).
        self._reference: Optional[np.ndarray] = None
        self._native_ok = cfg.encode == "native"

    def _check_stages(self) -> None:
        cfg = self.config
        refused = [
            name
            for name, on in (
                ("use_inter=True", cfg.use_inter),
                ("use_intra=False", not cfg.use_intra),
                ("use_transform=False", not cfg.use_transform),
            )
            if on
        ]
        if refused:
            raise ValueError(
                f"FrameEncoder codes intra frames with the transform only "
                f"({', '.join(refused)} given); the stage ablations are "
                f"repro.codec.reference.ReferenceEncoder's"
            )

    # -- public API ----------------------------------------------------

    def encode(
        self, frames: Sequence[np.ndarray], held: Optional[pass1.HeldAnalysis] = None
    ) -> EncodeResult:
        """Encode frames; returns bitstream + achieved distortion.

        ``held`` is a rate search's pass-1 analysis of these frames: its
        first encode lays it out and fills it, later ones read it back
        (:class:`repro.codec.pass1.HeldAnalysis`).  The bytes do not
        depend on it.
        """
        frames = [np.asarray(f) for f in frames]
        if not frames:
            raise ValueError("need at least one frame")
        height, width = frames[0].shape
        for frame in frames:
            if frame.shape != (height, width):
                raise ValueError("all frames must share one shape")
            if frame.dtype != np.uint8:
                raise ValueError("frames must be uint8")

        cfg = self.config
        header = pack_header(cfg, width, height, len(frames))
        qp_base = header[_HEADER_BODY_SIZE - 4]
        qp_frac = header[_HEADER_BODY_SIZE - 3]

        registry = telemetry.current()
        stats = self._stats = (
            telemetry.EncodeStats() if registry is not None else None
        )
        self._reference = None
        par = cfg.parallel
        # Frames are independent slices, so the parallel path is
        # byte-identical to the serial loop: same per-frame coder and
        # contexts, and the dither state for frame i is reconstructed in
        # closed form (QpDither.advanced).  As on the decode side,
        # eligibility and profitability are separate questions: a
        # parallel-capable encode below the dispatch thresholds runs
        # serially -- small inputs were measurably *slower* parallel.
        par_capable = par is not None and not par.is_serial() and len(frames) > 1
        pad_h = height + (-height) % self._ctu
        pad_w = width + (-width) % self._ctu
        # A fan-out hands out whole pass-1 groups, so what a worker
        # batches is what the serial loop batches.
        per_group = max(1, GROUP_SAMPLES // (pad_h * pad_w))
        groups = -(-len(frames) // per_group)
        analyses: Optional[List[Optional[pass1.GroupAnalysis]]] = None
        if held is not None:
            analyses = held.groups(
                [
                    (len(frames[first : first + per_group]), pad_h, pad_w)
                    for first in range(0, len(frames), per_group)
                ],
                self._sizes,
                cfg.profile.coarse_modes(),
                HELD_ANALYSIS_BYTES,
            )
        use_parallel = (
            par_capable
            and len(frames) >= _PARALLEL_MIN_SLICES
            and sum(f.nbytes for f in frames) >= _PARALLEL_MIN_BYTES
            and groups > 1
            and _effective_cpus() > 1
            # Threads only overlap work that releases the GIL: pass 1's
            # GEMMs and the whole-slice kernel.  The twin's per-leaf
            # Python measured slower under threads than serial.
            and self._native_ok
            and native.available()
        )
        if par_capable and not use_parallel:
            telemetry.count("encode.parallel_threshold_fallbacks")
        with telemetry.span("frames.encode"):
            if use_parallel:
                ctus_per_frame = (pad_h // self._ctu) * (pad_w // self._ctu)
                # One task per worker that can actually run (encode is
                # CPU-bound), each a run of consecutive groups.
                runs = min(par.resolved_workers(), _effective_cpus(), groups)
                run = -(-groups // runs) * per_group
                tasks = [
                    (
                        cfg,
                        frames[first : first + run],
                        per_group,
                        qp_base,
                        qp_frac,
                        first * ctus_per_frame,
                        stats is not None,
                        None
                        if analyses is None
                        else analyses[first // per_group : (first + run) // per_group],
                    )
                    for first in range(0, len(frames), run)
                ]
                outcomes = parallel_map(
                    _encode_slices_worker,
                    tasks,
                    par,
                    label="encode",
                    deadline=cfg.deadline,
                )
                coded = [pair for run_coded, _ in outcomes for pair in run_coded]
                if stats is not None:
                    for _, worker_stats in outcomes:
                        stats.merge(worker_stats)
            else:
                coded = self._encode_run(
                    frames, per_group, QpDither(qp_base, qp_frac), analyses
                )
            payload = b"".join(slice_bytes for slice_bytes, _ in coded)
        # Summed in frame order on every path, so the float is the same.
        sse_total = 0.0
        for _, frame_sse in coded:
            sse_total += frame_sse
        num_values = height * width * len(frames)
        stats_dict: Optional[dict] = None
        if stats is not None:
            # Exact closure: header + attributed element classes + flush
            # telescope to the full stream size in bits.
            stats.add_bits("header", 8 * len(header))
            attributed = stats.total_bits - stats.bits["header"]
            stats.add_bits("flush", 8 * len(payload) - attributed)
            stats.add_count("frames", len(frames))
            stats.publish(registry)
            stats_dict = stats.as_dict()
        return EncodeResult(
            data=header + payload,
            num_values=num_values,
            mse=sse_total / num_values,
            stats=stats_dict,
        )

    # -- per group ------------------------------------------------------

    def _encode_run(
        self,
        frames: Sequence[np.ndarray],
        per_group: int,
        dither: QpDither,
        analyses: Optional[Sequence[Optional[pass1.GroupAnalysis]]] = None,
    ) -> List[Tuple[bytes, float]]:
        """Consecutive frames as framed slices: ``(slice bytes, frame SSE)`` each.

        The one body of the serial loop and of every fan-out worker:
        :meth:`_encode_group` once per group of ``per_group`` frames,
        then each frame's slice framed and its SSE taken.  Each frame is
        one error-resilience slice: a fresh coder and fresh contexts
        make it independently decodable, so a damaged slice can be
        concealed without desynchronising the rest of the stream.  The
        deadline is polled at every group and every frame: at most one
        256 x 256 slice's worth of work apart.  ``analyses`` holds each
        group's held pass-1 analysis, ``None`` where it has none.
        """
        deadline = self.config.deadline
        stats = self._stats
        coded: List[Tuple[bytes, float]] = []
        for start in range(0, len(frames), per_group):
            group = frames[start : start + per_group]
            if deadline is not None:
                deadline.check("frames.encode")
            planes = pass1._padded_planes(group, self._ctu)
            analysis = analyses[start // per_group] if analyses else None
            with telemetry.span("group"):
                slices = self._encode_group(planes, dither, analysis)
                for frame, plane, (payload, recon) in zip(group, planes, slices):
                    if deadline is not None:
                        deadline.check("frames.encode")
                    self._reference = recon
                    if stats is not None:
                        stats.add_bits("slice_hdr", 8 * SLICE_OVERHEAD)
                    height, width = frame.shape  # the SSE leaves the padding out
                    sse = np.sum((recon[:height, :width] - plane[:height, :width]) ** 2)
                    coded.append((frame_slice(payload), float(sse)))
        return coded

    def _encode_group(
        self,
        planes: np.ndarray,
        dither: QpDither,
        analysis: Optional[pass1.GroupAnalysis] = None,
    ) -> Iterable[Tuple[bytes, np.ndarray]]:
        """One group's ``(frames, height, width)`` padded float64 planes
        as ``(slice payload, reconstruction plane)`` per frame, in order.

        Pass 1 over the group (reading ``analysis`` when a search holds
        one), then pass 2 over the group.
        :class:`repro.codec.reference.ReferenceEncoder` replaces this
        with its serial frame-by-frame search; :meth:`_encode_run`
        consumes the pairs once, in order.
        """
        return self._turbo_pass2(planes, self._turbo_pass1(planes, dither, analysis))

    def _turbo_pass2(
        self, planes: np.ndarray, pass1: _Pass1
    ) -> List[Tuple[bytes, np.ndarray]]:
        """Pass 2 of a group: the slice-encode kernel, else (or after it) the twin.

        Per frame, the quadtree DP over pass 1's cost tables (the split
        arithmetic of the exact search in
        :class:`repro.codec.reference.ReferenceEncoder`), the chosen
        leaves re-coded against the *true* reconstruction and the slice
        written, so the emitted stream is exactly decodable --
        drift-free by construction.  With ``encode="native"`` that is
        one GIL-free call for the whole group
        (:meth:`_turbo_pass2_native`); any slice it does not code -- a
        refusal, or the whole group when the kernel declines -- is coded
        alone by the twin, :meth:`_encode_frame`, from a fresh coder and
        fresh contexts.  Same bytes, same float64 plane, same ledger
        either way.
        """
        coded: List[Optional[Tuple[bytes, np.ndarray]]] = [None] * len(planes)
        if self._native_ok:
            coded = self._turbo_pass2_native(planes, pass1)
        for k, done in enumerate(coded):
            if done is None:
                enc = BinaryEncoder()
                recon = self._encode_frame(
                    enc, CodecContexts(), planes[k], pass1.frame(k)
                )
                coded[k] = (enc.finish(), recon)
        return coded

    def _turbo_pass2_native(
        self, planes: np.ndarray, pass1: _Pass1
    ) -> List[Optional[Tuple[bytes, np.ndarray]]]:
        """Pass 2 of a group in one slice-encode kernel call.

        Per frame ``(payload, reconstruction)``, or ``None`` where the
        twin must code it: every frame when the kernel is unavailable
        or declines the arguments, the slices it refuses otherwise.  A
        decline or a refusal while the kernel is loaded counts one
        ``encode.kernel_refusals`` per slice handed back.  The stats
        ledger of every slice coded here is what the twin would have
        left.
        """
        count, height, width = planes.shape
        stats = self._stats
        started = perf_counter() if stats is not None else 0.0
        # Exact upper bounds: leaves are disjoint and none is smaller
        # than the last size; four bytes per sample is far beyond any
        # slice the format produces at QP >= 0 (overflow -> twin).
        smallest = self._sizes[-1]
        rows = np.empty(
            (native.PLAN_ROWS, count * (height // smallest) * (width // smallest)),
            dtype=np.int64,
        )
        levels = np.empty(planes.size, dtype=np.int64)
        out = np.empty(4 * planes.size + 64 * count, dtype=np.uint8)
        recon = np.zeros_like(planes)
        bits = (
            np.zeros((count, len(native.ENCODE_BIT_CLASSES)), dtype=np.int64)
            if stats is not None
            else None
        )
        report = native.encode_slices(
            planes,
            self._ctu,
            self._min_cu,
            self.config.use_partition,
            list(pass1.modes.values()),
            list(pass1.costs.values()),
            pass1.step.ravel(),
            pass1.lam.ravel(),
            self.config.profile.deadzone,
            self.config.profile.all_modes,
            _transform_tables(tuple(self._sizes)),
            recon,
            np.zeros(planes.shape, dtype=bool),
            rows,
            levels,
            out,
            bits,
        )
        if report is None:
            if native.available():
                telemetry.count("encode.kernel_refusals", count)
            return [None] * count
        if stats is not None:
            stats.add_seconds("write", perf_counter() - started)
        coded: List[Optional[Tuple[bytes, np.ndarray]]] = []
        out_start = leaf_start = level_start = 0
        for k, (status, out_end, leaf_end, level_end) in enumerate(report.tolist()):
            if status != 0:
                telemetry.count("encode.kernel_refusals")
                coded.append(None)
                continue
            coded.append((out[out_start:out_end].tobytes(), recon[k]))
            if stats is not None:
                _kernel_ledger(
                    stats,
                    pass1.qp[k],
                    leaf_end - leaf_start,
                    levels[level_start:level_end],
                    bits[k],
                    len(self._sizes) > 1,
                )
            out_start, leaf_start, level_start = out_end, leaf_end, level_end
        return coded

    # -- per frame: the twin -----------------------------------------------

    def _encode_frame(
        self,
        enc: BinaryEncoder,
        ctx: CodecContexts,
        frame: np.ndarray,
        pass1: _Pass1,
    ) -> np.ndarray:
        """Pass 2 of one padded frame in Python; returns its reconstruction.

        The pure-Python twin of the slice-encode kernel:
        :meth:`_turbo_choose` / :meth:`_turbo_commit` / :meth:`_write_cu`
        CTU by CTU over this frame's pass-1 tables (``pass1`` is
        :meth:`_Pass1.frame`'s), writing into ``enc`` and ``ctx``.
        Pass 1 (:meth:`_turbo_pass1`, once per group of frames) scored
        every block of every CU size in a handful of stacked GEMMs using
        *source* pixels as prediction references -- the classic encoder
        lookahead trick: at working QPs the reconstruction tracks the
        source closely, so decisions made against the source are
        near-identical while removing the serial commit->gather
        dependency that forces a per-leaf search to run block by block
        (and any dependency on the slice a block sits in).
        """
        height, width = frame.shape
        self._frame = frame
        self._recon = np.zeros((height, width), dtype=np.float64)
        self._mask = np.zeros((height, width), dtype=bool)
        self._modes = np.full((height, width), -1, dtype=np.int16)
        stats = self._stats
        ctu = self._ctu
        for cy, row in enumerate(pass1.qp.tolist()):
            for cx, qp in enumerate(row):
                self._qstep = qstep(qp)
                self._lambda = rd_lambda(qp)
                y0, x0 = cy * ctu, cx * ctu
                if stats is None:
                    _, skeleton = self._turbo_choose(
                        y0, x0, ctu, pass1.modes, pass1.costs
                    )
                    plan = self._turbo_commit(skeleton, y0, x0, ctu)
                    self._write_cu(enc, ctx, plan, y0, x0, ctu, depth=0)
                    continue
                stats.add_count("ctu")
                stats.add_qp(qp)
                t0 = perf_counter()
                _, skeleton = self._turbo_choose(y0, x0, ctu, pass1.modes, pass1.costs)
                plan = self._turbo_commit(skeleton, y0, x0, ctu)
                t1 = perf_counter()
                self._write_cu(enc, ctx, plan, y0, x0, ctu, depth=0)
                stats.add_seconds("plan", t1 - t0)
                stats.add_seconds("write", perf_counter() - t1)
        return self._recon

    # -- pass 1 --------------------------------------------------------------

    def _turbo_pass1(
        self,
        planes: np.ndarray,
        dither: QpDither,
        analysis: Optional[pass1.GroupAnalysis] = None,
    ) -> _Pass1:
        """Turbo pass 1 over a group: ``(frames, height, width)`` float64 planes.

        Per CU size, the group's analysis (:func:`repro.codec.pass1.analyse`,
        or ``analysis``'s held copy) and one pick over the stacked blocks
        of every frame, each block with the step and Lagrangian of its
        own CTU.  The dither is consumed for the whole group up front, in
        the order the serial CTU loop would, so fractional QPs dither
        across the frames of a group and streams are invariant to the
        fan-out.
        """
        stats = self._stats
        started = perf_counter() if stats is not None else 0.0
        count, height, width = planes.shape
        ctu = self._ctu
        qp = dither.take(planes.size // ctu**2).reshape(count, height // ctu, -1)
        tables = _Pass1(qp, _QSTEPS[qp], _LAMBDAS[qp], {}, {})
        step = tables.step.reshape(count, -1)
        lam = tables.lam.reshape(count, -1)
        profile = self.config.profile
        modes = profile.coarse_modes()
        for n in self._sizes:
            if analysis is None:
                coeffs, pred = pass1.analyse(planes, n, modes)
            else:
                coeffs, pred = analysis.size(planes, n, modes)
            blocks = pass1._block_ctus(height, width, ctu, n)
            block_step = step[:, blocks].ravel()
            pick, costs = pass1._pass1_pick(
                coeffs, pred, 1.0 / block_step, block_step * block_step,
                lam[:, blocks].ravel(), pass1._anchor_mode_bits(modes),
                profile.deadzone, self._native_ok,
            )
            del coeffs, pred  # a size's candidates go before the next size's
            shape = (count, height // n, width // n)
            tables.modes[n] = np.asarray(modes, dtype=np.int64)[pick].reshape(shape)
            tables.costs[n] = costs.reshape(shape)
        if stats is not None:
            stats.add_seconds("plan", perf_counter() - started)
        return tables

    def _turbo_choose(
        self,
        y0: int,
        x0: int,
        size: int,
        best_mode: Dict[int, np.ndarray],
        best_cost: Dict[int, np.ndarray],
    ):
        """Quadtree DP over the pass-1 cost tables (no pixels touched).

        The exact search's split arithmetic (in
        :class:`repro.codec.reference.ReferenceEncoder`): ~1 bit of
        split signalling per node, leaf kept on ties.
        """
        mode = int(best_mode[size][y0 // size, x0 // size])
        leaf_cost = float(best_cost[size][y0 // size, x0 // size])
        if not (self.config.use_partition and size > self._min_cu):
            return leaf_cost, ("leaf", mode)
        lam = self._lambda
        half = size // 2
        split_cost = lam
        children = []
        for qy in (0, 1):
            for qx in (0, 1):
                c_cost, c_plan = self._turbo_choose(
                    y0 + qy * half, x0 + qx * half, half, best_mode, best_cost
                )
                split_cost += c_cost
                children.append(c_plan)
        if leaf_cost + lam <= split_cost:
            return leaf_cost + lam, ("leaf", mode)
        return split_cost, ("split", children)

    def _turbo_commit(self, skeleton, y0: int, x0: int, size: int) -> _Plan:
        """Pass 2: code the chosen tree exactly (true references)."""
        if skeleton[0] == "split":
            half = size // 2
            children: List[_Plan] = []
            index = 0
            for qy in (0, 1):
                for qx in (0, 1):
                    children.append(
                        self._turbo_commit(
                            skeleton[1][index],
                            y0 + qy * half,
                            x0 + qx * half,
                            half,
                        )
                    )
                    index += 1
            return ("split", children)
        return self._code_leaf_fixed_mode(y0, x0, size, skeleton[1])

    def _code_leaf_fixed_mode(
        self, y0: int, x0: int, size: int, mode: int
    ) -> _Plan:
        """Exact single-mode leaf coding (quantize, reconstruct, commit).

        The reference encoder's residual coding restricted to one
        prediction, and ``code_leaf`` in ``_encode_kernel.c`` operation
        for operation; the reconstruction is what the decoder will
        produce for these levels, bit for bit.
        """
        orig = self._frame[y0 : y0 + size, x0 : x0 + size]
        top, left = intra.gather_references(self._recon, self._mask, y0, x0, size)
        prediction = intra.predict(top, left, mode, size)
        coeffs = forward_dct2_batch(orig - prediction)
        step = self._qstep
        scaled = coeffs / step
        deadzone = self.config.profile.deadzone
        if deadzone:
            levels = np.trunc(scaled + np.copysign(0.5 - deadzone, scaled))
        else:
            levels = np.rint(scaled)
        levels = levels.astype(np.int64)
        residual = inverse_dct2_batch(levels * step)
        recon = np.clip(prediction + residual, 0.0, 255.0)
        self._commit_block(y0, x0, size, recon, mode)
        return ("leaf", mode, False, (0, 0), levels)

    def _commit_block(
        self, y0: int, x0: int, size: int, recon: np.ndarray, mode: int
    ) -> None:
        sl = (slice(y0, y0 + size), slice(x0, x0 + size))
        self._recon[sl] = recon
        self._mask[sl] = True
        self._modes[sl] = mode

    def _neighbor_mode(self, y: int, x: int) -> Optional[int]:
        if y < 0 or x < 0:
            return None
        if not self._mask[y, x]:
            return None
        mode = int(self._modes[y, x])
        return mode if mode >= 0 else None

    # -- serialization ---------------------------------------------------

    def _write_cu(
        self,
        enc: BinaryEncoder,
        ctx: CodecContexts,
        plan: _Plan,
        y0: int,
        x0: int,
        size: int,
        depth: int,
    ) -> None:
        cfg = self.config
        stats = self._stats
        if cfg.use_partition and size > self._min_cu:
            is_split = plan[0] == "split"
            if stats is None:
                enc.encode_bit(ctx.split, min(depth, 5), 1 if is_split else 0)
            else:
                mark = enc.tell_bits()
                enc.encode_bit(ctx.split, min(depth, 5), 1 if is_split else 0)
                stats.add_bits("split", enc.tell_bits() - mark)
            if is_split:
                if stats is not None:
                    stats.add_count("cu.split")
                half = size // 2
                index = 0
                for qy in (0, 1):
                    for qx in (0, 1):
                        self._write_cu(
                            enc,
                            ctx,
                            plan[1][index],
                            y0 + qy * half,
                            x0 + qx * half,
                            half,
                            depth + 1,
                        )
                        index += 1
                return
        self._write_leaf(enc, ctx, plan, y0, x0)

    def _write_leaf(
        self, enc: BinaryEncoder, ctx: CodecContexts, plan: _Plan, y0: int, x0: int
    ) -> None:
        """An intra leaf: its mode, then its coefficient block."""
        _, mode, _, _, levels = plan
        if self._stats is not None:
            self._stats.add_count("cu.leaf")
            self._stats.add_count("mode.intra")
        self._write_intra_mode(enc, ctx, mode, y0, x0)
        self._write_coeffs(enc, ctx, levels)

    def _write_intra_mode(
        self, enc: BinaryEncoder, ctx: CodecContexts, mode: int, y0: int, x0: int
    ) -> None:
        """A leaf's mode against the MPMs of its left and top neighbours.

        The committed mode map is final for everything coded so far, and
        left/top neighbours precede the leaf in decode order, so it holds
        exactly the neighbour modes the decoder will know.
        """
        stats = self._stats
        mark = enc.tell_bits() if stats is not None else 0
        encode_intra_mode(
            enc,
            ctx,
            mode,
            self._neighbor_mode(y0, x0 - 1),
            self._neighbor_mode(y0 - 1, x0),
            self.config.profile.all_modes,
        )
        if stats is not None:
            stats.add_bits("intra_mode", enc.tell_bits() - mark)

    def _write_coeffs(
        self, enc: BinaryEncoder, ctx: CodecContexts, levels: np.ndarray
    ) -> None:
        """One coefficient block into the coder (fused scan unless tracing).

        :class:`repro.codec.reference.ReferenceEncoder` overrides this
        with the primitive-call writer.
        """
        encode_coeff_block(enc, ctx, levels, self._stats)


def _encode_slices_worker(args):
    """Encode a run of consecutive pass-1 groups, with their held
    analyses if a search holds any (parallel worker body).

    A fresh :class:`FrameEncoder` per run, so pool threads share no
    encoder state.  When instrumentation is on the worker builds an
    explicit :class:`telemetry.EncodeStats` and returns it for the
    session to merge in run order.

    Returns ``([(framed_slice_bytes, frame_sse), ...], stats_or_None)``.
    """
    config, frames, per_group, qp_base, qp_frac, steps, want_stats, analyses = args
    encoder = FrameEncoder(config)
    encoder._stats = telemetry.EncodeStats() if want_stats else None
    dither = QpDither.advanced(qp_base, qp_frac, steps)
    return encoder._encode_run(frames, per_group, dither, analyses), encoder._stats


def encode_frames(
    frames: Sequence[np.ndarray], config: Optional[EncoderConfig] = None
) -> EncodeResult:
    """Convenience wrapper: encode frames with a fresh :class:`FrameEncoder`."""
    return FrameEncoder(config).encode(frames)
