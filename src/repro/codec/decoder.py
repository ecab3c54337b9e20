"""Bit-exact decoder for the bitstreams produced by :mod:`repro.codec.encoder`.

Version-2 streams are cut into one CRC32-framed slice per frame (see
``docs/RESILIENCE.md``).  The decoder verifies every slice checksum on
arrival and supports two failure policies:

- **strict** (default): any damage raises
  :class:`~repro.resilience.errors.CorruptStreamError` -- no other
  exception type ever escapes a decode.
- **concealment** (``conceal=True``): a damaged slice is skipped and
  its frame synthesised by neighbour prediction (copy of the previous
  decoded frame) or mid-gray zero-fill for the first frame; decoding
  continues with the next slice and every patched region is listed in
  the returned :class:`~repro.resilience.errors.ConcealmentReport`.

A slice is decoded by three whole-slice stages over one array plan
(:class:`LeafPlan`): *plan -> residuals -> reconstruct*.  Stage one
drains the range decoder into the plan (modes, motion vectors,
coefficient scans); stage two dequantizes, unscans and
inverse-transforms all same-size leaves in one batch (the encoder's
lru-cached DCT basis / zigzag tables, the codec's order-defined
transform); stage three predicts and reconstructs every leaf in decode
order.  Stages one and three are each one GIL-free C call
(``native.plan_slice`` / ``native.reconstruct_slice``), stage two one
per block size (``native.residuals``), each with a Python twin
(``_walk_slice`` / ``_apply_predictions`` / the numpy batch in
``_batch_residuals``) that produces and consumes the same arrays.  The
decoder picks per slice from what it observes, not from an option:
kernels when ``native.available()``, the twin otherwise (no compiler,
``LLM265_PURE_PYTHON=1``) and for any slice a kernel refuses
(``decode.kernel_refusals``), so every error is raised by Python code.

The interleaved per-leaf decoder this design replaced lives in
:mod:`repro.codec.reference`; it is sample-identical on every stream,
including corrupt-stream and concealment behaviour -- the bench
identity gate, ``tests/test_fast_decode.py``,
``tests/test_decode_fuzz.py`` and the golden vectors enforce this.
"""

from __future__ import annotations

import os
import time
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec import intra
from repro.codec.encoder import QpDither, unpack_header
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryDecoder
from repro.codec.profiles import PROFILES_BY_ID
from repro.codec.quantizer import qstep
from repro.codec.syntax import (
    CodecContexts,
    decode_coeff_block_scanned,
    decode_intra_mode,
    decode_mv,
)
from repro.codec.transform import dct_matrix, inverse_dct2_batch, zigzag_order
from repro.parallel import ParallelConfig, parallel_map, warm_pool
from repro.resilience.deadline import Deadline
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.resilience.framing import deframe_slices
from repro.telemetry.codecstats import DecodeStats

#: Mid-gray sample used to zero-fill a concealed frame with no neighbour.
_CONCEAL_FILL = 128.0

#: Parallel decode dispatch thresholds.  Below either bound the fan-out
#: overhead (task submission, result marshalling, worker warm-up) costs
#: more than the decode itself, so the decoder silently stays serial.
#: Streams must have at least this many slices ...
_PARALLEL_MIN_SLICES = 4
#: ... and at least this many payload bytes (32 KiB) to fan out.
_PARALLEL_MIN_BYTES = 1 << 15


class LeafPlan:
    """Flat decode plan of one slice: one column per leaf, in decode order.

    ``rows`` is a C-contiguous ``(len(FIELDS), capacity)`` int64 table
    of which the first ``n_leaves`` columns are filled; ``levels``
    holds the quantized levels of every coded leaf, still in scan
    order, ``size * size`` of them starting at the leaf's
    ``coeff_offset``.  Conventions: ``mode`` is -1 where no intra mode
    was coded (inter leaves, streams without intra), ``ry``/``rx`` are
    the reference block origin of an inter leaf (else 0),
    ``ctu_index`` numbers the leaf's CTU in raster order (its QP is
    looked up there) and ``coeff_offset`` is -1 for a cbf = 0 leaf.

    The slice kernel (``_slice_kernel.c``, rows ``P_*``) and the Python
    walk fill this layout, and the residual and reconstruct stages --
    numpy, ``_recon_kernel.c`` and the Python loop -- read it.
    """

    FIELDS = native.PLAN_FIELDS

    __slots__ = ("rows", "levels", "n_leaves")

    def __init__(self, rows: np.ndarray, levels: np.ndarray, n_leaves: int) -> None:
        self.rows = rows
        self.levels = levels
        self.n_leaves = n_leaves

    def field(self, name: str) -> np.ndarray:
        """One plan row, trimmed to the filled columns."""
        return self.rows[self.FIELDS.index(name), : self.n_leaves]


def _effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


class FrameDecoder:
    """Parses a bitstream and reconstructs the frame sequence.

    ``conceal=True`` switches from fail-loud to decode-past-damage;
    :attr:`report` describes what (if anything) was concealed.
    """

    def __init__(
        self,
        data: bytes,
        conceal: bool = False,
        parallel: Optional[ParallelConfig] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        self._deadline = deadline
        self._header = unpack_header(data)
        try:
            self._profile = PROFILES_BY_ID[self._header["profile_id"]]
        except KeyError:
            raise CorruptStreamError(
                f"unknown profile id {self._header['profile_id']}"
            ) from None
        self._raw_header = bytes(data[: self._header["header_size"]])
        self._payload = data[self._header["header_size"] :]
        self._conceal = conceal
        self._parallel = parallel
        self._ctx: Optional[CodecContexts] = None
        self._dec: Optional[BinaryDecoder] = None
        self._registry = None
        self._stats: Optional[DecodeStats] = None
        self.report = ConcealmentReport()

    def decode(self) -> List[np.ndarray]:
        """Return the decoded frames (uint8, original dimensions)."""
        h = self._header
        ctu = h["ctu"]
        width, height = h["width"], h["height"]
        pad_w = width + ((-width) % ctu)
        pad_h = height + ((-height) % ctu)
        dither = QpDither(h["qp_base"], h["qp_frac"])
        ctus_per_frame = (pad_h // ctu) * (pad_w // ctu)
        self._reference: Optional[np.ndarray] = None
        self._registry = telemetry.current()
        self._stats = DecodeStats() if self._registry is not None else None
        self.report = ConcealmentReport(total_slices=h["n_frames"])

        slices, damage = deframe_slices(
            self._payload, expected=h["n_frames"], strict=not self._conceal
        )
        damage_reasons = dict(damage)

        par = self._parallel
        # Eligibility (slice independence) and profitability (payload
        # large enough to amortise fan-out) are separate questions: a
        # parallel-capable stream below the dispatch thresholds decodes
        # serially -- small payloads were measurably *slower* parallel.
        par_capable = (
            par is not None
            and not par.is_serial()
            and h["n_frames"] > 1
            and not h["use_inter"]
            and not self._conceal
            and not damage_reasons
        )
        use_parallel = (
            par_capable
            and h["n_frames"] >= _PARALLEL_MIN_SLICES
            and len(self._payload) >= _PARALLEL_MIN_BYTES
            # On a single-CPU machine fan-out is pure overhead no matter
            # how large the payload: decode is CPU-bound end to end.
            and _effective_cpus() > 1
            # Threads only overlap work that releases the GIL: the two
            # whole-slice kernels.  The per-leaf Python of the twin
            # measured ~0.5x under threads.
            and (par.executor != "thread" or native.available())
        )
        if par_capable and not use_parallel:
            telemetry.count("decode.parallel_threshold_fallbacks")
        if use_parallel:
            # Every slice is independently decodable (fresh entropy state,
            # per-frame dither restart via the closed form) and, with inter
            # prediction off, carries no cross-frame reference -- so slices
            # decode concurrently to the exact same samples as the serial
            # loop.  Concealment and inter streams stay on the serial path.
            # Tasks ship the 21 raw header bytes (workers parse + cache
            # them once per stream shape), not the unpacked frame context.
            # One task per worker that can actually run (decode is
            # CPU-bound), each a run of consecutive slices: dispatching
            # a task costs about what a small slice takes to decode.
            warm_pool(par)
            runs = min(par.resolved_workers(), _effective_cpus(), h["n_frames"])
            run = -(-h["n_frames"] // runs)
            tasks = [
                (
                    self._raw_header,
                    slices[first : first + run],
                    first,
                    pad_h,
                    pad_w,
                    ctus_per_frame,
                )
                for first in range(0, h["n_frames"], run)
            ]
            with telemetry.span("frames.decode"):
                outcomes = parallel_map(
                    _decode_slices_worker,
                    tasks,
                    par,
                    label="decode",
                    deadline=self._deadline,
                )
            recons = [recon for run_recons, _ in outcomes for recon in run_recons]
            if self._stats is not None:
                for _, worker_stats in outcomes:
                    if worker_stats is not None:
                        self._stats.merge(worker_stats)
            frames = [
                np.clip(np.rint(r[:height, :width]), 0, 255).astype(np.uint8)
                for r in recons
            ]
            self._reference = recons[-1]
            if self._registry is not None:
                self._registry.count("decode.frames", h["n_frames"])
                self._stats.publish(self._registry)
            return frames

        frames: List[np.ndarray] = []
        with telemetry.span("frames.decode"):
            for frame_index in range(h["n_frames"]):
                if self._deadline is not None:
                    self._deadline.check("frames.decode")
                segment = slices[frame_index] if frame_index < len(slices) else None
                with telemetry.span("frame"):
                    recon = self._decode_slice(
                        segment,
                        damage_reasons.get(frame_index, "slice missing"),
                        pad_h,
                        pad_w,
                        frame_index,
                        dither,
                        ctus_per_frame,
                    )
                frames.append(
                    np.clip(np.rint(recon[:height, :width]), 0, 255).astype(np.uint8)
                )
                self._reference = recon
        if self._registry is not None:
            self._registry.count("decode.frames", h["n_frames"])
            self._stats.publish(self._registry)
        return frames

    # -- per-slice -----------------------------------------------------

    def _decode_slice(
        self,
        segment: Optional[bytes],
        damage_reason: str,
        height: int,
        width: int,
        frame_index: int,
        dither: QpDither,
        ctus_per_frame: int,
    ) -> np.ndarray:
        if segment is None:
            return self._conceal_frame(
                damage_reason, height, width, frame_index, dither, ctus_per_frame
            )
        # Fresh entropy state per slice: this is what makes slices
        # independently decodable (and bit-exact with the encoder).
        self._dec = BinaryDecoder(segment)
        self._ctx = CodecContexts()
        try:
            return self._decode_frame(height, width, frame_index, dither)
        except CorruptStreamError:
            if not self._conceal:
                raise
        except Exception as exc:
            # A CRC-valid slice that still fails to parse (crafted or
            # colliding damage) must not leak raw IndexError/EOFError.
            if not self._conceal:
                raise CorruptStreamError(
                    f"slice {frame_index}: undecodable ({type(exc).__name__}: {exc})"
                ) from exc
        return self._conceal_frame(
            "undecodable slice", height, width, frame_index, dither, ctus_per_frame
        )

    def _conceal_frame(
        self,
        reason: str,
        height: int,
        width: int,
        frame_index: int,
        dither: QpDither,
        ctus_per_frame: int,
    ) -> np.ndarray:
        """Synthesise a frame for a damaged slice and keep state aligned."""
        # Later slices must see the same per-CTU QP sequence as the
        # encoder.  A slice that failed to parse may have consumed any
        # number of dither steps, so the dither is not advanced but
        # positioned, in closed form, after this frame's CTUs (every
        # frame has the same CTU count).
        dither.seek((frame_index + 1) * ctus_per_frame)
        self.report.concealed.append((frame_index, reason))
        if self._registry is not None:
            self._registry.count("decode.slices_concealed")
        telemetry.count("resilience.slices_concealed")
        if self._reference is not None:
            return self._reference.copy()  # neighbour (temporal) prediction
        return np.full((height, width), _CONCEAL_FILL, dtype=np.float64)

    # -- per-frame: plan -> residuals -> reconstruct ---------------------
    #
    # Bit-exactness argument, against the interleaved reference decoder
    # (repro.codec.reference).  Stage one touches every adaptive context
    # in exactly its order (the quadtree walk is identical; mode
    # decoding depends only on *neighbour modes*, which the walk records
    # leaf by leaf, never on pixels), so the entropy decode consumes
    # identical bins and fails on identical inputs.  Stage two's batched
    # dequantize is the same elementwise multiply the reference performs
    # per leaf and the inverse DCT is the codec's one order-defined
    # transform on every path; with the kernels loaded the stage is one
    # C call per block size (``native.residuals``: the same multiply,
    # unscan and transform).  Stage three replays prediction in decode
    # order against a reconstruction mask that is, at every leaf, the
    # exact mask the interleaved loop would have had; its C form
    # evaluates the same expressions in the same order with no fused
    # multiply-add (docs/PERFORMANCE.md).

    def _decode_frame(
        self, height: int, width: int, frame_index: int, dither: QpDither
    ) -> np.ndarray:
        h = self._header
        ctu = h["ctu"]
        self._inter_allowed = (
            h["use_inter"] and frame_index > 0 and self._reference is not None
        )
        stats = self._stats
        # One QP per CTU in raster order; leaves find theirs by ctu_index.
        qps = [dither.next() for _ in range((height // ctu) * (width // ctu))]
        if self._registry is not None:
            for qp in qps:
                self._registry.observe("decode.qp", qp)

        # Stage 1: drain the range decoder into the leaf plan.
        started = time.perf_counter() if stats is not None else 0.0
        with telemetry.span("decode.entropy"):
            plan = self._plan_slice(height, width)
        if stats is not None:
            now = time.perf_counter()
            stats.add_seconds("entropy", now - started)
            stats.add_count("coeff_bins", self._dec.scan_bins)
            _count_structure(stats, plan, len(qps))
            started = now

        # Stage 2: one batched dequantize + inverse transform per size.
        with telemetry.span("decode.reconstruct"):
            resid_offset, resid = self._batch_residuals(
                plan, qps, h["use_transform"], stats
            )
        if stats is not None:
            now = time.perf_counter()
            stats.add_seconds("reconstruct", now - started)
            started = now

        # Stage 3: prediction in dependency (decode) order.
        with telemetry.span("decode.predict"):
            recon = self._reconstruct(plan, resid_offset, resid, height, width)
        if stats is not None:
            stats.add_seconds("predict", time.perf_counter() - started)
        return recon

    def _plan_slice(self, height: int, width: int) -> LeafPlan:
        """Stage one: the slice kernel, else (or after it) the Python walk."""
        h = self._header
        if native.available() and (
            not self._inter_allowed or self._reference.shape == (height, width)
        ):
            # Exact upper bounds: no leaf is smaller than 4 x 4 (or than
            # a CTU when partitioning is off) and coded areas are disjoint.
            smallest = max(4, h["min_cu"] if h["use_partition"] else h["ctu"])
            rows = np.empty(
                (len(LeafPlan.FIELDS), (height // smallest) * (width // smallest)),
                dtype=np.int64,
            )
            levels = np.empty(height * width, dtype=np.int64)
            outcome = native.plan_slice(
                self._dec,
                self._ctx.banks(),
                height,
                width,
                h["ctu"],
                h["min_cu"],
                h["use_partition"],
                h["use_intra"],
                self._inter_allowed,
                self._profile.all_modes,
                rows,
                levels,
            )
            if outcome is not None:
                status, n_leaves, n_levels = outcome
                if status == 0:
                    return LeafPlan(rows, levels[:n_levels], n_leaves)
                # The kernel refused the slice and formats no error:
                # decode it again from a fresh coder with the Python
                # walk, which raises the canonical typed error at the
                # same bin it always did.
                telemetry.count("decode.kernel_refusals")
                self._dec = BinaryDecoder(self._dec._data)
                self._ctx = CodecContexts()
        return self._walk_slice(height, width)

    def _walk_slice(self, height: int, width: int) -> LeafPlan:
        """Pure-Python twin of ``native.plan_slice``: same plan, same state."""
        ctu = self._header["ctu"]
        # The plan-time mask/mode maps drive neighbour-mode contexts
        # exactly as the interleaved loop's post-leaf updates would.
        self._mask = np.zeros((height, width), dtype=bool)
        self._modes = np.full((height, width), -1, dtype=np.int16)
        leaves: List[tuple] = []
        scans: List[np.ndarray] = []
        ctu_index = 0
        for y0 in range(0, height, ctu):
            for x0 in range(0, width, ctu):
                self._plan_cu(y0, x0, ctu, 0, ctu_index, leaves, scans)
                ctu_index += 1
        rows = np.ascontiguousarray(
            np.array(leaves, dtype=np.int64).reshape(-1, len(LeafPlan.FIELDS)).T
        )
        plan = LeafPlan(
            rows,
            np.concatenate(scans) if scans else np.empty(0, dtype=np.int64),
            len(leaves),
        )
        # Leaves were appended with a 0 / -1 cbf marker; coded leaves
        # take consecutive size * size runs of the level buffer.
        offsets = plan.field("coeff_offset")
        coded = offsets >= 0
        areas = plan.field("size")[coded] ** 2
        offsets[coded] = np.cumsum(areas) - areas
        return plan

    def _plan_cu(
        self,
        y0: int,
        x0: int,
        size: int,
        depth: int,
        ctu_index: int,
        leaves: List[tuple],
        scans: List[np.ndarray],
    ) -> None:
        h = self._header
        if h["use_partition"] and size > h["min_cu"]:
            if self._dec.decode_bit(self._ctx.split, min(depth, 5)):
                half = size // 2
                for qy in (0, 1):
                    for qx in (0, 1):
                        self._plan_cu(
                            y0 + qy * half,
                            x0 + qx * half,
                            half,
                            depth + 1,
                            ctu_index,
                            leaves,
                            scans,
                        )
                return
        self._plan_leaf(y0, x0, size, ctu_index, leaves, scans)

    def _plan_leaf(
        self,
        y0: int,
        x0: int,
        size: int,
        ctu_index: int,
        leaves: List[tuple],
        scans: List[np.ndarray],
    ) -> None:
        h = self._header
        is_inter = False
        if self._inter_allowed:
            is_inter = bool(self._dec.decode_bit(self._ctx.pred_flag, 0))

        mode = -1
        ry = rx = 0
        if is_inter:
            mv = decode_mv(self._dec, self._ctx)
            ry, rx = y0 + mv[0], x0 + mv[1]
            ref_h, ref_w = self._reference.shape
            # Validated at plan time so a corrupt MV surfaces at the
            # same bin position (and with the same message) as the
            # reference decoder.
            if not (0 <= ry <= ref_h - size and 0 <= rx <= ref_w - size):
                raise CorruptStreamError(
                    f"motion vector {mv} points outside the reference frame"
                )
        elif h["use_intra"]:
            left_mode = self._neighbor_mode(y0, x0 - 1)
            top_mode = self._neighbor_mode(y0 - 1, x0)
            mode = decode_intra_mode(
                self._dec, self._ctx, left_mode, top_mode, self._profile.all_modes
            )

        scanned = decode_coeff_block_scanned(self._dec, self._ctx, size)
        if scanned is not None:
            scans.append(scanned)
        leaves.append(
            (y0, x0, size, mode, int(is_inter), ry, rx, ctu_index,
             -1 if scanned is None else 0)
        )
        sl = (slice(y0, y0 + size), slice(x0, x0 + size))
        self._mask[sl] = True
        self._modes[sl] = mode if mode >= 0 else intra.DC

    def _neighbor_mode(self, y: int, x: int) -> Optional[int]:
        if y < 0 or x < 0:
            return None
        if not self._mask[y, x]:
            return None
        value = int(self._modes[y, x])
        return value if value >= 0 else None

    def _batch_residuals(
        self,
        plan: LeafPlan,
        qps: List[int],
        use_transform: bool,
        stats: Optional[DecodeStats],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantize + inverse-transform every coded leaf, batched by size.

        Returns ``(resid_offset, resid)``: the row-major residual grids
        of all coded leaves concatenated into one float64 vector, and
        per leaf the offset of its grid in it -- -1 for cbf=0 leaves,
        whose residual is exactly zero and is added as such by the
        prediction pass (the IDCT of an all-zero block is also exactly
        zero).
        """
        sizes = plan.field("size")
        coeff = plan.field("coeff_offset")
        coded = coeff >= 0
        step_of_qp = {qp: qstep(qp) for qp in set(qps)}
        steps = np.array([step_of_qp[qp] for qp in qps], dtype=np.float64)[
            plan.field("ctu_index")
        ]
        resid_offset = np.full(plan.n_leaves, -1, dtype=np.int64)
        # The residual kernel lives in the encode library: not loaded is
        # not a refusal.
        use_kernel = native.available() and native.encode_available()
        grids_by_size: List[np.ndarray] = []
        total = 0
        for n in np.unique(sizes[coded]).tolist():
            indices = np.flatnonzero(coded & (sizes == n))
            area = n * n
            grids = (
                native.residuals(
                    plan.levels, coeff[indices], steps[indices],
                    zigzag_order(n), dct_matrix(n), use_transform,
                )
                if use_kernel
                else None
            )
            if grids is None:
                if use_kernel:
                    telemetry.count("decode.kernel_refusals")
                scan_rows = plan.levels[coeff[indices, None] + np.arange(area)]
                # Same elementwise product as per-leaf ``dequantize``;
                # the zigzag unscan is one fancy-index store across the
                # batch.
                dequant = scan_rows.astype(np.float64) * steps[indices, None]
                flat = np.empty((len(indices), area), dtype=np.float64)
                flat[:, zigzag_order(n)] = dequant
                grids = flat.reshape(len(indices), n, n)
                if use_transform:
                    grids = inverse_dct2_batch(grids)
            resid_offset[indices] = total + area * np.arange(len(indices))
            grids_by_size.append(grids.reshape(-1))
            total += grids.size
        if stats is not None:
            stats.add_count("batches", len(grids_by_size))
            stats.add_count("batched_blocks", int(coded.sum()))
        resid = (
            np.concatenate(grids_by_size)
            if grids_by_size
            else np.empty(0, dtype=np.float64)
        )
        return resid_offset, resid

    def _reconstruct(
        self,
        plan: LeafPlan,
        resid_offset: np.ndarray,
        resid: np.ndarray,
        height: int,
        width: int,
    ) -> np.ndarray:
        """Stage three: the reconstruct kernel, else the Python loop."""
        recon = np.zeros((height, width), dtype=np.float64)
        # Fresh mask: at leaf k it holds exactly leaves 0..k-1, which is
        # what the interleaved loop's reference gather saw at leaf k.
        mask = np.zeros((height, width), dtype=bool)
        reference = self._reference if self._inter_allowed else None
        if native.available():
            if native.reconstruct_slice(
                recon, mask, reference, plan.rows, plan.n_leaves, resid_offset, resid
            ):
                return recon
            telemetry.count("decode.kernel_refusals")
        self._apply_predictions(plan, resid_offset, resid, recon, mask)
        return recon

    def _apply_predictions(
        self,
        plan: LeafPlan,
        resid_offset: np.ndarray,
        resid: np.ndarray,
        recon: np.ndarray,
        mask: np.ndarray,
    ) -> None:
        """Pure-Python twin of ``native.reconstruct_slice``."""
        zeros = {
            n: np.zeros((n, n), dtype=np.float64)
            for n in np.unique(plan.field("size")).tolist()
        }
        leaves = plan.rows[:, : plan.n_leaves].T.tolist()
        for (y0, x0, size, mode, is_inter, ry, rx, _ctu, _coeff), offset in zip(
            leaves, resid_offset.tolist()
        ):
            if is_inter:
                prediction = self._reference[
                    ry : ry + size, rx : rx + size
                ].astype(np.float64)
            elif mode >= 0:
                top, left = intra.gather_references(recon, mask, y0, x0, size)
                prediction = intra.predict(top, left, mode, size)
            else:
                prediction = np.full((size, size), 128.0)
            if offset >= 0:
                residual = resid[offset : offset + size * size].reshape(size, size)
            else:
                residual = zeros[size]
            sl = (slice(y0, y0 + size), slice(x0, x0 + size))
            recon[sl] = np.clip(prediction + residual, 0.0, 255.0)
            mask[sl] = True


def _count_structure(stats: DecodeStats, plan: LeafPlan, n_ctus: int) -> None:
    """Structural ``decode.*`` counters, derived from a finished plan.

    The same numbers the reference decoder counts leaf by leaf; every
    split turns one quadtree node into four, hence the split count.
    Counters that would be zero are left absent, as it leaves them.
    """
    n_inter = int(plan.field("is_inter").sum())
    for name, value in (
        ("ctu", n_ctus),
        ("cu.leaf", plan.n_leaves),
        ("cu.split", (plan.n_leaves - n_ctus) // 3),
        ("mode.inter", n_inter),
        ("mode.intra", plan.n_leaves - n_inter),
    ):
        if value:
            stats.add_count(name, value)


@lru_cache(maxsize=64)
def _worker_header(raw_header: bytes) -> dict:
    """Parse (and memoise) a stream header inside a worker.

    Slice tasks ship the 21 raw header bytes instead of the unpacked
    frame-context dict, so a process pool pickles a tiny bytes object
    per task and each worker pays the parse once per distinct stream
    shape.  The returned dict is shared -- callers must not mutate it.
    """
    return unpack_header(raw_header)


def _decode_slices_worker(args) -> Tuple[List[np.ndarray], Optional[DecodeStats]]:
    """Decode a run of consecutive slices in isolation (picklable).

    Mirrors the strict-mode body of :meth:`FrameDecoder._decode_slice`:
    fresh entropy state per slice, the first frame's dither jumped to
    via the closed form, and the same exception wrapping so parallel
    failures surface as the identical :class:`CorruptStreamError`.  When
    the dispatcher is collecting telemetry (``parallel_map`` then runs
    this under a child registry) the run's :class:`DecodeStats` ledger
    travels back with the samples, so the parent publishes the same
    ``decode.*`` counters fanned out as it does serially; stage seconds
    then add up across workers and may exceed wall time.
    """
    raw_header, segments, first_index, pad_h, pad_w, ctus_per_frame = args
    header = _worker_header(raw_header)
    dec = FrameDecoder.__new__(FrameDecoder)
    dec._header = header
    dec._profile = PROFILES_BY_ID[header["profile_id"]]
    dec._conceal = False
    dec._parallel = None
    dec._registry = telemetry.current()
    dec._stats = DecodeStats() if dec._registry is not None else None
    dec._reference = None
    dec.report = ConcealmentReport()
    dither = QpDither.advanced(
        header["qp_base"], header["qp_frac"], first_index * ctus_per_frame
    )
    recons = []
    for frame_index, segment in enumerate(segments, first_index):
        dec._dec = BinaryDecoder(segment)
        dec._ctx = CodecContexts()
        try:
            recons.append(dec._decode_frame(pad_h, pad_w, frame_index, dither))
        except CorruptStreamError:
            raise
        except Exception as exc:
            raise CorruptStreamError(
                f"slice {frame_index}: undecodable ({type(exc).__name__}: {exc})"
            ) from exc
    return recons, dec._stats


def decode_frames(
    data: bytes,
    conceal: bool = False,
    parallel: Optional[ParallelConfig] = None,
) -> List[np.ndarray]:
    """Decode a complete bitstream into its frame sequence.

    Strict by default (raises :class:`CorruptStreamError` on damage);
    ``conceal=True`` decodes past damaged slices -- use
    :func:`decode_frames_with_report` when the concealment details
    matter.  ``parallel`` opts intra-only, undamaged streams into
    slice-parallel decoding (sample-identical to serial decode; streams
    below the slice/byte dispatch thresholds stay serial).
    """
    return FrameDecoder(data, conceal=conceal, parallel=parallel).decode()


def decode_frames_with_report(
    data: bytes, conceal: bool = True
) -> Tuple[List[np.ndarray], ConcealmentReport]:
    """Decode and return ``(frames, concealment report)``."""
    decoder = FrameDecoder(data, conceal=conceal)
    frames = decoder.decode()
    return frames, decoder.report
