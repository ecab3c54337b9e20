"""Bit-exact decoder for the bitstreams produced by :mod:`repro.codec.encoder`.

Version-2 streams are cut into one CRC32-framed slice per frame (see
``docs/RESILIENCE.md``).  The decoder verifies every slice checksum on
arrival -- damaged and missing slices never reach a stage -- and
supports two failure policies:

- **strict** (default): any damage raises
  :class:`~repro.resilience.errors.CorruptStreamError` -- no other
  exception type ever escapes a decode.
- **concealment** (``conceal=True``): a damaged slice is skipped and
  its frame synthesised by neighbour prediction (copy of the previous
  decoded frame) or mid-gray zero-fill for the first frame; decoding
  continues with the next slice and every patched region is listed in
  the returned :class:`~repro.resilience.errors.ConcealmentReport`.

Slices are decoded a *group* at a time -- as many consecutive slices as
fit in ``encoder.GROUP_SAMPLES`` padded samples (one 256 x 256 slice:
the bound pass 1 groups frames by), at least one; a KV page's four
one-CTU slices are one group, a 256 x 256 tile is a group of one, and an
inter stream, whose every frame needs the one before it, is groups of
one -- by two stages over one array plan (:class:`LeafPlan`):
*entropy -> reconstruct*.  Stage one drains every slice's range decoder
(a fresh coder and fresh contexts each) into the group's plan (modes,
motion vectors, coefficient scans); stage two walks every leaf in
decode order, one plane per slice: it makes a coded leaf's residual
(dequantize, zigzag unscan, the codec's order-defined inverse DCT over
the encoder's lru-cached basis / zigzag tables), predicts, adds and
clips.  Each stage is one GIL-free C call per group
(``native.plan_slices`` / ``native.reconstruct_slices``) with a Python
twin that produces and consumes the same arrays: ``_walk_slice`` per
slice, joined into the same group table, and the numpy batch in
``_batch_residuals`` (all same-size leaves of the group at once)
followed by ``_apply_predictions``.  What a slice costs beyond its
samples -- ctypes marshalling, array allocation, telemetry, the clip /
round / ``uint8`` pass -- is paid once per group.  The decoder picks per group from what
it observes, not from an option: kernels when ``native.available()``,
the twin otherwise (no compiler, ``LLM265_PURE_PYTHON=1``) and for any
slice a kernel refuses (``decode.kernel_refusals``; the other slices of
the group keep the kernel's result), so every error is raised by Python
code.  Instrumented decodes take the same body.  A slice's samples do
not depend on its group-mates (``tests/test_decode_groups.py``).

The interleaved per-leaf decoder this design replaced lives in
:mod:`repro.codec.reference`; it is sample-identical on every stream,
including corrupt-stream and concealment behaviour --
``tests/test_fast_decode.py``,
``tests/test_decode_fuzz.py``, ``tests/test_decode_groups.py`` and the
golden vectors enforce this.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec import encoder as _encoder
from repro.codec import intra
from repro.codec.encoder import _QSTEPS, QpDither, _effective_cpus, unpack_header
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryDecoder
from repro.codec.profiles import PROFILES_BY_ID
from repro.codec.syntax import (
    CodecContexts,
    decode_coeff_block_scanned,
    decode_intra_mode,
    decode_mv,
)
from repro.codec.transform import inverse_dct2_batch, zigzag_order
from repro.parallel import ParallelConfig, parallel_map
from repro.resilience.deadline import Deadline
from repro.resilience.errors import ConcealmentReport, CorruptStreamError
from repro.resilience.framing import deframe_slices
from repro.telemetry.codecstats import DecodeStats

#: Mid-gray sample used to zero-fill a concealed frame with no neighbour.
_CONCEAL_FILL = 128.0

#: Columns of a group's per-slice report, and the two plan rows that
#: change when a slice's plan moves in or out of a group's.
_STATUS, _POS, _RANGE, _CODE, _BINS, _LEAF_END, _LEVEL_END = range(
    len(native.SLICE_REPORT)
)
_CTU_INDEX = native.PLAN_FIELDS.index("ctu_index")
_COEFF_OFFSET = native.PLAN_FIELDS.index("coeff_offset")

#: Parallel decode dispatch thresholds.  Below either bound the fan-out
#: overhead (task submission, result hand-back, thread wake-up) costs
#: more than the decode itself, so the decoder silently stays serial.
#: Streams must have at least this many slices ...
_PARALLEL_MIN_SLICES = 4
#: ... and at least this many payload bytes (32 KiB) to fan out.
_PARALLEL_MIN_BYTES = 1 << 15


class LeafPlan:
    """Flat decode plan of a slice, or of a group of them slice after
    slice: one column per leaf, in decode order.

    ``rows`` is a C-contiguous ``(len(FIELDS), capacity)`` int64 table
    of which the first ``n_leaves`` columns are filled; ``levels``
    holds the quantized levels of every coded leaf, still in scan
    order, ``size * size`` of them starting at the leaf's
    ``coeff_offset``.  Conventions: ``mode`` is -1 where no intra mode
    was coded (inter leaves, streams without intra), ``ry``/``rx`` are
    the reference block origin of an inter leaf (else 0),
    ``ctu_index`` numbers the leaf's CTU in raster order, counting on
    from slice to slice of a group (its QP is looked up there), and
    ``coeff_offset`` is -1 for a cbf = 0 leaf.

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
        h = self._header = unpack_header(data)
        try:
            self._profile = PROFILES_BY_ID[h["profile_id"]]
        except KeyError:
            raise CorruptStreamError(f"unknown profile id {h['profile_id']}") from None
        self._raw_header = bytes(data[: h["header_size"]])
        self._payload = data[h["header_size"] :]
        self._conceal = conceal
        self._parallel = parallel
        # The decoder works on CTU-padded planes.
        self._pad_h = h["height"] + (-h["height"]) % h["ctu"]
        self._pad_w = h["width"] + (-h["width"]) % h["ctu"]
        self._ctus = (self._pad_h // h["ctu"]) * (self._pad_w // h["ctu"])
        self._begin()

    def _begin(self) -> None:
        """Fresh per-decode state (telemetry is looked up when decoding starts)."""
        self._ctx: Optional[CodecContexts] = None
        self._dec: Optional[BinaryDecoder] = None
        self._reference: Optional[np.ndarray] = None
        self._inter_allowed = False
        self._registry = telemetry.current()
        self._stats = DecodeStats() if self._registry is not None else None
        self.report = ConcealmentReport(total_slices=self._header["n_frames"])

    def decode(self) -> List[np.ndarray]:
        """Return the decoded frames (uint8, original dimensions)."""
        self._begin()
        h = self._header
        n_frames = h["n_frames"]
        try:
            return self._decode_frames(n_frames)
        except MemoryError:
            # A 21-byte header may declare planes no machine holds; the
            # planes are made as the slices decode, so this is where
            # the geometry meets the allocator.
            raise CorruptStreamError(
                f"declared geometry {h['width']} x {h['height']} x {n_frames} "
                f"frames does not fit in memory"
            ) from None

    def _decode_frames(self, n_frames: int) -> List[np.ndarray]:
        h = self._header
        slices, damage = deframe_slices(
            self._payload, expected=n_frames, strict=not self._conceal
        )
        reasons = dict(damage)
        # The two stages run once per group of consecutive slices: as
        # many as fit in the bound pass 1 groups frames by (one 256 x 256
        # slice's samples), at least one; an inter stream chains every
        # frame to the one before it, so its groups are single slices.
        per_group = (
            1
            if h["use_inter"]
            else max(1, _encoder.GROUP_SAMPLES // (self._pad_h * self._pad_w))
        )
        groups = -(-n_frames // per_group)

        par = self._parallel
        # Eligibility (slice independence) and profitability (payload
        # large enough to amortise fan-out) are separate questions: a
        # parallel-capable stream below the dispatch thresholds decodes
        # serially -- small payloads were measurably *slower* parallel.
        par_capable = (
            par is not None
            and not par.is_serial()
            and n_frames > 1
            and not h["use_inter"]
            and not self._conceal
            and not reasons
        )
        use_parallel = (
            par_capable
            and n_frames >= _PARALLEL_MIN_SLICES
            and len(self._payload) >= _PARALLEL_MIN_BYTES
            # A fan-out hands out whole groups, so what a worker batches
            # is what the serial loop batches.
            and groups > 1
            # On a single-CPU machine fan-out is pure overhead no matter
            # how large the payload: decode is CPU-bound end to end.
            and _effective_cpus() > 1
            # Threads only overlap work that releases the GIL: the two
            # whole-slice kernels.  The per-leaf Python of the twin
            # measured ~0.5x under threads.
            and native.available()
        )
        if par_capable and not use_parallel:
            telemetry.count("decode.parallel_threshold_fallbacks")
        with telemetry.span("frames.decode"):
            if use_parallel:
                # Every slice is independently decodable (fresh entropy
                # state, per-CTU QPs in closed form) and, with inter
                # prediction off, carries no cross-frame reference -- so
                # runs of groups decode concurrently to the exact samples
                # of the serial loop.  Concealment and inter streams stay
                # serial.  Tasks ship the raw header bytes (a worker
                # parses them once per task).  One task per worker that
                # can actually run (decode is CPU-bound),
                # each a run of consecutive groups: dispatching a task
                # costs about what a small slice takes to decode.
                runs = min(par.resolved_workers(), _effective_cpus(), groups)
                run = -(-groups // runs) * per_group
                outcomes = parallel_map(
                    _decode_run_worker,
                    [
                        (self._raw_header, slices[first : first + run], first, per_group)
                        for first in range(0, n_frames, run)
                    ],
                    par,
                    label="decode",
                    deadline=self._deadline,
                )
                frames = [frame for run_frames, _ in outcomes for frame in run_frames]
                if self._stats is not None:
                    for _, worker_stats in outcomes:
                        if worker_stats is not None:
                            self._stats.merge(worker_stats)
            else:
                frames = self._decode_run(slices, reasons, 0, per_group)
        if self._registry is not None:
            self._registry.count("decode.frames", n_frames)
            self._stats.publish(self._registry)
        return frames

    # -- per run of groups -----------------------------------------------

    def _decode_run(
        self, segments: List[Optional[bytes]], reasons: dict, first_index: int,
        per_group: int,
    ) -> List[np.ndarray]:
        """Consecutive slices, ``first_index`` onwards, as uint8 frames.

        The one body of the serial loop and of every fan-out worker.
        ``None`` segments are the slices ``deframe_slices`` found damaged
        or missing (``reasons`` says why, by frame index): they are left
        out of their group's stages and concealed afterwards, in frame
        order, as are the slices the stages could not decode.  Per-CTU
        QPs come from the dither in closed form, so neither kind of
        damage can misalign a later slice.  Clip / round / ``uint8`` run
        once over the group's plane stack.  The deadline is polled once
        per group: at most one 256 x 256 slice's work apart.
        """
        h = self._header
        height, width = h["height"], h["width"]
        frames: List[np.ndarray] = []
        for start in range(0, len(segments), per_group):
            if self._deadline is not None:
                self._deadline.check("frames.decode")
            group = segments[start : start + per_group]
            first = first_index + start
            live = [k for k, segment in enumerate(group) if segment is not None]
            qps = QpDither.advanced(
                h["qp_base"], h["qp_frac"], first * self._ctus
            ).take(len(group) * self._ctus)
            if len(live) < len(group):
                qps = qps.reshape(len(group), -1)[live].reshape(-1)
            planes, failed = None, []
            if live:
                with telemetry.span("group"):
                    planes, failed = self._decode_group(
                        [group[k] for k in live], [first + k for k in live], qps
                    )
            if len(live) < len(group) or failed:
                # Concealment planes are made as they are needed, in
                # frame order: each repeats the frame before it.
                decoded = {
                    k: planes[i] for i, k in enumerate(live) if i not in failed
                }
                planes = np.empty((len(group), self._pad_h, self._pad_w))
                for k, segment in enumerate(group):
                    if k in decoded:
                        planes[k] = decoded[k]
                    else:
                        planes[k] = self._conceal_frame(
                            first + k,
                            reasons.get(first + k, "slice missing")
                            if segment is None
                            else "undecodable slice",
                        )
                    self._reference = planes[k]
            self._reference = planes[-1]
            frames.extend(
                np.clip(np.rint(planes[:, :height, :width]), 0, 255).astype(np.uint8)
            )
        return frames

    def _conceal_frame(self, frame_index: int, reason: str) -> np.ndarray:
        """Synthesise a frame for a damaged slice."""
        self.report.concealed.append((frame_index, reason))
        if self._registry is not None:
            self._registry.count("decode.slices_concealed")
        if self._reference is not None:
            return self._reference  # neighbour (temporal) prediction
        return np.full((self._pad_h, self._pad_w), _CONCEAL_FILL, dtype=np.float64)

    # -- per group: entropy -> reconstruct --------------------------------
    #
    # Bit-exactness argument, against the interleaved reference decoder
    # (repro.codec.reference).  Stage one touches every adaptive context
    # in exactly its order (the quadtree walk is identical; mode
    # decoding depends only on *neighbour modes*, which the walk records
    # leaf by leaf, never on pixels), so the entropy decode consumes
    # identical bins and fails on identical inputs.  Stage two's
    # dequantize is the same elementwise multiply the reference performs
    # per leaf and the inverse DCT is the codec's one order-defined
    # transform on every path (in C, the encoder's own body).  It
    # replays prediction in decode order against a reconstruction mask
    # that is, at every leaf, the exact mask the interleaved loop would
    # have had; its C form evaluates the same expressions in the same
    # order with no fused multiply-add (docs/PERFORMANCE.md).  A slice's
    # leaves, levels and residual grids are elementwise functions of
    # that slice alone, so which slices share its group cannot change a
    # sample.

    def _decode_group(
        self, segments: List[bytes], indices: List[int], qps: np.ndarray
    ) -> Tuple[np.ndarray, List[int]]:
        """The two stages over one group of slices.

        ``segments[i]`` is the slice of frame ``indices[i]`` and ``qps``
        holds one QP per CTU of these slices, in order.  Returns the
        float64 ``(len(segments), padded height, padded width)`` plane
        stack and the positions in it of the slices that could not be
        decoded (concealment mode only: strict mode raises for the first
        of them), whose planes are to be ignored.
        """
        h = self._header
        stats = self._stats
        self._inter_allowed = (
            h["use_inter"] and indices[0] > 0 and self._reference is not None
        )
        if self._registry is not None:
            for qp in qps.tolist():
                self._registry.observe("decode.qp", qp)

        # Stage 1: drain every slice's range decoder into the group's plan.
        started = time.perf_counter() if stats is not None else 0.0
        with telemetry.span("decode.entropy"):
            plan, report = self._plan_group(segments, indices)
        failed = np.flatnonzero(report[:, _STATUS]).tolist()
        leaf_end = np.ascontiguousarray(report[:, _LEAF_END])
        if stats is not None:
            now = time.perf_counter()
            stats.add_seconds("entropy", now - started)
            stats.add_count("coeff_bins", int(report[report[:, _STATUS] == 0, _BINS].sum()))
            _count_structure(stats, plan, (len(segments) - len(failed)) * self._ctus)
            started = now

        # Stage 2: residuals and prediction in dependency (decode) order,
        # plane by plane.
        with telemetry.span("decode.reconstruct"):
            planes = self._reconstruct(plan, leaf_end, qps, h["use_transform"])
        if stats is not None:
            stats.add_seconds("reconstruct", time.perf_counter() - started)
        return planes, failed

    def _plan_group(
        self, segments: List[bytes], indices: List[int]
    ) -> Tuple[LeafPlan, np.ndarray]:
        """Stage one: the slice kernel over the group, else (or after it) the walk.

        Returns the group's plan and its ``(slices, len(native.SLICE_REPORT))``
        report: status, coder end state, ``scan_bins`` and the leaf /
        level counts after each slice.  The kernel decodes every slice
        it accepts in one call; a slice it refuses -- it formats no
        error -- is decoded again, alone and from a fresh coder, by the
        Python walk, which raises the canonical typed error at the same
        bin it always did.  Strict mode lets the first such error out;
        concealment mode marks the slice failed (status != 0, no leaves)
        and goes on.  Without the kernels the walk decodes every slice
        and the per-slice plans are joined into the same group table.
        """
        h = self._header
        height, width = self._pad_h, self._pad_w
        report = None
        if native.available() and (
            not self._inter_allowed or self._reference.shape == (height, width)
        ):
            # Exact upper bounds: no leaf is smaller than 4 x 4 (or than
            # a CTU when partitioning is off) and coded areas are disjoint.
            smallest = max(4, h["min_cu"] if h["use_partition"] else h["ctu"])
            leaf_cap = len(segments) * (height // smallest) * (width // smallest)
            rows = np.empty((len(LeafPlan.FIELDS), leaf_cap), dtype=np.int64)
            levels = np.empty(len(segments) * height * width, dtype=np.int64)
            report = native.plan_slices(
                segments, height, width, h["ctu"], h["min_cu"], h["use_partition"],
                h["use_intra"], self._inter_allowed, self._profile.all_modes,
                rows, levels,
            )
            if report is not None and not report[:, _STATUS].any():
                n_leaves, n_levels = report[-1, _LEAF_END:].tolist()
                return LeafPlan(rows, levels[:n_levels], n_leaves), report
        parts: List[Optional[LeafPlan]] = []
        states = np.zeros((len(segments), len(native.SLICE_REPORT)), dtype=np.int64)
        for k, segment in enumerate(segments):
            if report is not None and report[k, _STATUS] == 0:
                parts.append(_slice_of(rows, levels, report, k, self._ctus))
                states[k] = report[k]
                continue
            if report is not None:
                telemetry.count("decode.kernel_refusals")
            try:
                parts.append(self._walk_slice(segment))
            except Exception as exc:
                self._undecodable(exc, indices[k])
                parts.append(None)
                states[k, _STATUS] = 1
            else:
                dec = self._dec
                states[k, _POS : _BINS + 1] = dec._pos, dec._range, dec._code, dec.scan_bins
        return _join_plans(parts, states, self._ctus), states

    def _undecodable(self, exc: Exception, frame_index: int) -> None:
        """A CRC-valid slice failed to parse: raise (strict) or return (conceal)."""
        if self._conceal:
            return
        if isinstance(exc, CorruptStreamError):
            raise exc
        # Crafted or colliding damage must not leak raw IndexError/EOFError.
        raise CorruptStreamError(
            f"slice {frame_index}: undecodable ({type(exc).__name__}: {exc})"
        ) from exc

    def _walk_slice(self, segment: bytes) -> LeafPlan:
        """Pure-Python twin of ``native.plan_slices`` for one slice.

        Fresh entropy state -- what makes slices independently decodable
        (and bit-exact with the encoder) -- left in ``_dec`` / ``_ctx``
        for the caller to read; the plan is the slice's own (level
        offsets and CTU indices start at 0).
        """
        self._dec = BinaryDecoder(segment)
        self._ctx = CodecContexts()
        height, width = self._pad_h, self._pad_w
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
        self, y0: int, x0: int, size: int, depth: int, ctu_index: int,
        leaves: List[tuple], scans: List[np.ndarray],
    ) -> None:
        h = self._header
        if h["use_partition"] and size > h["min_cu"]:
            if self._dec.decode_bit(self._ctx.split, min(depth, 5)):
                half = size // 2
                for qy in (0, 1):
                    for qx in (0, 1):
                        self._plan_cu(
                            y0 + qy * half, x0 + qx * half, half, depth + 1,
                            ctu_index, leaves, scans,
                        )
                return
        self._plan_leaf(y0, x0, size, ctu_index, leaves, scans)

    def _plan_leaf(
        self, y0: int, x0: int, size: int, ctu_index: int,
        leaves: List[tuple], scans: List[np.ndarray],
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
        self, plan: LeafPlan, qps: np.ndarray, use_transform: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dequantize + inverse-transform every coded leaf, batched by size.

        The numpy half of stage two's twin.  Returns ``(resid_offset,
        resid)``: the row-major residual grids of all coded leaves
        concatenated into one float64 vector, and per leaf the offset of
        its grid in it -- -1 for cbf=0 leaves, whose residual is exactly
        zero and is added as such by the prediction pass (the IDCT of an
        all-zero block is also exactly zero).
        """
        sizes = plan.field("size")
        coeff = plan.field("coeff_offset")
        coded = coeff >= 0
        steps = _QSTEPS[qps][plan.field("ctu_index")]
        resid_offset = np.full(plan.n_leaves, -1, dtype=np.int64)
        grids_by_size: List[np.ndarray] = []
        total = 0
        for n in np.unique(sizes[coded]).tolist():
            indices = np.flatnonzero(coded & (sizes == n))
            area = n * n
            scan_rows = plan.levels[coeff[indices, None] + np.arange(area)]
            # Same elementwise product as per-leaf ``dequantize``; the
            # zigzag unscan is one fancy-index store across the batch.
            dequant = scan_rows.astype(np.float64) * steps[indices, None]
            flat = np.empty((len(indices), area), dtype=np.float64)
            flat[:, zigzag_order(n)] = dequant
            grids = flat.reshape(len(indices), n, n)
            if use_transform:
                grids = inverse_dct2_batch(grids)
            resid_offset[indices] = total + area * np.arange(len(indices))
            grids_by_size.append(grids.reshape(-1))
            total += grids.size
        if not grids_by_size:
            return resid_offset, np.empty(0, dtype=np.float64)
        return resid_offset, np.concatenate(grids_by_size)

    def _reconstruct(
        self, plan: LeafPlan, leaf_end: np.ndarray, qps: np.ndarray,
        use_transform: bool,
    ) -> np.ndarray:
        """Stage two: the reconstruct kernel, else its twin.

        One float64 plane per slice; slice ``k`` is the leaves
        ``leaf_end[k - 1] .. leaf_end[k]`` of the plan and ``qps`` holds
        one QP per CTU of the group.
        """
        shape = (len(leaf_end), self._pad_h, self._pad_w)
        recon = np.zeros(shape, dtype=np.float64)
        # Fresh masks: at leaf k a slice's holds exactly its leaves
        # 0..k-1, which is what the interleaved loop's reference gather
        # saw at leaf k.
        mask = np.zeros(shape, dtype=bool)
        if native.available():
            reference = self._reference if self._inter_allowed else None
            if native.reconstruct_slices(
                recon, mask, reference, plan.rows, leaf_end, plan.levels,
                _QSTEPS[qps], use_transform,
            ):
                return recon
            telemetry.count("decode.kernel_refusals")
        resid_offset, resid = self._batch_residuals(plan, qps, use_transform)
        start = 0
        for k, end in enumerate(leaf_end.tolist()):
            self._apply_predictions(
                plan, start, end, resid_offset, resid, recon[k], mask[k]
            )
            start = end
        return recon

    def _apply_predictions(
        self, plan: LeafPlan, start: int, end: int, resid_offset: np.ndarray,
        resid: np.ndarray, recon: np.ndarray, mask: np.ndarray,
    ) -> None:
        """The prediction half of stage two's twin, for one plane: the
        leaves ``start .. end`` of the plan, adding the grids
        :meth:`_batch_residuals` made."""
        zeros = {
            n: np.zeros((n, n), dtype=np.float64)
            for n in np.unique(plan.field("size")).tolist()
        }
        leaves = plan.rows[:, start:end].T.tolist()
        for (y0, x0, size, mode, is_inter, ry, rx, _ctu, _coeff), offset in zip(
            leaves, resid_offset[start:end].tolist()
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


def _slice_of(
    rows: np.ndarray, levels: np.ndarray, report: np.ndarray, k: int, ctus: int
) -> LeafPlan:
    """Slice ``k`` of a group's plan as a plan of its own (a copy): level
    offsets and CTU indices start at 0, as ``_walk_slice`` returns them."""
    leaf_start, level_start = report[k - 1, _LEAF_END:] if k else (0, 0)
    leaf_end, level_end = report[k, _LEAF_END:]
    own = rows[:, leaf_start:leaf_end].copy()
    own[_CTU_INDEX] -= k * ctus
    offsets = own[_COEFF_OFFSET]
    offsets[offsets >= 0] -= level_start
    return LeafPlan(own, levels[level_start:level_end], int(leaf_end - leaf_start))


def _join_plans(
    parts: List[Optional[LeafPlan]], report: np.ndarray, ctus: int
) -> LeafPlan:
    """Per-slice plans (``None``: nothing decoded) as one group plan.

    The layout ``native.plan_slices`` fills: columns and levels slice
    after slice, ``coeff_offset`` into the one level buffer, ``ctu_index``
    counting on (``k * ctus`` at slice ``k``).  Writes the running leaf /
    level ends into ``report``.
    """
    empty = LeafPlan(
        np.empty((len(LeafPlan.FIELDS), 0), dtype=np.int64), np.empty(0, dtype=np.int64), 0
    )
    parts = [empty if part is None else part for part in parts]
    report[:, _LEAF_END] = np.cumsum([part.n_leaves for part in parts])
    report[:, _LEVEL_END] = np.cumsum([len(part.levels) for part in parts])
    rows = np.concatenate([part.rows[:, : part.n_leaves] for part in parts], axis=1)
    for k, part in enumerate(parts):
        own = rows[:, report[k, _LEAF_END] - part.n_leaves : report[k, _LEAF_END]]
        own[_CTU_INDEX] += k * ctus
        offsets = own[_COEFF_OFFSET]
        offsets[offsets >= 0] += report[k, _LEVEL_END] - len(part.levels)
    return LeafPlan(
        rows, np.concatenate([part.levels for part in parts]), rows.shape[1]
    )


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


def _decode_run_worker(args) -> Tuple[List[np.ndarray], Optional[DecodeStats]]:
    """Decode a run of consecutive groups in isolation (parallel worker body).

    Tasks carry the raw header bytes, not the dispatching decoder: a
    decoder over a header alone shares no state with other pool
    threads, it is a strict decoder for that stream shape, and its
    :meth:`FrameDecoder._decode_run` is the body the serial loop runs,
    so parallel failures surface as the identical
    :class:`CorruptStreamError`.  When the dispatcher is collecting
    telemetry (``parallel_map`` then runs this under a child registry)
    the run's :class:`DecodeStats` ledger travels back with the frames,
    so a fanned-out decode publishes the ``decode.*`` counters a serial
    one does; stage seconds add up across workers and may exceed wall
    time.
    """
    raw_header, segments, first_index, per_group = args
    decoder = FrameDecoder(raw_header)
    return decoder._decode_run(segments, {}, first_index, per_group), decoder._stats


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
