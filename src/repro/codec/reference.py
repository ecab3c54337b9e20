"""The codec's reference implementations, and the ablations production refuses.

The code production is compared against, the slow and obvious way: one
scalar prediction per candidate mode, quantizer calls instead of
inlined arithmetic, one primitive coder call per bin, and a decoder
that interleaves entropy decoding with reconstruction leaf by leaf.  It
exists so that tests and fuzzers have something independent to hold
the production code to -- and so that the Figure 2(b) / Figure 13
ablations have an encoder: :class:`repro.codec.encoder.FrameEncoder` is
the two-pass intra search alone and refuses inter prediction, intra
prediction off and the transform off.  ``codec.pipeline`` and the
benchmarks that measure those stages call this module by name.

Nothing that serves a request imports this module -- not
``repro.tensor``, ``repro.serving``, ``repro.cluster`` or ``repro.cli``
(tests/test_reference_codec.py asserts it) -- and no option selects
it: callers name it explicitly.

- :class:`ReferenceEncoder` is the exact per-leaf search under every
  stage flag: a quadtree recursion that costs each leaf against its
  split, a scalar intra mode search (reference walk, per-mode
  prediction, :func:`quantize` / :func:`dequantize` calls), a diamond
  motion search for inter leaves, and the primitive-call coefficient
  writer.  Header, slice framing, QP dither and the split / intra-mode
  syntax are :class:`FrameEncoder`'s.  Its streams are pinned by hash
  (tests/test_reference_encode.py).
- :class:`ReferenceDecoder` is :class:`FrameDecoder` with its per-group
  hook overridden by one interleaved loop per slice; header parsing,
  slice framing, concealment and error wrapping are the production
  decoder's.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec import intra
from repro.codec.decoder import FrameDecoder
from repro.codec.encoder import (
    EncodeResult,
    EncoderConfig,
    FrameEncoder,
    QpDither,
    _Plan,
)
from repro.codec.entropy.arithmetic import BinaryDecoder, BinaryEncoder
from repro.codec.intra import _DEFAULT_SAMPLE, most_probable_modes, predict
from repro.codec.quantizer import dequantize, qstep, quantize, rd_lambda
from repro.codec.syntax import (
    _LAST_PREFIX,
    _LEVEL_PREFIX,
    CodecContexts,
    _sig_ctx,
    decode_intra_mode,
    decode_mv,
    encode_coeff_block_primitive,
    encode_mv,
    size_class,
)
from repro.codec.transform import (
    forward_dct2_batch,
    inverse_dct2_batch,
    zigzag_order,
    zigzag_unscan,
)
from repro.resilience.deadline import Deadline
from repro.resilience.errors import ConcealmentReport, CorruptStreamError

__all__ = [
    "ReferenceDecoder",
    "ReferenceEncoder",
    "decode_coeff_block",
    "decode_frames",
    "decode_frames_with_report",
    "encode_frames",
    "estimate_mode_bits",
    "gather_references_scalar",
    "predict_batch",
]


# -- scalar primitives ---------------------------------------------------


def gather_references_scalar(
    recon: np.ndarray, mask: np.ndarray, y0: int, x0: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample reference walk, bit-identical to
    :func:`repro.codec.intra.gather_references` (numpy walk and refs
    kernel)."""
    height, width = recon.shape
    # Boundary walk: left column bottom-to-top, corner, top row left-to-right.
    coords: List[Tuple[int, int]] = []
    for i in range(2 * n, 0, -1):
        coords.append((y0 + i - 1, x0 - 1))
    coords.append((y0 - 1, x0 - 1))
    for i in range(1, 2 * n + 1):
        coords.append((y0 - 1, x0 + i - 1))

    values = np.empty(len(coords), dtype=np.float64)
    available = np.zeros(len(coords), dtype=bool)
    for idx, (r, c) in enumerate(coords):
        if 0 <= r < height and 0 <= c < width and mask[r, c]:
            values[idx] = recon[r, c]
            available[idx] = True

    if not available.any():
        values[:] = _DEFAULT_SAMPLE
    else:
        first = int(np.argmax(available))
        values[:first] = values[first]
        available[:first] = True
        for idx in range(first + 1, len(coords)):
            if not available[idx]:
                values[idx] = values[idx - 1]

    left = values[: 2 * n + 1][::-1].copy()  # left[0] = corner, then downward
    top = values[2 * n :].copy()  # top[0] = corner, then rightward
    return top, left


def predict_batch(
    top: np.ndarray, left: np.ndarray, modes: List[int], n: int
) -> np.ndarray:
    """Predictions for several candidate modes, shape (m, n, n): one
    :func:`repro.codec.intra.predict` call per mode (production batches
    them in :func:`repro.codec.intra.predict_many`)."""
    return np.stack([predict(top, left, mode, n) for mode in modes])


def decode_coeff_block(
    dec: BinaryDecoder, ctx: CodecContexts, n: int
) -> np.ndarray:
    """Primitive-call inverse of :func:`repro.codec.syntax.encode_coeff_block`;
    returns an ``n`` x ``n`` grid."""
    cls = size_class(n)
    scanned = np.zeros(n * n, dtype=np.int64)
    if dec.decode_bit(ctx.cbf, 0) == 0:
        return zigzag_unscan(scanned, n)
    last = dec.decode_ueg(ctx.last, cls * _LAST_PREFIX, _LAST_PREFIX, k=1)
    if last >= n * n:
        raise CorruptStreamError("corrupt stream: last coefficient out of range")
    for i in range(last, -1, -1):
        if i != last:
            significant = dec.decode_bit(ctx.sig, _sig_ctx(cls, i, n))
            if not significant:
                continue
        magnitude = (
            dec.decode_ueg(ctx.level, cls * _LEVEL_PREFIX, _LEVEL_PREFIX, k=1) + 1
        )
        sign = dec.decode_bypass()
        scanned[i] = -magnitude if sign else magnitude
    return zigzag_unscan(scanned, n)


def estimate_mode_bits(
    mode: int, left_mode: Optional[int], top_mode: Optional[int]
) -> float:
    """Rate proxy for intra mode signalling (scalar form of
    :func:`repro.codec.syntax.estimate_mode_bits_many`)."""
    mpm = most_probable_modes(left_mode, top_mode)
    return 2.0 if mode in mpm else 6.5


# -- encoder --------------------------------------------------------------

#: Inter motion search radius (full pel).
SEARCH_RANGE = 7


class ReferenceEncoder(FrameEncoder):
    """The exact search and the stage ablations, spelled out.

    ``config`` supplies profile, QP and stage flags -- any combination,
    the ones :class:`FrameEncoder` refuses included.  The search is
    always the exact one, serial and pure Python, whatever ``encode`` /
    ``parallel`` say.
    """

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        super().__init__(
            dataclasses.replace(
                config or EncoderConfig(), encode="python", parallel=None
            )
        )

    def _check_stages(self) -> None:
        """Every stage flag is served here."""

    # -- per-frame ---------------------------------------------------------

    def _encode_group(
        self, planes: np.ndarray, dither: QpDither, analysis=None
    ) -> Iterator[Tuple[bytes, np.ndarray]]:
        """No pass 1: the group's frames one at a time, each searched and
        written from a fresh coder and fresh contexts, yielded as it is
        done -- an inter frame needs the reconstruction of the one before.
        A held pass-1 ``analysis`` has nothing to serve here and is ignored.

        ``dither.take`` is ``next`` repeated, so frames and CTUs draw the
        QPs in the order a CTU-by-CTU loop would.
        """
        count, height, width = planes.shape
        ctu = self._ctu
        qps = dither.take(planes.size // ctu**2).reshape(count, height // ctu, -1)
        for plane, frame_qps in zip(planes, qps):
            enc = BinaryEncoder()
            self._reference = self._encode_frame(enc, CodecContexts(), plane, frame_qps)
            yield enc.finish(), self._reference

    def _encode_frame(
        self,
        enc: BinaryEncoder,
        ctx: CodecContexts,
        frame: np.ndarray,
        qps: np.ndarray,
    ) -> np.ndarray:
        """Plan and write one frame CTU by CTU (``qps``: each CTU's QP)."""
        height, width = frame.shape
        self._frame = frame
        self._recon = np.zeros((height, width), dtype=np.float64)
        self._mask = np.zeros((height, width), dtype=bool)
        self._modes = np.full((height, width), -1, dtype=np.int16)
        # The previous frame's reconstruction is the reference.
        self._inter_allowed = self.config.use_inter and self._reference is not None
        stats = self._stats
        ctu = self._ctu
        for cy, row in enumerate(qps.tolist()):
            for cx, qp in enumerate(row):
                self._qp = qp
                self._qstep = qstep(qp)
                self._lambda = rd_lambda(qp)
                y0, x0 = cy * ctu, cx * ctu
                if stats is None:
                    _, plan = self._plan_cu(y0, x0, ctu, depth=0)
                    self._write_cu(enc, ctx, plan, y0, x0, ctu, depth=0)
                    continue
                stats.add_count("ctu")
                stats.add_qp(qp)
                t0 = perf_counter()
                _, plan = self._plan_cu(y0, x0, ctu, depth=0)
                t1 = perf_counter()
                self._write_cu(enc, ctx, plan, y0, x0, ctu, depth=0)
                stats.add_seconds("plan", t1 - t0)
                stats.add_seconds("write", perf_counter() - t1)
        return self._recon

    # -- planning ----------------------------------------------------------

    def _save(self, y0: int, x0: int, size: int):
        sl = (slice(y0, y0 + size), slice(x0, x0 + size))
        return (
            self._recon[sl].copy(),
            self._mask[sl].copy(),
            self._modes[sl].copy(),
        )

    def _restore(self, y0: int, x0: int, size: int, state) -> None:
        sl = (slice(y0, y0 + size), slice(x0, x0 + size))
        self._recon[sl], self._mask[sl], self._modes[sl] = (
            state[0].copy(),
            state[1].copy(),
            state[2].copy(),
        )

    def _plan_cu(self, y0: int, x0: int, size: int, depth: int) -> Tuple[float, _Plan]:
        can_split = self.config.use_partition and size > self._min_cu
        before = self._save(y0, x0, size)
        leaf_cost, leaf_plan = self._plan_leaf(y0, x0, size)
        if not can_split:
            return leaf_cost, leaf_plan
        leaf_state = self._save(y0, x0, size)
        self._restore(y0, x0, size, before)

        half = size // 2
        split_cost = self._lambda  # split flag ~1 bit
        children: List[_Plan] = []
        for qy in (0, 1):
            for qx in (0, 1):
                c_cost, c_plan = self._plan_cu(
                    y0 + qy * half, x0 + qx * half, half, depth + 1
                )
                split_cost += c_cost
                children.append(c_plan)
        if leaf_cost + self._lambda <= split_cost:
            self._restore(y0, x0, size, leaf_state)
            return leaf_cost + self._lambda, leaf_plan
        return split_cost, ("split", children)

    def _plan_leaf(self, y0: int, x0: int, size: int) -> Tuple[float, _Plan]:
        best_cost, best_plan = self._plan_leaf_intra(y0, x0, size)
        if self._inter_allowed:
            inter_cost, inter_plan = self._plan_leaf_inter(y0, x0, size)
            # ~1 bit to signal the prediction type either way.
            if inter_cost < best_cost:
                best_cost, best_plan = inter_cost, inter_plan
                self._commit_leaf(y0, x0, size, best_plan)
            best_cost += self._lambda
        return best_cost, best_plan

    def _plan_leaf_intra(self, y0: int, x0: int, size: int) -> Tuple[float, _Plan]:
        if self.config.use_intra:
            return self._search_intra(y0, x0, size)
        orig = self._frame[y0 : y0 + size, x0 : x0 + size]
        prediction = np.full((size, size), 128.0)
        cost, levels, recon = self._code_residual(orig, prediction[None])
        self._commit_block(y0, x0, size, recon[0], intra.DC)
        return cost[0], ("leaf", None, False, (0, 0), levels[0])

    def _search_intra(
        self, y0: int, x0: int, size: int
    ) -> Tuple[float, _Plan]:
        """The exact intra mode search, one scalar prediction per mode.

        Every coarse candidate is coded and costed, then the winner's
        refine set; the best mode's reconstruction is committed.
        """
        cfg = self.config
        orig = self._frame[y0 : y0 + size, x0 : x0 + size]
        top, left = gather_references_scalar(
            self._recon, self._mask, y0, x0, size
        )
        left_mode = self._neighbor_mode(y0, x0 - 1)
        top_mode = self._neighbor_mode(y0 - 1, x0)

        modes = list(cfg.profile.coarse_modes())
        preds = predict_batch(top, left, modes, size)
        costs, levels, recons = self._code_residual(orig, preds)
        mode_bits = np.array(
            [estimate_mode_bits(m, left_mode, top_mode) for m in modes]
        )
        costs = costs + self._lambda * mode_bits
        best = int(np.argmin(costs))

        refine = cfg.profile.refine_modes(modes[best])
        if refine:
            r_modes = list(refine)
            r_preds = predict_batch(top, left, r_modes, size)
            r_costs, r_levels, r_recons = self._code_residual(orig, r_preds)
            r_costs = r_costs + self._lambda * np.array(
                [estimate_mode_bits(m, left_mode, top_mode) for m in r_modes]
            )
            r_best = int(np.argmin(r_costs))
            if r_costs[r_best] < costs[best]:
                plan = ("leaf", r_modes[r_best], False, (0, 0), r_levels[r_best])
                self._commit_block(y0, x0, size, r_recons[r_best], r_modes[r_best])
                return float(r_costs[r_best]), plan

        plan = ("leaf", modes[best], False, (0, 0), levels[best])
        self._commit_block(y0, x0, size, recons[best], modes[best])
        return float(costs[best]), plan

    def _plan_leaf_inter(self, y0: int, x0: int, size: int) -> Tuple[float, _Plan]:
        orig = self._frame[y0 : y0 + size, x0 : x0 + size]
        mv = self._motion_search(y0, x0, size)
        prediction = self._motion_compensate(y0, x0, size, mv)
        costs, levels, recons = self._code_residual(orig, prediction[None])
        mv_bits = 2.0 + 2.0 * (np.log2(abs(mv[0]) + 1) + np.log2(abs(mv[1]) + 1))
        cost = float(costs[0]) + self._lambda * mv_bits
        return cost, ("leaf", None, True, mv, levels[0])

    def _motion_search(self, y0: int, x0: int, size: int) -> Tuple[int, int]:
        """Diamond search over the previous reconstructed frame.

        The full candidate window is sliced out of the reference once
        up front (probes index into it) and the search terminates as
        soon as a zero-SAD match is found -- no candidate can beat it,
        so the result is unchanged.  Both tweaks matter for static
        content, where the zero vector is an exact match for most CUs.
        """
        assert self._reference is not None
        ref = self._reference
        height, width = ref.shape
        orig = self._frame[y0 : y0 + size, x0 : x0 + size]
        radius = SEARCH_RANGE
        wy0 = max(0, y0 - radius)
        wx0 = max(0, x0 - radius)
        window = ref[wy0 : min(height, y0 + size + radius),
                     wx0 : min(width, x0 + size + radius)]

        def sad(dy: int, dx: int) -> float:
            ry, rx = y0 + dy, x0 + dx
            if ry < 0 or rx < 0 or ry + size > height or rx + size > width:
                return np.inf
            oy, ox = ry - wy0, rx - wx0
            return float(np.abs(window[oy : oy + size, ox : ox + size] - orig).sum())

        best = (0, 0)
        best_sad = sad(0, 0)
        if best_sad == 0.0:
            return best
        step = max(1, radius // 2)
        while step >= 1:
            improved = True
            while improved:
                improved = False
                for dy, dx in ((-step, 0), (step, 0), (0, -step), (0, step)):
                    cand = (best[0] + dy, best[1] + dx)
                    if max(abs(cand[0]), abs(cand[1])) > radius:
                        continue
                    value = sad(*cand)
                    if value < best_sad:
                        best, best_sad = cand, value
                        improved = True
                        if best_sad == 0.0:
                            return best
            step //= 2
        return best

    def _motion_compensate(
        self, y0: int, x0: int, size: int, mv: Tuple[int, int]
    ) -> np.ndarray:
        assert self._reference is not None
        ry, rx = y0 + mv[0], x0 + mv[1]
        return self._reference[ry : ry + size, rx : rx + size].astype(np.float64)

    def _code_residual(
        self, orig: np.ndarray, predictions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Transform (unless ``use_transform`` is off) and quantize the
        residuals of a batch of predictions through the quantizer's
        public functions.

        Returns ``(rd_costs, levels, reconstructions)``, the batch axis
        first.
        """
        cfg = self.config
        size = orig.shape[0]
        residuals = orig[None] - predictions
        if cfg.use_transform:
            coeffs = forward_dct2_batch(residuals)
        else:
            coeffs = residuals
        levels = quantize(coeffs, self._qp, deadzone=cfg.profile.deadzone)
        dequant = dequantize(levels, self._qp)
        if cfg.use_transform:
            resid_rec = inverse_dct2_batch(dequant)
        else:
            resid_rec = dequant
        recons = np.clip(predictions + resid_rec, 0.0, 255.0)
        sse = np.sum((recons - orig[None]) ** 2, axis=(1, 2))

        # Vectorised rate proxy (mirrors syntax.estimate_coeff_bits).
        zz = zigzag_order(size)
        scanned = levels.reshape(levels.shape[0], -1)[:, zz]
        mags = np.abs(scanned).astype(np.float64)
        nonzero = mags > 0
        any_nz = nonzero.any(axis=1)
        last = np.where(
            any_nz, size * size - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1
        )
        level_bits = np.sum(
            np.where(nonzero, 2.0 * np.log2(mags + 1.0) + 2.0, 0.0), axis=1
        )
        bits = np.where(any_nz, 4.0 + (last + 1) + level_bits, 1.0)
        return sse + self._lambda * bits, levels, recons

    def _commit_leaf(self, y0: int, x0: int, size: int, plan: _Plan) -> None:
        """Re-apply a chosen plan's reconstruction (used after inter wins)."""
        _, mode, is_inter, mv, levels = plan
        if is_inter:
            prediction = self._motion_compensate(y0, x0, size, mv)
        else:
            top, left = intra.gather_references(
                self._recon, self._mask, y0, x0, size
            )
            prediction = (
                intra.predict(top, left, mode, size)
                if mode is not None
                else np.full((size, size), 128.0)
            )
        dequant = dequantize(levels[None], self._qp)
        if self.config.use_transform:
            resid = inverse_dct2_batch(dequant)[0]
        else:
            resid = dequant[0]
        recon = np.clip(prediction + resid, 0.0, 255.0)
        self._commit_block(y0, x0, size, recon, mode if mode is not None else intra.DC)

    # -- serialization -----------------------------------------------------

    def _write_leaf(
        self, enc: BinaryEncoder, ctx: CodecContexts, plan: _Plan, y0: int, x0: int
    ) -> None:
        """A leaf with the inter syntax: its prediction flag once a
        reference exists, then a motion vector, or else its intra mode
        (none with intra prediction off), then its coefficient block."""
        _, mode, is_inter, mv, levels = plan
        stats = self._stats
        if stats is not None:
            stats.add_count("cu.leaf")
            stats.add_count("mode.inter" if is_inter else "mode.intra")
        if self._inter_allowed:
            mark = enc.tell_bits() if stats is not None else 0
            enc.encode_bit(ctx.pred_flag, 0, 1 if is_inter else 0)
            if stats is not None:
                stats.add_bits("pred_flag", enc.tell_bits() - mark)
        if is_inter:
            mark = enc.tell_bits() if stats is not None else 0
            encode_mv(enc, ctx, mv)
            if stats is not None:
                stats.add_bits("mv", enc.tell_bits() - mark)
        elif self.config.use_intra:
            self._write_intra_mode(enc, ctx, mode, y0, x0)
        self._write_coeffs(enc, ctx, levels)

    def _write_coeffs(
        self, enc: BinaryEncoder, ctx: CodecContexts, levels: np.ndarray
    ) -> None:
        encode_coeff_block_primitive(enc, ctx, levels, self._stats)


def encode_frames(
    frames: Sequence[np.ndarray], config: Optional[EncoderConfig] = None
) -> EncodeResult:
    """:func:`repro.codec.encoder.encode_frames` on the reference encoder."""
    return ReferenceEncoder(config).encode(frames)


# -- decoder --------------------------------------------------------------


class ReferenceDecoder(FrameDecoder):
    """The interleaved decoder: per leaf, drain bins, dequantize,
    inverse-transform, predict, write.  Serial only."""

    def __init__(
        self,
        data: bytes,
        conceal: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> None:
        super().__init__(data, conceal=conceal, deadline=deadline)

    def _decode_group(
        self, segments: List[bytes], indices: List[int], qps: np.ndarray
    ) -> Tuple[np.ndarray, List[int]]:
        """One slice at a time: fresh coder, fresh contexts, the dither
        stepped CTU by CTU from the slice's first (``qps`` is not read)."""
        h = self._header
        planes = np.zeros((len(segments), self._pad_h, self._pad_w))
        failed: List[int] = []
        for position, (segment, frame_index) in enumerate(zip(segments, indices)):
            self._dec = BinaryDecoder(segment)
            self._ctx = CodecContexts()
            dither = QpDither.advanced(
                h["qp_base"], h["qp_frac"], frame_index * self._ctus
            )
            try:
                planes[position] = self._decode_frame(
                    self._pad_h, self._pad_w, frame_index, dither
                )
            except Exception as exc:
                self._undecodable(exc, frame_index)
                failed.append(position)
        return planes, failed

    def _decode_frame(
        self, height: int, width: int, frame_index: int, dither: QpDither
    ) -> np.ndarray:
        h = self._header
        ctu = h["ctu"]
        self._recon = np.zeros((height, width), dtype=np.float64)
        self._mask = np.zeros((height, width), dtype=bool)
        self._modes = np.full((height, width), -1, dtype=np.int16)
        self._inter_allowed = (
            h["use_inter"] and frame_index > 0 and self._reference is not None
        )
        registry = self._registry
        for y0 in range(0, height, ctu):
            for x0 in range(0, width, ctu):
                self._qp = dither.next()
                if registry is not None:
                    registry.count("decode.ctu")
                    registry.observe("decode.qp", self._qp)
                self._decode_cu(y0, x0, ctu, depth=0)
        return self._recon

    def _decode_cu(self, y0: int, x0: int, size: int, depth: int) -> None:
        h = self._header
        if h["use_partition"] and size > h["min_cu"]:
            if self._dec.decode_bit(self._ctx.split, min(depth, 5)):
                if self._registry is not None:
                    self._registry.count("decode.cu.split")
                half = size // 2
                for qy in (0, 1):
                    for qx in (0, 1):
                        self._decode_cu(
                            y0 + qy * half, x0 + qx * half, half, depth + 1
                        )
                return
        self._decode_leaf(y0, x0, size)

    def _decode_leaf(self, y0: int, x0: int, size: int) -> None:
        h = self._header
        is_inter = False
        if self._inter_allowed:
            is_inter = bool(self._dec.decode_bit(self._ctx.pred_flag, 0))
        if self._registry is not None:
            self._registry.count("decode.cu.leaf")
            self._registry.count(
                "decode.mode.inter" if is_inter else "decode.mode.intra"
            )

        mode: Optional[int] = None
        if is_inter:
            mv = decode_mv(self._dec, self._ctx)
            ry, rx = y0 + mv[0], x0 + mv[1]
            ref_h, ref_w = self._reference.shape
            if not (0 <= ry <= ref_h - size and 0 <= rx <= ref_w - size):
                raise CorruptStreamError(
                    f"motion vector {mv} points outside the reference frame"
                )
            prediction = self._reference[ry : ry + size, rx : rx + size].astype(
                np.float64
            )
        elif h["use_intra"]:
            left_mode = self._neighbor_mode(y0, x0 - 1)
            top_mode = self._neighbor_mode(y0 - 1, x0)
            mode = decode_intra_mode(
                self._dec, self._ctx, left_mode, top_mode, self._profile.all_modes
            )
            top, left = intra.gather_references(
                self._recon, self._mask, y0, x0, size
            )
            prediction = intra.predict(top, left, mode, size)
        else:
            prediction = np.full((size, size), 128.0)

        levels = decode_coeff_block(self._dec, self._ctx, size)
        dequant = dequantize(levels[None], self._qp)
        if h["use_transform"]:
            residual = inverse_dct2_batch(dequant)[0]
        else:
            residual = dequant[0]
        recon = np.clip(prediction + residual, 0.0, 255.0)

        sl = (slice(y0, y0 + size), slice(x0, x0 + size))
        self._recon[sl] = recon
        self._mask[sl] = True
        self._modes[sl] = mode if mode is not None else intra.DC


def decode_frames(data: bytes, conceal: bool = False) -> List[np.ndarray]:
    """:func:`repro.codec.decoder.decode_frames` on the reference decoder."""
    return ReferenceDecoder(data, conceal=conceal).decode()


def decode_frames_with_report(
    data: bytes, conceal: bool = True
) -> Tuple[List[np.ndarray], ConcealmentReport]:
    """:func:`repro.codec.decoder.decode_frames_with_report` on the
    reference decoder."""
    decoder = ReferenceDecoder(data, conceal=conceal)
    frames = decoder.decode()
    return frames, decoder.report
