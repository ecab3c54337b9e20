"""The codec's reference encoder, and the ablations production refuses.

The encoder production is compared against, the slow and obvious way:
one scalar prediction per candidate mode, quantizer calls instead of
inlined arithmetic and one primitive coder call per bin.  It exists so
that tests and fuzzers have an independent encoder to hold the
production code to -- its reconstruction is an oracle for the decoder's
-- and so that the Figure 2(b) / Figure 13 ablations have an encoder:
:class:`repro.codec.encoder.FrameEncoder` is the two-pass intra search
alone and refuses inter prediction, intra prediction off and the
transform off.  ``codec.pipeline`` and the benchmarks that measure
those stages call this module by name.  There is no reference decoder:
every stream is read by :class:`repro.codec.decoder.FrameDecoder`,
through its C kernels or their pure-Python twin.

Nothing that serves a request imports this module -- not
``repro.tensor``, ``repro.serving``, ``repro.cluster`` or ``repro.cli``
(tests/test_reference_codec.py asserts it) -- and no option selects
it: callers name it explicitly.

:class:`ReferenceEncoder` is the exact per-leaf search under every
stage flag: a quadtree recursion that costs each leaf against its
split, a scalar intra mode search (reference walk, per-mode prediction,
:func:`quantize` / :func:`dequantize` calls), a diamond motion search
for inter leaves, and the primitive-call coefficient writer.  Header,
slice framing, QP dither and the split / intra-mode syntax are
:class:`FrameEncoder`'s.  Its streams are pinned by hash
(tests/test_reference_encode.py).
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.codec import intra
from repro.codec.encoder import (
    EncodeResult,
    EncoderConfig,
    FrameEncoder,
    QpDither,
    _Plan,
)
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.intra import _DEFAULT_SAMPLE, most_probable_modes, predict
from repro.codec.quantizer import dequantize, qstep, quantize, rd_lambda
from repro.codec.syntax import (
    CodecContexts,
    encode_coeff_block_primitive,
    encode_mv,
)
from repro.codec.transform import forward_dct2_batch, inverse_dct2_batch, zigzag_order

__all__ = [
    "ReferenceEncoder",
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
