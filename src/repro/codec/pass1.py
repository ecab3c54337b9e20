"""Pass 1 of the intra encoder: every block's coarse mode and RD cost.

Pass 1 predicts from *source* pixels, so it runs once per group of
consecutive frames (``encoder.GROUP_SAMPLES``) over the group's padded
planes, and per CU size it is two halves:

* the **analysis** (:func:`analyse`): every block's DCT coefficients in
  zigzag order and every candidate mode's predicted coefficients, one
  GEMM of the blocks' reference windows against the mode operator
  (:func:`_mode_coeff_operator`).  Neither depends on QP;
* the **pick** (:func:`_pass1_pick`): quantize, cost and rank every
  candidate at each block's step and Lagrangian -- the only half a QP
  enters.

A rate search encodes the same frames at several QPs, so it holds each
group's analysis from its first probe to its last
(:class:`HeldAnalysis`, one allocation per search) and every later
probe runs only the pick and pass 2.  The picks read the same doubles
either way, so no byte depends on whether an analysis was held.

The pads, windows and CTU indices the analysis gathers through are
lru-cached per shape; the operators are cached per candidate set for
the life of the process.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec import intra
from repro.codec.entropy import native
from repro.codec.syntax import estimate_mode_bits_many
from repro.codec.transform import dct_matrix, zigzag_order

#: (candidate modes, size) -> stacked operator, built under the lock (a
#: hedged first request would build the set twice).
_OPERATORS: Dict[Tuple[Tuple[int, ...], int], np.ndarray] = {}
_OPERATORS_LOCK = threading.Lock()


def _mode_coeff_operator(modes: Tuple[int, ...], n: int) -> np.ndarray:
    """Linear operator: reference boundary -> zigzag-ordered DCT
    coefficients of every candidate mode's prediction, the modes'
    ``(n^2, 4n + 2)`` blocks stacked in order, shape ``(m * n^2, 4n + 2)``.

    Every intra predictor (planar, DC, angular) is linear in the
    ``(top, left)`` reference vector, and the DCT + zigzag scan are
    linear too, so each mode's composition is one matrix, and pass 1's
    candidate predictions for every block of a group are one GEMM
    against the stacked references.  Built by probing
    :func:`repro.codec.intra.predict_many` with basis vectors -- one
    probe yields that column of every mode -- straight into the one
    array that is cached per (set, size) for the life of the process.
    """
    key = (tuple(modes), n)
    with _OPERATORS_LOCK:
        operator = _OPERATORS.get(key)
        if operator is None:
            operator = _OPERATORS[key] = _build_operator(key[0], n)
    return operator


def _build_operator(modes: Tuple[int, ...], n: int) -> np.ndarray:
    basis = dct_matrix(n)
    zz = zigzag_order(n)
    width = 4 * n + 2  # top (2n + 1) then left (2n + 1)
    # ``intra.predict`` hands the horizontal family out as transposed
    # views, and BLAS rounds a transposed operand differently in the
    # last bit: those planes are transformed in that layout, so the
    # operators are bit for bit the ones a per-mode probe builds.
    horizontal = [i for i, m in enumerate(modes) if intra.ANGULAR_FIRST <= m < 18]
    built = np.empty((len(modes), n * n, width), dtype=np.float64)
    refs = np.zeros(width, dtype=np.float64)
    for j in range(width):
        refs[j] = 1.0
        preds = intra.predict_many(refs[: 2 * n + 1], refs[2 * n + 1 :], modes, n)
        coeffs = np.matmul(np.matmul(basis, preds), basis.T)
        flipped = np.ascontiguousarray(preds[horizontal].transpose(0, 2, 1))
        coeffs[horizontal] = np.matmul(
            np.matmul(basis, flipped.transpose(0, 2, 1)), basis.T
        )
        built[:, :, j] = coeffs.reshape(len(modes), n * n)[:, zz]
        refs[j] = 0.0
    stacked = built.reshape(len(modes) * n * n, width)
    stacked.setflags(write=False)
    return stacked


@lru_cache(maxsize=None)
def _anchor_mode_bits(modes: Tuple[int, ...]) -> np.ndarray:
    """Neighbour-free mode signalling rate used by the turbo pre-pass.

    The batched pre-pass scores every block of a frame before any mode
    has been committed, so the adaptive MPM context is unknown; the
    no-neighbour estimate keeps the usual bias towards the default
    most-probable modes without sequentialising the pass.
    """
    bits = estimate_mode_bits_many(list(modes), None, None)
    bits.setflags(write=False)
    return bits


#: Fixed-point scale of the level-rate table: rates are stored as
#: ``round(log2(m + 1) * 2**15)`` so per-row sums are *integer* sums --
#: order-independent, hence bitwise identical between the C cost kernel
#: and the numpy fallback -- while staying within 2**-15 bits per
#: coefficient of the float proxy they replace (``2*log2(m+1)`` per
#: level, converted back via one exact power-of-two division).
_RATE_SCALE_BITS = 15


@lru_cache(maxsize=None)
def _level_rate_table() -> np.ndarray:
    """Level magnitude -> fixed-point rate, int64, length 65536.

    Entry 0 is exactly 0, so zero coefficients can be summed without
    masking; magnitudes beyond the table share the top entry (the RD
    search only needs relative order up there).
    """
    mags = np.arange(1 << 16, dtype=np.float64)
    table = np.round(np.log2(mags + 1.0) * (1 << _RATE_SCALE_BITS)).astype(
        np.int64
    )
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _pad_index(height: int, width: int, multiple: int) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column indices that edge-pad a ``height x width`` frame to
    a multiple of ``multiple``.

    Edge padding repeats the last row and column, so the padded frame is
    the frame gathered through row and column ranges clamped to it.
    """
    rows = np.minimum(np.arange(height + -height % multiple), height - 1)
    cols = np.minimum(np.arange(width + -width % multiple), width - 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _padded_planes(frames: Sequence[np.ndarray], multiple: int) -> np.ndarray:
    """Equal-shape frames edge-padded to a multiple of ``multiple`` and
    stacked: one ``(frames, rows, cols)`` float64 array, C-contiguous as
    pass 2's kernel takes it (it declines any other layout)."""
    rows, cols = _pad_index(*frames[0].shape, multiple)
    padded = np.take(np.take(np.stack(frames), rows, axis=1), cols, axis=2)
    return padded.astype(np.float64, order="C")


@lru_cache(maxsize=None)
def _window_index(height: int, width: int, n: int) -> np.ndarray:
    """Flat index into a ``height x width`` plane of every ``n x n``
    block's pass-1 reference window, ``(blocks, 4n + 2)`` in raster
    order: the top row then the left column, each from the corner
    outside the block and ``2n`` samples along it.  Indices are clamped
    to the plane: what the windows read from an edge-padded plane.
    """
    along = np.arange(-1, 2 * n)
    y0 = (np.arange(height // n) * n)[:, None, None]
    x0 = (np.arange(width // n) * n)[None, :, None]
    top = np.clip(y0 - 1, 0, height - 1) * width + np.clip(x0 + along, 0, width - 1)
    left = np.clip(y0 + along, 0, height - 1) * width + np.clip(x0 - 1, 0, width - 1)
    index = np.concatenate([top, left], axis=2).reshape(-1, 4 * n + 2)
    index.setflags(write=False)
    return index


def _reference_windows(planes: np.ndarray, n: int) -> np.ndarray:
    """Every ``n x n`` block's reference window, frame by frame in raster
    order: ``(frames * blocks, 4n + 2)``, C-contiguous."""
    count, height, width = planes.shape
    refs = np.take(
        planes.reshape(count, height * width), _window_index(height, width, n), axis=1
    )
    return refs.reshape(-1, 4 * n + 2)


@lru_cache(maxsize=None)
def _block_ctus(height: int, width: int, ctu: int, n: int) -> np.ndarray:
    """Each ``n x n`` block's CTU within a ``height x width`` plane, both
    counted in raster order."""
    rows = np.arange(height // n) * n // ctu
    cols = np.arange(width // n) * n // ctu
    index = (rows[:, None] * (width // ctu) + cols).ravel()
    index.setflags(write=False)
    return index


# -- the analysis: QP-independent ------------------------------------------------


def analyse(
    planes: np.ndarray,
    n: int,
    modes: Tuple[int, ...],
    coeffs_out: Optional[np.ndarray] = None,
    pred_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``n x n`` block's ``(coeffs, pred)`` over a group's planes.

    ``coeffs`` is ``(blocks, n^2)``: each block's DCT in zigzag order;
    ``pred`` is ``(blocks, modes, n^2)``: each candidate's predicted
    coefficients.  Blocks run frame by frame in raster order.
    References come from the source planes, clamped at their edges
    (one row/column of context outside each frame, ``2n`` of extension
    below/right exactly like the boundary walk reads them:
    :func:`_reference_windows`), so the whole group's candidate
    prediction collapses into one operator GEMM instead of a mat-vec
    per block.  With ``coeffs_out`` / ``pred_out`` (C-contiguous, of
    those shapes) the arrays are written there, the same doubles.
    """
    count, height, width = planes.shape
    by, bx = height // n, width // n
    total = count * by * bx
    basis = dct_matrix(n)
    blocks = planes.reshape(count, by, n, bx, n).transpose(0, 1, 3, 2, 4)
    coeffs = np.matmul(np.matmul(basis, blocks), basis.T).reshape(total, n * n)
    # C-contiguous, unlike [:, zz]; "clip" writes into ``out`` unbuffered.
    coeffs = np.take(coeffs, zigzag_order(n), axis=1, out=coeffs_out, mode="clip")

    refs = _reference_windows(planes, n)
    # Block-major GEMM orientation: the (blocks, modes, n*n) prediction
    # comes out C-contiguous, so the pick kernel walks it row by row --
    # no transpose copy of the candidate predictions.
    operator = _mode_coeff_operator(modes, n).T
    out = None if pred_out is None else pred_out.reshape(total, -1)
    if total == 1:
        # BLAS answers one row with its GEMV kernel, which rounds the
        # last bits differently from the GEMM rows the same block gets
        # beside others: a lone block is computed as two rows, so a
        # frame's bytes never depend on its group-mates.
        pred = (np.concatenate([refs, refs]) @ operator)[:total]
        if out is not None:
            out[...] = pred
    else:
        pred = np.matmul(refs, operator, out=out)
    return coeffs, pred.reshape(total, len(modes), n * n)


class GroupAnalysis:
    """One group's analysis, in views of its search's one allocation.

    Each CU size is analysed into its views the first time a probe asks
    for it (:meth:`size`) and read back by every later probe.
    """

    __slots__ = ("_views", "_done")

    def __init__(self, views: Dict[int, Tuple[np.ndarray, np.ndarray]]) -> None:
        self._views = views
        self._done: set = set()

    def size(
        self, planes: np.ndarray, n: int, modes: Tuple[int, ...]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``analyse(planes, n, modes)``, computed on the first call only."""
        coeffs, pred = self._views[n]
        if n not in self._done:
            analyse(planes, n, modes, coeffs, pred)
            self._done.add(n)
        return coeffs, pred


class HeldAnalysis:
    """A rate search's pass-1 analyses, held from its first probe to its last.

    A search makes one, empty, and hands it to every probe's encode.
    The first encode lays it out for its groups (:meth:`groups`): one
    float64 allocation carved into :class:`GroupAnalysis` views for as
    many leading groups as fit in the byte budget it is given; the
    groups past it get ``None`` and are analysed per probe.  Nothing
    else refers to it, so the allocation lives exactly as long as the
    search.  Fan-out workers fill disjoint groups.
    """

    def __init__(self) -> None:
        self._key: Optional[tuple] = None
        self._groups: List[Optional[GroupAnalysis]] = []

    def groups(
        self,
        shapes: Sequence[Tuple[int, int, int]],
        sizes: Sequence[int],
        modes: Tuple[int, ...],
        budget: int,
    ) -> List[Optional[GroupAnalysis]]:
        """Per group of padded ``(frames, height, width)`` planes, its held
        analysis or ``None``; the layout is fixed by the first call."""
        key = (tuple(shapes), tuple(sizes), tuple(modes))
        if self._key is None:
            self._key = key
            per_sample = len(sizes) * (1 + len(modes))  # float64 per padded sample
            lengths: List[int] = []
            total = 0
            for count, height, width in shapes:
                length = count * height * width * per_sample
                if 8 * (total + length) > budget:
                    break
                lengths.append(length)
                total += length
            buffer = np.empty(total, dtype=np.float64)
            start = 0
            for (count, height, width), length in zip(shapes, lengths):
                views = {}
                for n in sizes:
                    total = count * (height // n) * (width // n)
                    coeffs = buffer[start : start + total * n * n]
                    start += total * n * n
                    pred = buffer[start : start + total * len(modes) * n * n]
                    start += total * len(modes) * n * n
                    views[n] = (
                        coeffs.reshape(total, n * n),
                        pred.reshape(total, len(modes), n * n),
                    )
                self._groups.append(GroupAnalysis(views))
            self._groups += [None] * (len(shapes) - len(lengths))
        elif key != self._key:
            raise ValueError("a held analysis serves the frames it was laid out for")
        return self._groups


# -- the pick: at (step, lambda) ---------------------------------------------------


def _quantize_costs(
    flat: np.ndarray, deadzone: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize a ``(rows, width)`` batch and gather its rate statistics.

    Returns ``(levels, rate, nnz, last)``: float64 levels, the int64
    fixed-point rate sums over :func:`_level_rate_table`, nonzero counts,
    and the highest nonzero index per row (-1 when empty).  Integer rate
    sums and a quantizer built from exactly-rounded primitives: the pick
    kernel's ``level_stats`` computes the same numbers bit for bit.
    """
    table = _level_rate_table()
    if deadzone:
        # sign(x) * floor(|x| + c)  ==  trunc(x + copysign(c, x))
        levels = np.trunc(flat + np.copysign(0.5 - deadzone, flat))
    else:
        levels = np.rint(flat)
    mags = np.abs(levels)
    nonzero = mags > 0.0
    nnz = nonzero.sum(axis=1)
    width = flat.shape[1]
    last = np.where(nnz > 0, width - 1 - np.argmax(nonzero[:, ::-1], axis=1), -1)
    idx = np.minimum(mags, float(len(table) - 1)).astype(np.int64)
    rate = np.take(table, idx).sum(axis=1)
    return levels, rate, nnz.astype(np.int64), last.astype(np.int64)


def _pass1_pick(
    coeffs: np.ndarray,
    pred: np.ndarray,
    inv_step: np.ndarray,
    step2: np.ndarray,
    lam: np.ndarray,
    mode_bits: np.ndarray,
    deadzone: float,
    native_ok: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """First cheapest candidate and its RD cost for every pass-1 block.

    Candidate ``(b, m)`` is ``(coeffs[b] - pred[b, m]) * inv_step[b]``.
    The native kernel quantizes, costs and ranks it row by row; the
    numpy form below materialises the candidate tensor and is the
    kernel's definition -- the same exactly-rounded operations in the
    same order, the SSE as four strided lanes each summed sequentially
    -- so ``(pick, cost)`` is bitwise the same whichever ran.
    """
    if native_ok:
        out = native.cost_pick(
            coeffs, pred, inv_step, step2, lam, mode_bits, deadzone,
            _level_rate_table(),
        )
        if out is not None:
            return out
        if native.available():
            telemetry.count("encode.kernel_refusals")
    n_blocks, n_modes, width = pred.shape
    flat = ((coeffs[:, None, :] - pred) * inv_step[:, None, None]).reshape(-1, width)
    levels, rate, nnz, last = _quantize_costs(flat, deadzone)
    err = np.zeros((len(flat), width + -width % 4))
    err[:, :width] = levels - flat
    lanes = np.cumsum((err * err).reshape(len(flat), -1, 4), axis=1)[:, -1]
    sse = (lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3])
    level_bits = rate / float(1 << (_RATE_SCALE_BITS - 1)) + 2.0 * nnz
    bits = np.where(nnz > 0, 5.0 + last + level_bits, 1.0)
    costs = (
        sse.reshape(n_blocks, n_modes) * step2[:, None]
        + lam[:, None] * bits.reshape(n_blocks, n_modes)
    ) + lam[:, None] * mode_bits
    pick = np.argmin(costs, axis=1)
    return pick, costs[np.arange(n_blocks), pick]
