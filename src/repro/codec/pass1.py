"""Pass 1 of the intra encoder: every block's coarse mode and RD cost.

Pass 1 predicts from *source* pixels, so it runs once per group of
consecutive frames (``encoder.GROUP_SAMPLES``) over the group's padded
planes, and per CU size it is one call (:func:`rank`) that does, for
every block of the group:

* the **analysis**: the block's clamped source reference window
  (:func:`_window_index`), every candidate mode's prediction from it,
  and the ordered DCT of the block and of each prediction in zigzag
  order.  None of it depends on QP;
* the **pick**: quantize, cost and rank every candidate at the block's
  step and Lagrangian -- the only half a QP enters.

With the kernel library loaded that is one GIL-free
``llm265_pass1_group`` call per group and size
(:func:`repro.codec.entropy.native.pass1_rank`), which keeps one
candidate row at a time and hands back ``(mode, cost)`` per block; no
``(blocks, modes, n^2)`` candidate tensor exists.  Its twin
(:func:`_analyse_twin`, then :func:`_pass1_pick`) is built from pairs
the library is held to bit for bit -- :func:`repro.codec.intra.predict_many`,
:func:`repro.codec.transform.forward_dct2_batch` and the pick -- so the
two agree by construction, and the library is checked against it when
it loads.  Every step is block-local, so no block's numbers depend on
the blocks beside it or on the machine.

A rate search encodes the same frames at several QPs, so it holds each
group's analysis from its first probe to its last
(:class:`HeldAnalysis`, one allocation per search): the first probe
writes the rows there (:func:`analyse`) and every probe runs only the
pick over them (:func:`repro.codec.entropy.native.cost_pick`) and pass
2.  The picks read the same doubles either way, so no byte depends on
whether an analysis was held.

The pads, windows and CTU indices are lru-cached per shape.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.codec import intra
from repro.codec.entropy import native
from repro.codec.syntax import estimate_mode_bits_many
from repro.codec.transform import forward_dct2_batch, zigzag_order


@lru_cache(maxsize=None)
def _anchor_mode_bits(modes: Tuple[int, ...]) -> np.ndarray:
    """Neighbour-free mode signalling rate used by pass 1's pick.

    Pass 1 scores every block of a group before any mode has been
    committed, so the adaptive MPM context is unknown; the no-neighbour
    estimate keeps the usual bias towards the default most-probable
    modes without sequentialising the pass.
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
    the pass-1 and pass-2 kernels take it."""
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


def _analyse_twin(
    planes: np.ndarray,
    n: int,
    modes: Tuple[int, ...],
    coeffs: np.ndarray,
    pred: np.ndarray,
    dct2: Callable[[np.ndarray], np.ndarray] = forward_dct2_batch,
) -> None:
    """The kernel's analysis in numpy: ``coeffs`` ``(blocks, n^2)`` and
    ``pred`` ``(blocks, modes, n^2)`` are filled with every block's and
    every candidate's zigzag-ordered DCT.

    Every block's candidates are predicted at once from its clamped
    source window (:func:`_reference_windows`;
    :func:`repro.codec.intra.predict_many` takes the windows as a
    batch) and put through ``dct2``, the codec's ordered transform.
    """
    count, height, width = planes.shape
    by, bx = height // n, width // n
    zz = zigzag_order(n)
    blocks = planes.reshape(count, by, n, bx, n).swapaxes(2, 3)
    # "clip" writes into ``out`` unbuffered; every index is in range.
    np.take(dct2(blocks).reshape(len(coeffs), n * n), zz, axis=1, out=coeffs, mode="clip")
    refs = _reference_windows(planes, n)
    preds = intra.predict_many(refs[:, : 2 * n + 1], refs[:, 2 * n + 1 :], modes, n)
    np.take(dct2(preds).reshape(pred.shape), zz, axis=2, out=pred, mode="clip")


def analyse(
    planes: np.ndarray,
    n: int,
    modes: Tuple[int, ...],
    coeffs_out: Optional[np.ndarray] = None,
    pred_out: Optional[np.ndarray] = None,
    native_ok: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``n x n`` block's ``(coeffs, pred)`` over a group's planes.

    ``coeffs`` is ``(blocks, n^2)``: each block's DCT in zigzag order;
    ``pred`` is ``(blocks, modes, n^2)``: each candidate's predicted
    coefficients.  Blocks run frame by frame in raster order.  With
    ``coeffs_out`` / ``pred_out`` (C-contiguous, of those shapes) the
    rows are written there -- a held analysis' views.  The kernel
    writes them when ``native_ok`` and it is loaded, the twin
    otherwise: the same doubles.
    """
    count, height, width = planes.shape
    total = count * (height // n) * (width // n)
    coeffs = np.empty((total, n * n)) if coeffs_out is None else coeffs_out
    pred = np.empty((total, len(modes), n * n)) if pred_out is None else pred_out
    if not (native_ok and native.pass1_analyse(planes, n, modes, coeffs, pred)):
        if native_ok and native.available():
            telemetry.count("encode.kernel_refusals")
        _analyse_twin(planes, n, modes, coeffs, pred)
    return coeffs, pred


def rank(
    planes: np.ndarray,
    n: int,
    modes: Tuple[int, ...],
    inv_step: np.ndarray,
    step2: np.ndarray,
    lam: np.ndarray,
    deadzone: float,
    native_ok: bool,
    analysis: Optional["GroupAnalysis"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pass 1 of a group at one CU size: per block, frame by frame in
    raster order, the first cheapest candidate and its RD cost at its
    ``inv_step`` / ``step2`` / ``lam``.

    With ``analysis`` (a search's held analysis) the pick runs over its
    rows, analysed on its first call.  Otherwise the kernel does the
    whole pass in one call when ``native_ok`` and it is loaded, and the
    twin -- :func:`_analyse_twin`, then :func:`_pass1_pick` -- does it
    when not; ``(pick, cost)`` is bitwise the same whichever ran.
    ``planes`` may have any layout (the kernel reads a C-contiguous
    copy).
    """
    planes = np.ascontiguousarray(planes)
    mode_bits = _anchor_mode_bits(modes)
    if analysis is not None:
        coeffs, pred = analysis.size(planes, n, modes, native_ok)
        return _pass1_pick(
            coeffs, pred, inv_step, step2, lam, mode_bits, deadzone, native_ok
        )
    if native_ok:
        out = native.pass1_rank(
            planes, n, modes, inv_step, step2, lam, mode_bits, deadzone,
            _level_rate_table(),
        )
        if out is not None:
            return out
        if native.available():
            telemetry.count("encode.kernel_refusals")
    total = len(inv_step)
    coeffs = np.empty((total, n * n))
    pred = np.empty((total, len(modes), n * n))
    _analyse_twin(planes, n, modes, coeffs, pred)
    return _pass1_pick(coeffs, pred, inv_step, step2, lam, mode_bits, deadzone, False)


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
        self, planes: np.ndarray, n: int, modes: Tuple[int, ...], native_ok: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``analyse(planes, n, modes)``, computed on the first call only."""
        coeffs, pred = self._views[n]
        if n not in self._done:
            analyse(planes, n, modes, coeffs, pred, native_ok)
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
