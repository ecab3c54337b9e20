"""Intra-frame prediction: planar, DC, and the 33 HEVC angular modes.

This is the stage the paper singles out (Figure 4) as the surprise
winner for tensors: channel-wise weight structure looks like edges and
planar regions, which directional prediction captures with a few bits
of mode signalling, leaving small residuals for the transform stage.

Mode numbering follows HEVC: 0 = planar, 1 = DC, 2..34 = angular
(2..17 horizontal-ish predicting from the left reference, 18..34
vertical-ish predicting from the top reference).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.entropy import native

PLANAR = 0
DC = 1
ANGULAR_FIRST = 2
ANGULAR_LAST = 34
NUM_MODES = 35

# HEVC intraPredAngle for modes 2..34.
_ANGLES = [
    32, 26, 21, 17, 13, 9, 5, 2, 0, -2, -5, -9, -13, -17, -21, -26, -32,
    -26, -21, -17, -13, -9, -5, -2, 0, 2, 5, 9, 13, 17, 21, 26, 32,
]

_DEFAULT_SAMPLE = 128


def mode_angle(mode: int) -> int:
    """Displacement (in 1/32 pel per row) for an angular mode."""
    if not ANGULAR_FIRST <= mode <= ANGULAR_LAST:
        raise ValueError(f"mode {mode} is not angular")
    return _ANGLES[mode - ANGULAR_FIRST]


def _inv_angle(angle: int) -> int:
    """HEVC inverse-angle used to project the side reference."""
    return round(256 * 32 / abs(angle))


@lru_cache(maxsize=None)
def _boundary_offsets(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(dy, dx) offsets of the reference boundary walk for size ``n``.

    The walk is: left column bottom-to-top, corner, top row
    left-to-right -- ``4n + 1`` samples relative to the block origin.
    """
    dy = np.concatenate(
        [
            np.arange(2 * n - 1, -1, -1, dtype=np.int64),  # left column, upward
            np.full(2 * n + 1, -1, dtype=np.int64),  # corner + top row
        ]
    )
    dx = np.concatenate(
        [
            np.full(2 * n, -1, dtype=np.int64),
            np.array([-1], dtype=np.int64),
            np.arange(0, 2 * n, dtype=np.int64),
        ]
    )
    dy.setflags(write=False)
    dx.setflags(write=False)
    return dy, dx


def gather_references(
    recon: np.ndarray, mask: np.ndarray, y0: int, x0: int, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Collect top/left reference arrays with HEVC-style substitution.

    Returns ``(top, left)``, each of length ``2n + 1`` with index 0
    holding the corner sample.  Unavailable samples (outside the frame
    or not yet reconstructed per ``mask``) are filled by propagating the
    nearest available neighbour along the boundary; a fully unavailable
    boundary falls back to the mid-grey constant 128.

    The boundary walk, availability test, and nearest-neighbour fill
    are fully vectorised (this runs once per candidate block in the RD
    search, so it is hot); output is bit-identical to the per-sample
    loop in :mod:`repro.codec.reference`.  When the compiled refs
    kernel is available it does the walk instead -- pure data movement,
    so the arrays (and every stream downstream of them) are unchanged
    byte for byte.
    """
    gathered = native.refs(recon, mask, y0, x0, n)
    if gathered is not None:
        return gathered
    height, width = recon.shape
    dy, dx = _boundary_offsets(n)
    rows = y0 + dy
    cols = x0 + dx
    total = 4 * n + 1

    in_bounds = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    available = np.zeros(total, dtype=bool)
    available[in_bounds] = mask[rows[in_bounds], cols[in_bounds]]

    values = np.empty(total, dtype=np.float64)
    if not available.any():
        values[:] = _DEFAULT_SAMPLE
    else:
        values[available] = recon[rows[available], cols[available]]
        # Nearest-previous-available fill: each position maps to the
        # last available index at or before it; positions before the
        # first available sample borrow the first one.
        fill = np.where(available, np.arange(total), -1)
        np.maximum.accumulate(fill, out=fill)
        first = int(np.argmax(available))
        fill[:first] = first
        values = values[fill]

    left = values[: 2 * n + 1][::-1].copy()  # left[0] = corner, then downward
    top = values[2 * n :].copy()  # top[0] = corner, then rightward
    return top, left


def predict_dc(top: np.ndarray, left: np.ndarray, n: int) -> np.ndarray:
    """DC prediction: mean of the immediate top row and left column.

    ``top`` / ``left`` may carry leading batch axes (see
    :func:`predict_many`)."""
    dc = (top[..., 1 : n + 1].sum(axis=-1) + left[..., 1 : n + 1].sum(axis=-1)) / (
        2 * n
    )
    out = np.empty(np.shape(dc) + (n, n), dtype=np.float64)
    out[...] = np.asarray(dc)[..., None, None]
    return out


@lru_cache(maxsize=None)
def _planar_weights(n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant blend-weight grids for planar prediction of size ``n``."""
    xs = np.arange(n, dtype=np.float64)
    ys = np.arange(n, dtype=np.float64)
    far_x = (n - 1 - xs)[None, :]
    near_x = (xs + 1)[None, :]
    far_y = (n - 1 - ys)[:, None]
    near_y = (ys + 1)[:, None]
    for arr in (far_x, near_x, far_y, near_y):
        arr.setflags(write=False)
    return far_x, near_x, far_y, near_y


def predict_planar(top: np.ndarray, left: np.ndarray, n: int) -> np.ndarray:
    """HEVC planar prediction (bilinear blend toward top-right/bottom-left).

    ``top`` / ``left`` may carry leading batch axes (see
    :func:`predict_many`)."""
    far_x, near_x, far_y, near_y = _planar_weights(n)
    top_row = top[..., None, 1 : n + 1]
    left_col = left[..., 1 : n + 1, None]
    top_right = top[..., n + 1, None, None]
    bottom_left = left[..., n + 1, None, None]
    horizontal = far_x * left_col + near_x * bottom_left
    vertical = far_y * top_row + near_y * top_right
    return (horizontal + vertical) / (2 * n)


def _angular_from_main(
    main: np.ndarray, side: np.ndarray, angle: int, n: int
) -> np.ndarray:
    """Angular prediction along the main reference (vertical orientation).

    ``main``/``side`` are the (2n+1)-length reference arrays with the
    corner at index 0.  Returns the n x n prediction for the vertical
    family; the horizontal family transposes the result.
    """
    # Extended reference: indices -n .. 2n (+1 replicate pad so that the
    # fact==0 / angle==32 corner case can safely index one past the end).
    ext = np.empty(3 * n + 2, dtype=np.float64)
    offset = n
    ext[offset : offset + 2 * n + 1] = main
    ext[offset + 2 * n + 1] = main[2 * n]
    if angle < 0:
        inv = _inv_angle(angle)
        for k in range(1, n + 1):
            j = (k * inv + 128) >> 8
            ext[offset - k] = side[min(j, 2 * n)]
    rows = np.arange(1, n + 1)
    pos = rows * angle
    idx = pos >> 5
    fact = pos & 31
    cols = np.arange(n)
    # base index into ext for (row y, col x): x + idx[y] + 1 (+offset).
    base = offset + cols[None, :] + idx[:, None] + 1
    w = fact[:, None].astype(np.float64)
    return ((32.0 - w) * ext[base] + w * ext[base + 1]) / 32.0


def predict_angular(
    top: np.ndarray, left: np.ndarray, mode: int, n: int
) -> np.ndarray:
    """Angular prediction for HEVC mode ``mode`` (2..34)."""
    angle = mode_angle(mode)
    if mode >= 18:  # vertical family: main reference is the top row
        return _angular_from_main(top, left, angle, n)
    return _angular_from_main(left, top, angle, n).T


def predict(
    top: np.ndarray, left: np.ndarray, mode: int, n: int
) -> np.ndarray:
    """Dispatch to the prediction for ``mode``."""
    if mode == PLANAR:
        return predict_planar(top, left, n)
    if mode == DC:
        return predict_dc(top, left, n)
    return predict_angular(top, left, mode, n)


@lru_cache(maxsize=None)
def _angular_tables(
    angle: int, n: int
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Memoized gather tables for one (angle, block size) pair.

    Returns ``(base, w, proj)`` where ``base`` is the (n, n) index grid
    into the extended reference array, ``w`` the (n, 1) interpolation
    weights, and ``proj`` the side-reference projection indices used to
    extend the main reference for negative angles (``None`` for
    non-negative angles).  These depend only on the mode geometry, so
    the 33-angle loop never recomputes them.
    """
    rows = np.arange(1, n + 1)
    pos = rows * angle
    idx = pos >> 5
    fact = pos & 31
    cols = np.arange(n)
    # offset == n in the (3n + 2)-long extended reference.
    base = n + cols[None, :] + idx[:, None] + 1
    w = fact[:, None].astype(np.float64)
    proj: Optional[np.ndarray] = None
    if angle < 0:
        inv = _inv_angle(angle)
        k = np.arange(1, n + 1)
        proj = np.minimum((k * inv + 128) >> 8, 2 * n)
        proj.setflags(write=False)
    base.setflags(write=False)
    w.setflags(write=False)
    return base, w, proj


@lru_cache(maxsize=None)
def _family_tables(angles: Tuple[int, ...], n: int):
    """Stacked gather tables for a whole candidate-angle family.

    The per-angle tables from :func:`_angular_tables` stacked along a
    leading mode axis, plus the lane indices and reversed projection
    rows for the negative angles, so :func:`_angular_many` is a single
    batched gather with no per-mode Python work.  Candidate sets come
    from profiles (coarse / refine tuples), so the cache stays tiny.
    """
    parts = [_angular_tables(angle, n) for angle in angles]
    bases = np.stack([base for base, _, _ in parts])
    ws = np.stack([w for _, w, _ in parts])
    ws_inv = 32.0 - ws
    neg_lanes = np.array(
        [i for i, (_, _, proj) in enumerate(parts) if proj is not None],
        dtype=np.int64,
    )
    if neg_lanes.size:
        proj_rev = np.stack(
            [proj[::-1] for _, _, proj in parts if proj is not None]
        )
    else:
        proj_rev = np.empty((0, n), dtype=np.int64)
    lanes = np.arange(len(angles))[:, None, None]
    # Flat indices into the ravelled (m, 3n + 2) extended-reference
    # array, so the hot path is a single np.take per interpolation tap.
    flat_lo = lanes * (3 * n + 2) + bases
    for arr in (bases, ws, ws_inv, neg_lanes, proj_rev, lanes, flat_lo):
        arr.setflags(write=False)
    return ws, ws_inv, neg_lanes, proj_rev, flat_lo


def _angular_many(
    main: np.ndarray, side: np.ndarray, angles: Tuple[int, ...], n: int
) -> np.ndarray:
    """All angular predictions of one family in a single vectorised gather.

    Bit-identical to calling :func:`_angular_from_main` per angle (and
    per block, over leading batch axes of ``main`` / ``side``): the
    extended reference rows and per-element blend arithmetic are the
    same operations, just batched over the leading axes.
    """
    ws, ws_inv, neg_lanes, proj_rev, flat_lo = _family_tables(angles, n)
    batch = main.shape[:-1]
    ext = np.zeros(batch + (len(angles), 3 * n + 2), dtype=np.float64)
    ext[..., n : 3 * n + 1] = main[..., None, :]
    ext[..., 3 * n + 1] = main[..., 2 * n, None]
    if neg_lanes.size:
        # ext[offset - k] = side[proj[k-1]] for k = 1..n, i.e. the
        # ascending slice ext[0:n] is the reversed projection.
        ext[..., neg_lanes, :n] = side[..., proj_rev]
    flat = ext.reshape(batch + (-1,))
    lo = np.take(flat, flat_lo, axis=-1)
    hi = np.take(flat, flat_lo + 1, axis=-1)
    return (ws_inv * lo + ws * hi) / 32.0


def predict_many(
    top: np.ndarray, left: np.ndarray, modes: Sequence[int], n: int
) -> np.ndarray:
    """Predictions for all candidate ``modes`` in one shot, shape (m, n, n).

    Angular modes are grouped by family (vertical / horizontal) and
    evaluated with a single batched gather each instead of one Python
    dispatch per mode.  ``top`` / ``left`` may carry leading batch axes,
    ``(..., 2n + 1)`` -- one block's references per row, as pass 1's
    twin hands over every block of a group -- and the result is then
    ``(..., m, n, n)``.  Each output plane is bit-identical to
    ``predict(top, left, mode, n)`` of its own block's references.
    """
    batch = top.shape[:-1]
    out = np.empty(batch + (len(modes), n, n), dtype=np.float64)
    vertical: List[Tuple[int, int]] = []
    horizontal: List[Tuple[int, int]] = []
    for i, mode in enumerate(modes):
        if mode == PLANAR:
            out[..., i, :, :] = predict_planar(top, left, n)
        elif mode == DC:
            out[..., i, :, :] = predict_dc(top, left, n)
        elif mode >= 18:
            vertical.append((i, mode))
        else:
            horizontal.append((i, mode))
    if vertical:
        idx = [i for i, _ in vertical]
        angles = tuple(mode_angle(mode) for _, mode in vertical)
        out[..., idx, :, :] = _angular_many(top, left, angles, n)
    if horizontal:
        idx = [i for i, _ in horizontal]
        angles = tuple(mode_angle(mode) for _, mode in horizontal)
        out[..., idx, :, :] = _angular_many(left, top, angles, n).swapaxes(-1, -2)
    return out


def most_probable_modes(
    left_mode: Optional[int], top_mode: Optional[int]
) -> List[int]:
    """Three most-probable modes derived from decoded neighbours (HEVC-like)."""
    a = left_mode if left_mode is not None else DC
    b = top_mode if top_mode is not None else DC
    if a == b:
        if a < ANGULAR_FIRST:
            return [PLANAR, DC, 26]
        prev_mode = ANGULAR_FIRST + (a - ANGULAR_FIRST - 1) % 33
        next_mode = ANGULAR_FIRST + (a - ANGULAR_FIRST + 1) % 33
        return [a, prev_mode, next_mode]
    mpm = [a, b]
    for candidate in (PLANAR, DC, 26):
        if candidate not in mpm:
            mpm.append(candidate)
            break
    return mpm
