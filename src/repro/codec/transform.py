"""2-D DCT transform coding (the "transform" stage of Figure 2/3).

Uses the orthonormal DCT-II so ``inverse(forward(x)) == x`` up to float
round-off and coefficient energy equals pixel energy (Parseval), which
is what lets the quantizer's distortion be reasoned about per
coefficient.

The transform pair has one *order-defined* definition
(:func:`_ordered_dct2`): two plain matrix products evaluated left to
right, every output accumulated from +0.0 sequentially in ``k``, every
product rounded to double before it is added.  Encoder and decoder
reconstructions go through it -- in C when the kernel library is
loaded (``_transform_kernel.c``, checked against the definition at
load; ``native.dct2`` here), in numpy otherwise -- so the float64 planes they build agree bit for bit
on every machine and path instead of following whatever order a BLAS
happens to sum in.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codec.entropy import native

SUPPORTED_SIZES = (4, 8, 16, 32, 64)


@lru_cache(maxsize=None)
def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix of size ``n`` x ``n``."""
    if n not in SUPPORTED_SIZES:
        raise ValueError(f"unsupported transform size {n}; choose from {SUPPORTED_SIZES}")
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    basis[0, :] /= np.sqrt(2.0)
    return basis


def _ordered_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the first two axes with a defined summation order.

    ``out[i, j, ...] = ((0 + a[i, 0] b[0, j]) + a[i, 1] b[1, j]) + ...``:
    one elementwise multiply and one elementwise add per ``k``, so no
    BLAS blocking, pairwise reduction or fused multiply-add can reorder
    or re-round the sum.  Trailing axes are a batch, so every one of
    those operations sweeps the whole batch at once.  The first term
    lands as ``product + 0.0``, which is ``0.0 + product`` in IEEE
    arithmetic.
    """
    ndim = max(a.ndim, b.ndim)
    a = a.reshape(a.shape + (1,) * (ndim - a.ndim))
    b = b.reshape(b.shape + (1,) * (ndim - b.ndim))
    acc = np.empty(np.broadcast_shapes(a[:, :1].shape, b[:1].shape))
    term = np.empty_like(acc)
    np.multiply(a[:, :1], b[:1], out=acc)
    acc += 0.0
    for k in range(1, a.shape[1]):
        np.multiply(a[:, k : k + 1], b[k : k + 1], out=term)
        acc += term
    return acc


#: Bytes of blocks :func:`_ordered_dct2` transforms at a time, so its
#: accumulators stay in cache.
_DCT_RUN_BYTES = 1 << 20


def _ordered_dct2(blocks: np.ndarray, basis: np.ndarray, inverse: bool) -> np.ndarray:
    """The definition of the codec's 2-D DCT pair (numpy form).

    Forward ``basis @ x @ basis.T``, inverse ``basis.T @ x @ basis``,
    both as two :func:`_ordered_matmul` products evaluated left to
    right.  ``_transform_kernel.c`` implements exactly this and a
    library that contains it is refused at load if it ever disagrees.
    Blocks are independent, so they are transformed a cache-sized run
    at a time, with the run as the products' batch axis.
    """
    left, right = (basis.T, basis) if inverse else (basis, basis.T)
    n = basis.shape[0]
    flat = np.asarray(blocks, dtype=np.float64).reshape(-1, n, n)
    out = np.empty(flat.shape, dtype=np.float64)
    run = max(1, _DCT_RUN_BYTES // (8 * n * n))
    for start in range(0, len(flat), run):
        x = np.ascontiguousarray(np.moveaxis(flat[start : start + run], 0, -1))
        out[start : start + run] = np.moveaxis(
            _ordered_matmul(_ordered_matmul(left, x), right), -1, 0
        )
    return out.reshape(np.shape(blocks))


def _dct2_batch(blocks: np.ndarray, inverse: bool) -> np.ndarray:
    blocks = np.asarray(blocks, dtype=np.float64)
    basis = dct_matrix(blocks.shape[-1])
    out = native.dct2(blocks, basis, inverse)
    return _ordered_dct2(blocks, basis, inverse) if out is None else out


def forward_dct2(block: np.ndarray) -> np.ndarray:
    """2-D DCT of a square block (rows then columns)."""
    n = block.shape[0]
    if block.shape != (n, n):
        raise ValueError("forward_dct2 expects a square block")
    return _dct2_batch(block, inverse=False)


def inverse_dct2(coeffs: np.ndarray) -> np.ndarray:
    """Inverse 2-D DCT (exact inverse of :func:`forward_dct2`)."""
    n = coeffs.shape[0]
    if coeffs.shape != (n, n):
        raise ValueError("inverse_dct2 expects a square block")
    return _dct2_batch(coeffs, inverse=True)


def forward_dct2_batch(blocks: np.ndarray) -> np.ndarray:
    """2-D DCT of a stack of square blocks, shape ``(..., n, n)``."""
    return _dct2_batch(blocks, inverse=False)


def inverse_dct2_batch(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct2_batch`."""
    return _dct2_batch(coeffs, inverse=True)


@lru_cache(maxsize=None)
def zigzag_order(n: int) -> np.ndarray:
    """Flat indices of an ``n`` x ``n`` block in diagonal (zig-zag) scan.

    Low-frequency coefficients come first, so the scan concentrates the
    trailing zeros that the entropy coder exploits.
    """
    r, c = np.divmod(np.arange(n * n, dtype=np.int64), n)
    diagonal = r + c
    # By anti-diagonal, then along it: by column on even diagonals, by
    # row on odd ones (np.lexsort sorts by its last key first).
    return np.lexsort((np.where(diagonal % 2 == 0, c, r), diagonal)).astype(np.int64)


def zigzag_scan(block: np.ndarray) -> np.ndarray:
    """Flatten a square block in zig-zag order."""
    n = block.shape[0]
    return block.reshape(-1)[zigzag_order(n)]


def zigzag_unscan(values: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`zigzag_scan`."""
    flat = np.empty(n * n, dtype=values.dtype)
    flat[zigzag_order(n)] = values
    return flat.reshape(n, n)
