"""Bitstream syntax shared by the encoder and decoder.

Everything here comes in encode/decode pairs that must touch the same
contexts in the same order -- that is the whole contract of CABAC-style
coding.  Keeping both directions in one module makes drift much harder.
"""

from __future__ import annotations

import math
from array import array
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.codec.entropy.arithmetic import BinaryDecoder, BinaryEncoder, ContextSet
from repro.codec.intra import most_probable_modes
from repro.codec.transform import zigzag_scan
from repro.resilience.errors import CorruptStreamError

_NUM_SIZE_CLASSES = 5  # block sizes 4, 8, 16, 32, 64
_LAST_PREFIX = 10
_SIG_CTX_PER_CLASS = 3
_LEVEL_PREFIX = 3
_RUN_PREFIX = 4


def size_class(n: int) -> int:
    """Context size class for an ``n`` x ``n`` block."""
    cls = int(math.log2(n)) - 2
    if not 0 <= cls < _NUM_SIZE_CLASSES:
        raise ValueError(f"unsupported block size {n}")
    return cls


class CodecContexts:
    """All adaptive contexts for one encode or decode session."""

    def __init__(self) -> None:
        self.split = ContextSet(6)  # by quadtree depth
        self.pred_flag = ContextSet(1)  # intra vs inter
        self.mpm_flag = ContextSet(1)
        self.mpm_index = ContextSet(2)
        self.cbf = ContextSet(2)
        self.last = ContextSet(_NUM_SIZE_CLASSES * _LAST_PREFIX)
        self.sig = ContextSet(_NUM_SIZE_CLASSES * _SIG_CTX_PER_CLASS)
        self.level = ContextSet(_NUM_SIZE_CLASSES * _LEVEL_PREFIX)
        self.mv = ContextSet(2 * _RUN_PREFIX)

    def reset(self) -> None:
        """Every context back to the equiprobable start-of-slice state."""
        for bank in (
            self.split, self.pred_flag, self.mpm_flag, self.mpm_index,
            self.cbf, self.last, self.sig, self.level, self.mv,
        ):
            bank.reset()

    def banks(self) -> Tuple[array, ...]:
        """The live probability banks in the slice kernels' ``B_*`` order.

        ``native.plan_slices`` and ``native.encode_slices`` keep one row
        of the same layout per slice of their group, set up in C as this
        object sets them up and adapted as its primitive calls would
        adapt them; tests compare the two bank by bank.
        """
        return (
            self.split.probs,
            self.pred_flag.probs,
            self.mpm_flag.probs,
            self.mpm_index.probs,
            self.cbf.probs,
            self.last.probs,
            self.sig.probs,
            self.level.probs,
            self.mv.probs,
        )


def _sig_ctx(cls: int, index: int, n: int) -> int:
    """Significance-flag context: position class within the scan."""
    if index < 2:
        bucket = 0
    elif index < n:
        bucket = 1
    else:
        bucket = 2
    return cls * _SIG_CTX_PER_CLASS + bucket


@lru_cache(maxsize=None)
def _sig_buckets(n: int) -> Tuple[int, ...]:
    """Per-scan-position significance bucket (``_sig_ctx`` minus the
    class offset), precomputed once per block size for the fused coder."""
    return tuple(0 if i < 2 else (1 if i < n else 2) for i in range(n * n))


def encode_coeff_block(
    enc: BinaryEncoder, ctx: CodecContexts, levels: np.ndarray, stats=None
) -> None:
    """Entropy-code one quantized coefficient block (any square size).

    Without ``stats`` the significance / level / sign scan is emitted by
    the fused pure-Python scan coder -- the twin of ``coeff_block`` in
    ``_write_kernel.c``, which the slice-encode kernel uses.  With
    ``stats`` (a :class:`repro.telemetry.EncodeStats`) the block goes
    through :func:`encode_coeff_block_primitive`, which measures the
    exact bit split; both emit the same bin sequence (tests pin the
    fused coder against the primitive loop).
    """
    if stats is not None:
        encode_coeff_block_primitive(enc, ctx, levels, stats)
        return
    n = levels.shape[0]
    cls = size_class(n)
    scanned = zigzag_scan(levels)
    nz = np.nonzero(scanned)[0]
    if nz.size == 0:
        enc.encode_bit(ctx.cbf, 0, 0)
        return
    last = int(nz[-1])
    enc.encode_bit(ctx.cbf, 0, 1)
    enc.encode_ueg(ctx.last, cls * _LAST_PREFIX, last, _LAST_PREFIX, k=1)
    enc.encode_coeff_scan(
        scanned.tolist(),
        last,
        ctx.sig.probs,
        cls * _SIG_CTX_PER_CLASS,
        _sig_buckets(n),
        ctx.level.probs,
        cls * _LEVEL_PREFIX,
        _LEVEL_PREFIX,
        1,
    )


def encode_coeff_block_primitive(
    enc: BinaryEncoder, ctx: CodecContexts, levels: np.ndarray, stats=None
) -> None:
    """:func:`encode_coeff_block` as one primitive coder call per bin.

    The definition of the block syntax, the writer of
    :class:`repro.codec.reference.ReferenceEncoder`, and the
    instrumented writer: ``stats``
    (or None) receives the exact bit split of this block over the
    ``cbf`` / ``last`` / ``sig`` / ``level`` element classes, measured
    with :meth:`BinaryEncoder.tell_bits` deltas (sign bins are folded
    into ``level``).
    """
    n = levels.shape[0]
    cls = size_class(n)
    scanned = zigzag_scan(levels)
    nz = np.nonzero(scanned)[0]
    track = stats is not None
    if track:
        mark = enc.tell_bits()
        stats.add_count("coeff_blocks")
    if nz.size == 0:
        enc.encode_bit(ctx.cbf, 0, 0)
        if track:
            stats.add_bits("cbf", enc.tell_bits() - mark)
        return
    enc.encode_bit(ctx.cbf, 0, 1)
    if track:
        now = enc.tell_bits()
        stats.add_bits("cbf", now - mark)
        mark = now
    last = int(nz[-1])
    enc.encode_ueg(ctx.last, cls * _LAST_PREFIX, last, _LAST_PREFIX, k=1)
    if track:
        now = enc.tell_bits()
        stats.add_bits("last", now - mark)
        mark = now
    sig_bits = 0
    level_bits = 0
    for i in range(last, -1, -1):
        level = int(scanned[i])
        if i != last:  # significance of the last coefficient is implied
            enc.encode_bit(ctx.sig, _sig_ctx(cls, i, n), 1 if level else 0)
            if track:
                now = enc.tell_bits()
                sig_bits += now - mark
                mark = now
        if level:
            magnitude = abs(level)
            enc.encode_ueg(
                ctx.level, cls * _LEVEL_PREFIX, magnitude - 1, _LEVEL_PREFIX, k=1
            )
            enc.encode_bypass(1 if level < 0 else 0)
            if track:
                now = enc.tell_bits()
                level_bits += now - mark
                mark = now
    if track:
        stats.add_bits("sig", sig_bits)
        stats.add_bits("level", level_bits)
        stats.add_count("coeff_nonzero", int(nz.size))


def decode_coeff_block_scanned(
    dec: BinaryDecoder, ctx: CodecContexts, n: int
) -> Optional[np.ndarray]:
    """Inverse of :func:`encode_coeff_block`, levels left in scan order.

    Returns ``None`` for an all-zero block (cbf = 0), else a length
    ``n*n`` int64 vector -- the zigzag unscan is left to the caller,
    which batches it across every same-size leaf of the frame.  The
    bins are drained by the fused pure-Python
    :meth:`BinaryDecoder.decode_coeff_scan` loop: this is the per-leaf
    step of the decoder's Python walk, the twin of the compiled
    whole-slice kernel (``native.plan_slices``), which contains the same
    loop.  It is held to the writers' contexts and levels bin for bin
    (``tests/test_fast_decode.py::TestFusedScan``), and its
    :class:`CorruptStreamError` messages are pinned on crafted blocks
    (``tests/test_decode_fuzz.py``).
    """
    cls = size_class(n)
    if dec.decode_bit(ctx.cbf, 0) == 0:
        return None
    last = dec.decode_ueg(ctx.last, cls * _LAST_PREFIX, _LAST_PREFIX, k=1)
    if last >= n * n:
        raise CorruptStreamError("corrupt stream: last coefficient out of range")
    scanned = dec.decode_coeff_scan(
        n * n,
        last,
        ctx.sig.probs,
        cls * _SIG_CTX_PER_CLASS,
        _sig_buckets(n),
        ctx.level.probs,
        cls * _LEVEL_PREFIX,
        _LEVEL_PREFIX,
        1,
    )
    return np.asarray(scanned, dtype=np.int64)


def estimate_coeff_bits(levels: np.ndarray) -> float:
    """Cheap rate proxy used during RD mode decision (no coder state)."""
    scanned = zigzag_scan(levels)
    nz = np.nonzero(scanned)[0]
    if nz.size == 0:
        return 1.0
    last = int(nz[-1])
    mags = np.abs(scanned[: last + 1])
    nonzero = mags[mags > 0]
    # 1 bit/sig-flag, ~2*log2(m)+2 bits per level (unary-Golomb-ish), sign.
    level_bits = np.sum(2.0 * np.log2(nonzero.astype(np.float64) + 1.0) + 2.0)
    return 4.0 + (last + 1) + float(level_bits)


def encode_intra_mode(
    enc: BinaryEncoder,
    ctx: CodecContexts,
    mode: int,
    left_mode: Optional[int],
    top_mode: Optional[int],
    all_modes: Tuple[int, ...],
) -> None:
    """Signal an intra mode with the 3-entry most-probable-mode scheme."""
    mpm = most_probable_modes(left_mode, top_mode)
    if mode in mpm:
        enc.encode_bit(ctx.mpm_flag, 0, 1)
        index = mpm.index(mode)
        enc.encode_bit(ctx.mpm_index, 0, 1 if index > 0 else 0)
        if index > 0:
            enc.encode_bit(ctx.mpm_index, 1, index - 1)
        return
    enc.encode_bit(ctx.mpm_flag, 0, 0)
    remaining = [m for m in all_modes if m not in mpm]
    width = max(1, (len(remaining) - 1).bit_length())
    enc.encode_bypass_bits(remaining.index(mode), width)


def decode_intra_mode(
    dec: BinaryDecoder,
    ctx: CodecContexts,
    left_mode: Optional[int],
    top_mode: Optional[int],
    all_modes: Tuple[int, ...],
) -> int:
    """Inverse of :func:`encode_intra_mode`."""
    mpm = most_probable_modes(left_mode, top_mode)
    if dec.decode_bit(ctx.mpm_flag, 0):
        if dec.decode_bit(ctx.mpm_index, 0) == 0:
            return mpm[0]
        return mpm[1 + dec.decode_bit(ctx.mpm_index, 1)]
    remaining = [m for m in all_modes if m not in mpm]
    width = max(1, (len(remaining) - 1).bit_length())
    index = dec.decode_bypass_bits(width)
    if index >= len(remaining):
        raise CorruptStreamError("corrupt stream: intra mode index out of range")
    return remaining[index]


def estimate_mode_bits_many(
    modes: Sequence[int], left_mode: Optional[int], top_mode: Optional[int]
) -> np.ndarray:
    """Rate proxy for intra mode signalling, one entry per candidate:
    2 bits for a most-probable mode, 6.5 otherwise."""
    mpm = most_probable_modes(left_mode, top_mode)
    # A plain comprehension beats np.isin by ~10x for an 11-candidate
    # list against a 3-entry MPM set (this runs once per leaf trial).
    return np.array([2.0 if m in mpm else 6.5 for m in modes])


def encode_mv(enc: BinaryEncoder, ctx: CodecContexts, mv: Tuple[int, int]) -> None:
    """Code a motion vector (raw, zero-predicted)."""
    for axis, component in enumerate(mv):
        magnitude = abs(component)
        enc.encode_ueg(ctx.mv, axis * _RUN_PREFIX, magnitude, _RUN_PREFIX, k=1)
        if magnitude:
            enc.encode_bypass(1 if component < 0 else 0)


def decode_mv(dec: BinaryDecoder, ctx: CodecContexts) -> Tuple[int, int]:
    """Inverse of :func:`encode_mv`."""
    out: List[int] = []
    for axis in range(2):
        magnitude = dec.decode_ueg(ctx.mv, axis * _RUN_PREFIX, _RUN_PREFIX, k=1)
        if magnitude and dec.decode_bypass():
            magnitude = -magnitude
        out.append(magnitude)
    return out[0], out[1]
