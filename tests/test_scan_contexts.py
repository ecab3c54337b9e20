"""The coefficient scan at its context boundaries: kernel == twin.

The slice kernel keeps a size class's three significance and three level
probabilities in locals for a whole scan and runs it as three segments:
significance context 2 above scan position ``n``, 1 down to position 2,
0 below.  A segment boundary is where an off-by-one would hide, so every
size class 4..64 is driven with ``last`` at ``n * n - 1``, ``n``,
``n - 1``, ``2``, ``1`` and ``0`` -- one leaf each, six CTUs a slice, on
hand-built slices (no partitioning, no intra modes: nothing but cbf,
last position and the scan).  Kernel and Python walk must agree on the
levels, every adapted context bank, the coder's end state and
``scan_bins``.

A refusal mid-scan is a second kind of exit: the locals must go back to
the banks then too.  A slice whose scan runs away in position 1 (past
every segment) sits third in a group of four: it alone is refused, its
columns are given back, its neighbours decode as they do alone, and its
contexts and coder state are the twin's at the bin where the twin
raises.

Cases that need the slice kernel skip themselves, so the file also runs
in the ``LLM265_PURE_PYTHON=1`` leg.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codec.decoder import FrameDecoder
from repro.codec.encoder import EncoderConfig, pack_header
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.syntax import CodecContexts, encode_coeff_block
from repro.codec.transform import zigzag_unscan
from repro.resilience import CorruptStreamError

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

needs_kernels = pytest.mark.skipif(
    not native.available(), reason="slice kernels unavailable (no compiler or pure-python)"
)

SIZES = (4, 8, 16, 32, 64)
_REPORT = {name: column for column, name in enumerate(native.SLICE_REPORT)}


def _lasts(n):
    return (n * n - 1, n, n - 1, 2, 1, 0)


def _header(n, count=1):
    """A stream of ``count`` one-row slices: six n x n CTUs, one leaf each."""
    config = EncoderConfig(use_partition=False, use_intra=False, fixed_cu_size=n)
    return pack_header(config, 6 * n, n, count)


def _scan(rng, n, last):
    """Scan-order levels ending at ``last``: zeros, small levels, escapes
    and one magnitude that needs the wide Exp-Golomb path."""
    scanned = np.zeros(n * n, dtype=np.int64)
    body = rng.choice([0, 0, 1, 1, 2, 3, 5, 40, 300], size=last + 1)
    body[last] = max(1, body[last])
    scanned[: last + 1] = body * rng.choice([-1, 1], size=last + 1)
    if last > 2:
        scanned[last // 2] = -(1 << 40)
    return scanned


def _slice(n, seed):
    """One slice: a leaf at each of the six ``last`` positions, in an order
    drawn by ``seed`` (so the contexts each scan starts from differ)."""
    rng = np.random.default_rng([n, seed])
    enc = BinaryEncoder()
    ctx = CodecContexts()
    scans = [_scan(rng, n, last) for last in rng.permutation(_lasts(n))]
    for scanned in scans:
        encode_coeff_block(enc, ctx, zigzag_unscan(scanned, n))
    return enc.finish(), scans


def _runaway_slice(n):
    """A slice whose second leaf's scan runs away at scan position 1.

    The first leaf is a whole clean block; the second starts at
    ``last = n * n - 1`` and crosses every significance segment before
    position 1 opens an Exp-Golomb suffix that never ends."""
    cls = SIZES.index(n)
    enc = BinaryEncoder()
    ctx = CodecContexts()
    encode_coeff_block(enc, ctx, zigzag_unscan(_scan(np.random.default_rng(n), n, n), n))
    last = n * n - 1
    enc.encode_bit(ctx.cbf, 0, 1)
    enc.encode_ueg(ctx.last, cls * 10, last, 10, k=1)
    for i in range(last, 0, -1):
        significant = i == last or i == 1 or i % 3 == 0
        if i != last:
            bucket = 0 if i < 2 else (1 if i < n else 2)
            enc.encode_bit(ctx.sig, cls * 3 + bucket, int(significant))
        if not significant:
            continue
        if i == 1:
            for prefix in range(3):
                enc.encode_bit(ctx.level, cls * 3 + prefix, 1)
            for _ in range(70):
                enc.encode_bypass(0)
            break
        enc.encode_bit(ctx.level, cls * 3, 1)
        enc.encode_bit(ctx.level, cls * 3 + 1, 0)
        enc.encode_bypass(i & 1)
    return enc.finish()


def _twin(n, segment):
    """The Python walk over one slice: (plan or None, banks, coder state)."""
    decoder = FrameDecoder(_header(n))
    try:
        plan = decoder._walk_slice(segment)
    except CorruptStreamError:
        plan = None
    dec = decoder._dec
    banks = np.concatenate([np.asarray(bank, dtype=np.int32) for bank in decoder._ctx.banks()])
    return plan, banks, (dec._pos, dec._range, dec._code, dec.scan_bins)


def _kernel(n, segments):
    rows = np.empty((native.PLAN_ROWS, 6 * len(segments)), dtype=np.int64)
    levels = np.empty(len(segments) * 6 * n * n, dtype=np.int64)
    banks = np.empty((len(segments), native.BANK_TOTAL), dtype=np.int32)
    report = native.plan_slices(
        segments, n, 6 * n, n, n, False, False, False, (0, 1), rows, levels, banks
    )
    return report, rows, levels, banks


@pytest.mark.parametrize("n", SIZES)
def test_the_twin_reads_back_every_boundary(n):
    segment, scans = _slice(n, seed=0)
    plan, _, _ = _twin(n, segment)
    assert plan.n_leaves == 6
    np.testing.assert_array_equal(plan.levels, np.concatenate(scans))


@needs_kernels
@pytest.mark.parametrize("n", SIZES)
def test_kernel_equals_twin_at_every_boundary(n):
    segments = [_slice(n, seed)[0] for seed in range(4)]
    report, rows, levels, banks = _kernel(n, segments)
    assert not report[:, _REPORT["status"]].any()
    leaf_start = level_start = 0
    for k, segment in enumerate(segments):
        plan, twin_banks, state = _twin(n, segment)
        leaf_end, level_end = report[k, _REPORT["leaf_end"] :].tolist()
        np.testing.assert_array_equal(levels[level_start:level_end], plan.levels)
        np.testing.assert_array_equal(  # y0, x0, size
            rows[:3, leaf_start:leaf_end], plan.rows[:3, : plan.n_leaves]
        )
        np.testing.assert_array_equal(banks[k], twin_banks)
        assert tuple(report[k, _REPORT["pos"] : _REPORT["scan_bins"] + 1]) == state
        leaf_start, level_start = leaf_end, level_end


@needs_kernels
@pytest.mark.parametrize("n", SIZES)
def test_a_refusal_mid_scan_gives_back_its_columns_and_keeps_its_state(n):
    good = [_slice(n, seed)[0] for seed in range(3)]
    bad = _runaway_slice(n)
    plan, bad_banks, (pos, rng, code, _) = _twin(n, bad)
    assert plan is None  # the twin raises: "corrupt UEG suffix"
    group = [good[0], good[1], bad, good[2]]
    report, rows, levels, banks = _kernel(n, group)
    assert report[:, _REPORT["status"]].tolist() == [0, 0, 1, 0]
    leaf_end = report[:, _REPORT["leaf_end"]].tolist()
    level_end = report[:, _REPORT["level_end"]].tolist()
    assert leaf_end == [6, 12, 12, 18]
    assert level_end[2] == level_end[1]
    # The locals went back on the refusal: the refused slice's contexts
    # and coder are the twin's where it raised.
    np.testing.assert_array_equal(banks[2], bad_banks)
    assert tuple(report[2, _REPORT["pos"] : _REPORT["code"] + 1]) == (pos, rng, code)
    # The slice behind it decodes as it does alone, into the freed columns.
    alone, alone_banks, alone_state = _twin(n, good[2])
    np.testing.assert_array_equal(levels[level_end[1] : level_end[3]], alone.levels)
    offsets = rows[native.PLAN_FIELDS.index("coeff_offset"), 12:18] - level_end[1]
    np.testing.assert_array_equal(offsets, alone.field("coeff_offset"))
    ctu_index = rows[native.PLAN_FIELDS.index("ctu_index"), 12:18] - 3 * 6
    np.testing.assert_array_equal(ctu_index, alone.field("ctu_index"))
    np.testing.assert_array_equal(banks[3], alone_banks)
    assert tuple(report[3, _REPORT["pos"] : _REPORT["scan_bins"] + 1]) == alone_state
    for k in (0, 1):
        _, twin_banks, state = _twin(n, good[k])
        np.testing.assert_array_equal(banks[k], twin_banks)
        assert tuple(report[k, _REPORT["pos"] : _REPORT["scan_bins"] + 1]) == state
