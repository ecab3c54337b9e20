"""Pass 2 runs once per group of slices; no slice notices.

``FrameEncoder`` hands the slice-encode kernel a whole *group* of
consecutive slices -- the bound pass 1 and the decoder group by,
``encoder.GROUP_SAMPLES`` padded samples: a KV page's four one-CTU
slices, four 128 x 128 tiles, one 256 x 256 tile -- and the Python twin
re-codes only the slices it refuses.  The contract under test:

* *group invariance* -- a slice's bytes, reconstruction and bit ledger
  are the same coded alone, first or last in a group, or either side of
  a group boundary;
* *kernel == twin* -- per slice of a multi-slice group: finished bytes,
  reconstruction plane, context banks and ledger;
* *a refusal inside a group* -- starving each capacity of slice ``k``
  behind guard words refuses ``k`` alone, counts it once, and leaves
  its neighbours coded by the kernel;
* *call count* -- a KV page is one pass-2 binding call (four while
  pass 2 ran per slice);
* *cached gathers* -- pass 1's padding, reference windows and per-block
  quantizers equal the ``np.pad`` / ``sliding_window_view`` /
  ``np.ix_`` definitions they replaced.

Cases that need the kernel skip themselves, so the file also runs in
the ``LLM265_PURE_PYTHON=1`` leg.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import repro.telemetry as telemetry
from benchmarks.identity_matrix import PROFILES, QPS, SHAPES
from repro.codec import encoder as encoder_mod
from repro.codec.encoder import (
    _LAMBDAS,
    _QSTEPS,
    GROUP_SAMPLES,
    EncoderConfig,
    FrameEncoder,
    QpDither,
    _block_ctus,
    _padded_planes,
    _reference_windows,
)
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.quantizer import qstep, rd_lambda
from repro.codec.syntax import CodecContexts

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

needs_kernel = pytest.mark.skipif(
    not native.available(),
    reason="slice-encode kernel unavailable (no compiler or pure-python)",
)

_REPORT = {name: column for column, name in enumerate(native.ENCODE_REPORT)}
# Positions in native.encode_slices' signature.
_ROWS, _LEVELS, _OUT, _BITS = 13, 14, 15, 16


def _frames(shape, count, seed=0):
    height, width = shape
    base = np.linspace(30, 220, width)[None, :] + np.linspace(-40, 40, height)[:, None]
    return [
        np.clip(
            base + np.random.default_rng([height, width, k, seed]).normal(0, 22, shape),
            0, 255,
        ).astype(np.uint8)
        for k in range(count)
    ]


def _padded_samples(shape, profile):
    ctu = profile.ctu_size
    return (shape[0] + -shape[0] % ctu) * (shape[1] + -shape[1] % ctu)


class _Probe(FrameEncoder):
    """Keeps what pass 2 returned for every slice: ``(payload, recon bytes)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slices = []

    def _turbo_pass2(self, planes, pass1):
        coded = super()._turbo_pass2(planes, pass1)
        self.slices.extend((payload, recon.tobytes()) for payload, recon in coded)
        return coded


@pytest.fixture
def ledger_rows(monkeypatch):
    """The kernel's per-slice ledger rows of every slice it coded, in order."""
    rows = []
    real = native.encode_slices

    def spy(*args, **kwargs):
        report = real(*args, **kwargs)
        if report is not None and args[_BITS] is not None:
            rows.extend(
                bits.tolist()
                for bits, status in zip(args[_BITS], report[:, _REPORT["status"]])
                if status == 0
            )
        return report

    monkeypatch.setattr(native, "encode_slices", spy)
    return rows


# -- (i) group invariance ----------------------------------------------------


def _coded(monkeypatch, budget, config, frames, ledger_rows):
    """Every slice's ``(payload, recon bytes, ledger row)`` under a group
    bound, and the stream's ledger."""
    monkeypatch.setattr(encoder_mod, "GROUP_SAMPLES", budget)
    del ledger_rows[:]
    probe = _Probe(config)
    with telemetry.session():
        result = probe.encode(frames)
    rows = ledger_rows[:] or [None] * len(frames)
    ledger = {key: result.stats[key] for key in ("bits", "counts", "qp")}
    return [(*pair, row) for pair, row in zip(probe.slices, rows)], ledger, result


def _cases():
    """The identity matrix's profile x QP x shape; the twin never sees a
    group (it codes slice by slice whatever the bound), so without the
    kernel only the dithered QP is tried."""
    ready = native.available()
    return [
        pytest.param(profile, qp, shape, id=f"{profile.name}-{qp}-{shape[0]}x{shape[1]}")
        for profile in PROFILES
        for qp in (QPS if ready else (24.5,))
        for shape in SHAPES
    ]


class TestGroupInvariance:
    @pytest.mark.parametrize("profile, qp, shape", _cases())
    def test_slices_do_not_depend_on_group_mates(
        self, monkeypatch, ledger_rows, profile, qp, shape
    ):
        # Nine frames: in the default groups one group (first 0, last 8),
        # in groups of three first 0 / 3 / 6, last 2 / 5 / 8, and the
        # boundaries 2 | 3 and 5 | 6.
        config = EncoderConfig(profile=profile, qp=qp)
        frames = _frames(shape, 9)
        alone, alone_ledger, alone_result = _coded(
            monkeypatch, 0, config, frames, ledger_rows
        )
        for budget in (GROUP_SAMPLES, 3 * _padded_samples(shape, profile)):
            grouped, ledger, result = _coded(
                monkeypatch, budget, config, frames, ledger_rows
            )
            for name, position in (("bytes", 0), ("recon", 1), ("ledger row", 2)):
                moved = [
                    index
                    for index, (got, want) in enumerate(zip(grouped, alone))
                    if got[position] != want[position]
                ]
                assert not moved, f"slices {moved}: {name} moved in groups of {budget}"
            assert ledger == alone_ledger
            assert result.data == alone_result.data and result.mse == alone_result.mse


# -- (ii) kernel == twin, slice by slice ----------------------------------------


@needs_kernel
class TestKernelEqualsTwin:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize(
        "shape, count", [((16, 32), 4), ((50, 70), 9), ((33, 17), 5)]
    )
    def test_bytes_planes_banks_and_ledger_per_slice(
        self, monkeypatch, profile, shape, count
    ):
        config = EncoderConfig(profile=profile, qp=24.5)
        encoder = FrameEncoder(config)
        planes = _padded_planes(_frames(shape, count), encoder._ctu)
        pass1 = encoder._turbo_pass1(planes, QpDither(24, 128))

        kept = {}
        real = native.encode_slices

        def keep(*args, **kwargs):
            kept["banks"] = np.empty((count, native.BANK_TOTAL), dtype=np.int32)
            kept["report"] = real(*args, banks=kept["banks"], **kwargs)
            kept["bits"] = args[_BITS]
            return kept["report"]

        monkeypatch.setattr(native, "encode_slices", keep)
        encoder._stats = telemetry.EncodeStats()
        kernel = encoder._turbo_pass2(planes, pass1)
        assert not kept["report"][:, _REPORT["status"]].any()
        edges = np.cumsum(native._SLICE_BANK_SIZES)[:-1]
        for k, (payload, recon) in enumerate(kernel):
            encoder._stats = stats = telemetry.EncodeStats()
            enc, ctx = BinaryEncoder(), CodecContexts()
            twin_recon = encoder._encode_frame(enc, ctx, planes[k], pass1.frame(k))
            assert payload == enc.finish(), f"slice {k}: bytes"
            assert recon.tobytes() == twin_recon.tobytes(), f"slice {k}: plane"
            banks = [bank.tolist() for bank in np.split(kept["banks"][k], edges)]
            assert banks == [list(bank) for bank in ctx.banks()], f"slice {k}: contexts"
            row = dict(zip(native.ENCODE_BIT_CLASSES, kept["bits"][k].tolist()))
            assert {name: row[name] for name in stats.bits} == stats.bits
            assert not any(row[name] for name in row.keys() - stats.bits.keys())


# -- (iii) a refusal inside a group --------------------------------------------

_GUARD = 0x5A


def _page_of(busy):
    """Four one-CTU slices, flat but for slice ``busy``, a mosaic of 8 x 8
    tiles: the flat ones need a few bytes, one leaf and no levels each,
    ``busy`` splits down to its tiles and codes them, so it needs more of
    every capacity than the slices after it together."""
    frames = [np.full((32, 32), 128, dtype=np.uint8) for _ in range(4)]
    tiles = np.random.default_rng(busy).integers(0, 256, (4, 4))
    frames[busy] = np.kron(tiles, np.ones((8, 8))).astype(np.uint8)
    return frames


def _report(frames, config):
    reports = []
    real = native.encode_slices

    def spy(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "encode_slices", spy)
        FrameEncoder(config).encode(frames)
    (report,) = reports
    return report


@needs_kernel
class TestRefusalInsideAGroup:
    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize(
        "short, column, status",
        [(_OUT, "out_end", 1), (_ROWS, "leaf_end", 2), (_LEVELS, "level_end", 2)],
        ids=["out", "rows", "levels"],
    )
    def test_starving_slice_k_refuses_k_alone(
        self, monkeypatch, k, short, column, status
    ):
        config = EncoderConfig(qp=18.0)
        frames = _page_of(k)
        ends = _report(frames, config)[:, _REPORT[column]].tolist()
        needs = np.diff([0] + ends)
        assert needs[k] - 1 >= sum(needs[k + 1 :])  # the slices behind k fit
        capacity = ends[k] - 1  # one short inside slice k

        statuses = []
        real = native.encode_slices

        def starved(*args, **kwargs):
            args = list(args)
            if short == _ROWS:
                # The encoder reads no plan column back: a buffer of its own.
                size = native.PLAN_ROWS * capacity
                backing = np.full(size + 16, _GUARD, dtype=np.int64)
                args[short] = backing[: native.PLAN_ROWS * capacity].reshape(
                    native.PLAN_ROWS, capacity
                )
                guard = backing[native.PLAN_ROWS * capacity :]
            else:
                # The encoder reads bytes and levels back from its own
                # buffer: cut that short, guard words behind the cut.
                guard = args[short][capacity : capacity + 16]
                guard[:] = _GUARD
                args[short] = args[short][:capacity]
            report = real(*args, **kwargs)
            assert (guard == _GUARD).all(), "wrote past the capacity"
            statuses.extend(report[:, _REPORT["status"]].tolist())
            return report

        monkeypatch.setattr(native, "encode_slices", starved)
        with telemetry.session() as registry:
            got = FrameEncoder(config).encode(frames)
        want = [0] * 4
        want[k] = status
        assert statuses == want
        assert registry.counters.get("encode.kernel_refusals") == 1
        monkeypatch.undo()
        twin = FrameEncoder(EncoderConfig(qp=18.0, encode="python")).encode(frames)
        assert got.data == twin.data and got.mse == twin.mse


# -- (iv) the count ---------------------------------------------------------------


@needs_kernel
class TestCallCounts:
    @pytest.mark.parametrize(
        "shape, count, calls", [((16, 32), 4, 1), ((128, 128), 5, 2), ((256, 256), 2, 2)]
    )
    def test_one_pass2_call_per_group(self, monkeypatch, shape, count, calls):
        # A KV page's four one-CTU slices are one group (four calls while
        # pass 2 ran per slice); four 128 x 128 tiles fill a group; a
        # 256 x 256 tile is a group of one.
        made = []
        real = native.encode_slices

        def counted(*args, **kwargs):
            report = real(*args, **kwargs)
            made.append(report[:, _REPORT["status"]].tolist())
            return report

        monkeypatch.setattr(native, "encode_slices", counted)
        with telemetry.session() as registry:
            FrameEncoder(EncoderConfig(qp=26.0)).encode(_frames(shape, count))
        assert len(made) == calls
        assert sum(made, []) == [0] * count
        assert "encode.kernel_refusals" not in registry.counters


# -- (v) the cached gathers --------------------------------------------------------


def _padded_by_definition(frames, multiple):
    return np.stack(
        [
            np.pad(f, ((0, -f.shape[0] % multiple), (0, -f.shape[1] % multiple)), mode="edge")
            for f in frames
        ]
    ).astype(float)


def _windows_by_definition(planes, n):
    count, height, width = planes.shape
    by, bx = height // n, width // n
    padded = np.pad(planes, ((0, 0), (1, n), (1, n)), mode="edge")
    ys = np.arange(by) * n
    xs = np.arange(bx) * n
    tops = sliding_window_view(padded[:, ys], 2 * n + 1, axis=2)[:, :, xs]
    lefts = sliding_window_view(padded[:, :, xs], 2 * n + 1, axis=1)[:, ys]
    return np.concatenate([tops, lefts], axis=3).reshape(count * by * bx, 4 * n + 2)


class TestCachedGathers:
    @pytest.mark.parametrize("shape", [*SHAPES, (1, 70), (1, 1)])
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_equal_the_definitions_they_replaced(self, profile, shape):
        encoder = FrameEncoder(EncoderConfig(profile=profile))
        ctu = encoder._ctu
        rng = np.random.default_rng(list(shape))
        frames = [rng.integers(0, 256, shape).astype(np.uint8) for _ in range(3)]
        planes = _padded_planes(frames, ctu)
        assert planes.dtype == np.float64 and planes.flags.c_contiguous
        assert planes.tobytes() == _padded_by_definition(frames, ctu).tobytes()

        count, height, width = planes.shape
        step = _QSTEPS[rng.integers(0, 52, (count, height // ctu, width // ctu))]
        for n in encoder._sizes:
            refs = _reference_windows(planes, n)
            assert refs.flags.c_contiguous
            assert refs.tobytes() == _windows_by_definition(planes, n).tobytes()
            at = np.ix_(
                np.arange(count), np.arange(height // n) * n // ctu,
                np.arange(width // n) * n // ctu,
            )
            blocks = step.reshape(count, -1)[:, _block_ctus(height, width, ctu, n)]
            assert blocks.ravel().tobytes() == step[at].ravel().tobytes()

    def test_quantizer_tables_are_the_functions(self):
        for qp in range(256):
            assert _QSTEPS[qp] == qstep(qp) and _LAMBDAS[qp] == rd_lambda(qp)
