"""The decode path: whole-slice kernels, their twin, the reference decoder.

The contract under test: the entropy -> reconstruct decoder
-- through the two whole-slice C kernels AND through their pure-Python
twin -- is *sample-identical* to the interleaved reference decoder
(``repro.codec.reference``, "legacy" in the names below) on every
profile, QP, frame shape and prediction mode: same ``uint8`` frames,
same float64 reconstruction plane, same coder state and context
probabilities left behind, and (kernels vs twin) the same leaf-plan
arrays.  Plus the dispatch policy around it: parallel decode falls
back to serial below the slice/byte/CPU thresholds (pinned here) and
whenever the slice kernels are not usable; no public layer has a ``decode=`` option left; and the ``decode.*``
telemetry ledger is the same serial or fanned out.
"""

from __future__ import annotations

import numpy as np
import pytest

import dataclasses

import repro.telemetry as telemetry
from benchmarks.identity_matrix import PROFILES, QPS, SHAPES
from repro.codec import decoder as decoder_mod
from repro.codec import encoder as encoder_mod
from repro.codec import intra, reference, transform
from repro.codec.decoder import (
    FrameDecoder,
    decode_frames,
    decode_frames_with_report,
)
from repro.codec.encoder import EncoderConfig, FrameEncoder, pack_header
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryDecoder, BinaryEncoder
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.codec.reference import decode_coeff_block
from repro.codec.syntax import (
    CodecContexts,
    decode_coeff_block_scanned,
    encode_coeff_block,
)
from repro.codec.transform import zigzag_unscan
from repro.resilience.framing import deframe_slices
from repro.parallel import ParallelConfig, pool_stats
from repro.serving.ladder import DEFAULT_LADDER, Rung
from repro.serving.service import CodecService
from repro.telemetry import DECODE_STAGES, DecodeStats, flightrecorder
from repro.tensor.checkpoint import load_checkpoint, save_checkpoint
from repro.tensor.codec import TensorCodec

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]


def _frames(n=4, h=64, w=64, seed=11):
    rng = np.random.default_rng(seed)
    base = np.linspace(40, 200, w)[None, :] + np.linspace(-30, 30, h)[:, None]
    return [
        np.clip(base + rng.normal(0, 25, (h, w)), 0, 255).astype(np.uint8)
        for _ in range(n)
    ]


def _tensor(seed=5, edge=64):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((edge, 4))
    v = rng.standard_normal((4, edge))
    return (u @ v + 0.2 * rng.standard_normal((edge, edge))).astype(np.float32)


def _coeff_stream(seed=3, blocks=12, n=8, spread=9):
    """Encode `blocks` random coefficient blocks; return (data, levels)."""
    rng = np.random.default_rng(seed)
    enc = BinaryEncoder()
    ctx = CodecContexts()
    all_levels = []
    for _ in range(blocks):
        levels = rng.integers(-spread, spread + 1, size=(n, n))
        levels[rng.random((n, n)) < 0.6] = 0
        all_levels.append(levels.astype(np.int64))
        encode_coeff_block(enc, ctx, all_levels[-1])
    return enc.finish(), all_levels


def _big_stream(qp=18.0):
    # Noisy frames so the payload clears the 32 KiB byte threshold, two
    # to a group (a fan-out hands out whole groups and needs two).
    rng = np.random.default_rng(5)
    frames = [
        rng.integers(0, 256, (128, 256)).astype(np.uint8) for _ in range(4)
    ]
    return FrameEncoder(EncoderConfig(qp=qp)).encode(frames).data


def _force_pure(monkeypatch):
    monkeypatch.setattr(native, "available", lambda: False)


needs_kernels = pytest.mark.skipif(
    not native.available(), reason="slice kernels unavailable"
)


class _Probe(FrameDecoder):
    """Records what each slice left behind.

    Per slice: the float64 reconstruction plane, the range decoder's
    final ``(pos, range, code)`` and ``scan_bins``, a copy of every
    context bank, and the slice's own leaf plan -- read off the group's
    plan, report and (through the binding's ``banks=`` argument) context
    rows when the kernels ran, off the walk's coder otherwise.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slices = []
        self.groups = []  # (plan, report) of every group, as stage one returned them

    def _walk_slice(self, segment):
        plan = super()._walk_slice(segment)
        self._banks.append([list(bank) for bank in self._ctx.banks()])
        return plan

    def _plan_group(self, segments, indices):
        self._banks = []
        real = native.plan_slices

        def with_banks(segments, *args):
            rows = np.empty((len(segments), native.BANK_TOTAL), dtype=np.int32)
            report = real(segments, *args, banks=rows)
            if report is not None and not report[:, 0].any():
                edges = np.cumsum(native._SLICE_BANK_SIZES)[:-1]
                self._banks = [
                    [bank.tolist() for bank in np.split(row, edges)] for row in rows
                ]
            return report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "plan_slices", with_banks)
            plan, report = super()._plan_group(segments, indices)
        self.groups.append((plan, report.copy()))
        return plan, report

    def _decode_group(self, segments, indices, qps):
        planes, failed = super()._decode_group(segments, indices, qps)
        plan, report = self.groups[-1]
        for k, row in enumerate(report.tolist()):
            self.slices.append(
                {
                    "recon": planes[k].copy(),
                    "state": tuple(row[1:4]),
                    "bins": row[4],
                    "banks": self._banks[k],
                    "plan": decoder_mod._slice_of(
                        plan.rows, plan.levels, report, k, self._ctus
                    ),
                }
            )
        return planes, failed


class _ReferenceProbe(reference.ReferenceDecoder):
    """The same record (no plan) from the interleaved decoder."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.slices = []

    def _decode_frame(self, *args):
        recon = super()._decode_frame(*args)
        dec = self._dec
        self.slices.append(
            {
                "recon": recon.copy(),
                "state": (dec._pos, dec._range, dec._code),
                "bins": dec.scan_bins,
                "banks": [list(bank) for bank in self._ctx.banks()],
                "plan": None,
            }
        )
        return recon


def _probe(data, decoder=_Probe):
    probe = decoder(data)
    return probe.decode(), probe.slices


def _probe_legacy(data):
    return _probe(data, _ReferenceProbe)


def _probe_twin(data):
    """Production decode with the kernels switched off."""
    with pytest.MonkeyPatch.context() as patch:
        _force_pure(patch)
        return _probe(data)


def _assert_same_plan(a, b):
    assert a.n_leaves == b.n_leaves
    np.testing.assert_array_equal(
        a.rows[:, : a.n_leaves], b.rows[:, : b.n_leaves]
    )
    np.testing.assert_array_equal(a.levels, b.levels)


# (encoder, config): inter streams come from the reference encoder alone.
_STREAM_CONFIGS = [
    (FrameEncoder, dict(profile=H264_PROFILE, qp=20.0)),
    (FrameEncoder, dict(profile=H265_PROFILE, qp=26.0)),
    (FrameEncoder, dict(profile=AV1_PROFILE, qp=31.5)),
    (reference.ReferenceEncoder, dict(profile=H265_PROFILE, qp=22.0, use_inter=True)),
]


# -- the slice entropy stage vs. the primitive sequence -----------------


class TestFusedScan:
    def test_block_scan_matches_primitives(self):
        # The twin's per-leaf step against the primitive-call decoder.
        for n in (4, 8, 16):
            data, all_levels = _coeff_stream(seed=n, n=n)
            ref = BinaryDecoder(data)
            ref_ctx = CodecContexts()
            fast = BinaryDecoder(data)
            fast_ctx = CodecContexts()
            for levels in all_levels:
                a = decode_coeff_block(ref, ref_ctx, n)
                scanned = decode_coeff_block_scanned(fast, fast_ctx, n)
                b = (
                    np.zeros((n, n), dtype=np.int64)
                    if scanned is None
                    else zigzag_unscan(scanned, n)
                )
                np.testing.assert_array_equal(a, levels)
                np.testing.assert_array_equal(b, levels)
                assert (fast._pos, fast._range, fast._code) == (
                    ref._pos,
                    ref._range,
                    ref._code,
                )
                assert fast_ctx.banks() == ref_ctx.banks()

    @pytest.mark.parametrize("force_pure", [True, False])
    def test_scanned_decode_matches_primitives(self, monkeypatch, force_pure):
        # After every slice the plan stage (kernel or twin) must leave
        # the coder and *every* context bank exactly where the legacy
        # decoder's primitive calls leave them, or later slices of a
        # shared-state design -- and every identity claim -- would drift.
        if force_pure:
            _force_pure(monkeypatch)
        elif not native.available():
            pytest.skip("slice kernels unavailable")
        for encoder, config in _STREAM_CONFIGS:
            data = encoder(EncoderConfig(**config)).encode(
                _frames(n=3, h=48, w=80)
            ).data
            legacy_frames, legacy = _probe_legacy(data)
            fast_frames, fast = _probe(data)
            assert len(fast) == len(legacy) == 3
            for a, b in zip(legacy, fast):
                assert b["state"] == a["state"]
                assert b["banks"] == a["banks"]
                assert b["recon"].tobytes() == a["recon"].tobytes()
            for a, b in zip(legacy_frames, fast_frames):
                np.testing.assert_array_equal(a, b)

    @needs_kernels
    def test_scan_bins_counted(self):
        data = FrameEncoder(EncoderConfig(qp=22.0)).encode(_frames(n=2)).data
        _, kernel = _probe(data)
        _, twin = _probe_twin(data)
        for a, b in zip(kernel, twin):
            assert a["bins"] == b["bins"] > 0

    @needs_kernels
    def test_native_and_pure_loops_agree(self):
        for encoder, config in _STREAM_CONFIGS:
            data = encoder(EncoderConfig(**config)).encode(
                _frames(n=3, h=48, w=80, seed=17)
            ).data
            _, kernel = _probe(data)
            _, twin = _probe_twin(data)
            for a, b in zip(kernel, twin):
                _assert_same_plan(a["plan"], b["plan"])
                assert a["state"] == b["state"]
                assert a["bins"] == b["bins"]
                assert a["banks"] == b["banks"]
                assert a["recon"].tobytes() == b["recon"].tobytes()

    @needs_kernels
    def test_undersized_plan_buffers_are_refused(self):
        # Capacities are passed in and checked: a table or level buffer
        # too small for the slice gives a non-zero status, writes
        # nothing past the capacity it was given (guard words intact),
        # and what it did write is the prefix of the full plan.
        data = FrameEncoder(EncoderConfig(qp=22.0)).encode(_frames(n=1)).data
        _, (full,) = _probe(data)
        plan = full["plan"]
        decoder = FrameDecoder(data)
        h = decoder._header
        (segment,), _ = deframe_slices(decoder._payload, expected=1)
        guard = np.int64(0x5A5A5A5A5A5A5A5A)
        rows_n = native.PLAN_ROWS

        def run(leaf_cap, level_cap):
            table = np.full(rows_n * leaf_cap + 8, guard)
            levels = np.full(level_cap + 8, guard)
            report = native.plan_slices(
                [segment],  # a group of one
                64,
                64,
                h["ctu"],
                h["min_cu"],
                h["use_partition"],
                h["use_intra"],
                False,
                decoder._profile.all_modes,
                table[: rows_n * leaf_cap].reshape(rows_n, leaf_cap),
                levels[:level_cap],
            )
            assert (table[rows_n * leaf_cap :] == guard).all()
            assert (levels[level_cap:] == guard).all()
            status, n_leaves, n_levels = report[0, [0, 5, 6]].tolist()
            return (status, n_leaves, n_levels), table[
                : rows_n * leaf_cap
            ].reshape(rows_n, leaf_cap)

        (status, n_leaves, n_levels), rows = run(plan.n_leaves, len(plan.levels))
        assert (status, n_leaves, n_levels) == (0, plan.n_leaves, len(plan.levels))
        np.testing.assert_array_equal(rows, plan.rows[:, : plan.n_leaves])

        # A refused slice gives its columns back (its ends are where it
        # began); what it wrote before giving up is still the prefix.
        short = plan.n_leaves // 2
        (status, n_leaves, _), rows = run(short, len(plan.levels))
        assert status != 0 and n_leaves == 0
        np.testing.assert_array_equal(rows, plan.rows[:, :short])

        (status, _, n_levels), _ = run(plan.n_leaves, len(plan.levels) - 1)
        assert status != 0 and n_levels == 0

        (status, n_leaves, n_levels), _ = run(0, 0)
        assert status != 0 and (n_leaves, n_levels) == (0, 0)


# -- the reconstruct kernel vs. numpy ------------------------------------


@needs_kernels
class TestReconstructKernel:
    def test_fp_contract_is_off(self):
        # The planar and angular blends are a*b + c*d: a compiler free
        # to fuse them (GCC's default wherever the target has FMA)
        # rounds once where numpy rounds twice.
        assert "-ffp-contract=off" in native._CFLAGS

    @staticmethod
    def _one_leaf(recon, mask, n, mode, levels, step=0.75):
        rows = np.zeros((native.PLAN_ROWS, 1), dtype=np.int64)
        rows[:, 0] = (n, n, n, mode, 0, 0, 0, 0, -1 if levels is None else 0)
        scanned = (
            np.empty(0, dtype=np.int64) if levels is None else transform.zigzag_scan(levels)
        )
        # One plane, one leaf: a group of one.  Without the transform the
        # residual is the unscanned levels times the step.
        assert native.reconstruct_slices(
            recon[None], mask[None], None, rows, np.array([1]), scanned,
            np.array([step]), False,
        )
        return recon[n : 2 * n, n : 2 * n]

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_every_mode_matches_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        plane = rng.uniform(0.0, 255.0, (3 * n, 3 * n))
        available = np.zeros((3 * n, 3 * n), dtype=bool)
        available[:n, :] = True  # rows above (incl. above-right)
        available[:, :n] = True  # columns left (incl. below-left)
        levels = rng.integers(-400, 401, (n, n))  # x 0.75 drives both clips
        top, left = reference.gather_references_scalar(plane, available, n, n, n)
        for mode in range(-1, intra.NUM_MODES):
            predicted = (
                np.full((n, n), 128.0)
                if mode < 0
                else intra.predict(top, left, mode, n)
            )
            for coded in (None, levels):
                want = np.clip(
                    predicted + (0.0 if coded is None else coded * 0.75), 0.0, 255.0
                )
                mask = available.copy()
                got = self._one_leaf(plane.copy(), mask, n, mode, coded)
                assert got.tobytes() == want.tobytes(), (n, mode)
                assert mask[n : 2 * n, n : 2 * n].all()

    def test_unavailable_boundary_and_inter_copy(self):
        n = 8
        rng = np.random.default_rng(1)
        recon = np.zeros((2 * n, 2 * n))
        mask = np.zeros((2 * n, 2 * n), dtype=bool)
        reference = rng.uniform(0.0, 255.0, (2 * n, 2 * n))
        rows = np.zeros((native.PLAN_ROWS, 2), dtype=np.int64)
        rows[:, 0] = (0, 0, n, intra.DC, 0, 0, 0, 0, -1)  # nothing to gather
        rows[:, 1] = (n, n, n, -1, 1, 3, 5, 0, -1)  # inter, block at (3, 5)
        assert native.reconstruct_slices(
            recon[None], mask[None], reference, rows, np.array([2]),
            np.empty(0, dtype=np.int64), np.ones(1), True,
        )
        assert (recon[:n, :n] == 128.0).all()
        np.testing.assert_array_equal(recon[n:, n:], reference[3 : 3 + n, 5 : 5 + n])

    def test_bad_plans_are_refused_untouched(self):
        n = 8
        rows = np.zeros((native.PLAN_ROWS, 1), dtype=np.int64)
        for column in (
            (0, 0, 3 * n, intra.DC, 0, 0, 0, 0, -1),  # leaves the frame
            (0, 0, 128, intra.DC, 0, 0, 0, 0, -1),  # no such block size
            (0, 0, n, 35, 0, 0, 0, 0, -1),  # no such mode
            (0, 0, n, -1, 1, 0, 0, 0, -1),  # inter without a reference
            (0, 0, n, intra.DC, 0, 0, 0, 0, 1),  # levels past the buffer
            (0, 0, n, intra.DC, 0, 0, 0, 0, -2),  # no such offset
            (0, 0, n, intra.DC, 0, 0, 0, 1, 0),  # a CTU with no step
            (0, 0, 12, intra.DC, 0, 0, 0, 0, 0),  # coded, but no transform size
        ):
            rows[:, 0] = column
            recon = np.zeros((2 * n, 2 * n))
            mask = np.zeros((2 * n, 2 * n), dtype=bool)
            assert not native.reconstruct_slices(
                recon[None], mask[None], None, rows, np.array([1]),
                np.zeros(n * n + 80, dtype=np.int64)[: n * n], np.ones(1), True,
            )
            assert not recon.any() and not mask.any()

    def test_dc_sum_is_numpys_sum(self):
        lib = native._resolve()
        rng = np.random.default_rng(7)
        for n in [4, 8, 16, 32, 64] + list(range(1, 129, 7)):
            for _ in range(200):
                padded = rng.uniform(0.0, 255.0, n + 2)
                values = padded[1 : n + 1]  # a view, as predict_dc sums
                assert native._dc_sum(lib, values) == values.sum(), n

    @staticmethod
    def _skew_dc_sum(monkeypatch):
        """Reload the library with a DC sum that disagrees with numpy's."""
        monkeypatch.delenv("LLM265_PURE_PYTHON", raising=False)
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)
        real = native._dc_sum
        monkeypatch.setattr(
            native, "_dc_sum", lambda lib, values: real(lib, values) + 1e-9
        )

    def test_self_check_failure_falls_back_to_the_twin(self, monkeypatch):
        # "Same samples" must not depend on which numpy is installed: a
        # DC reduction that disagrees with np.sum refuses the library.
        self._skew_dc_sum(monkeypatch)
        recorder = flightrecorder.FlightRecorder()
        previous = flightrecorder.set_recorder(recorder)
        try:
            assert not native.available()
            assert not native.available()  # resolved once, no retry
        finally:
            flightrecorder.set_recorder(previous)
        assert native.kernel_status() == {"library": "failed"}
        events = [
            e for e in recorder.snapshot() if e["kind"] == "native.build_failed"
        ]
        assert len(events) == 1 and events[0]["fields"]["stage"] == "dc_sum"
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(_frames(n=1)).data
        for a, b in zip(decode_frames(data), reference.decode_frames(data)):
            np.testing.assert_array_equal(a, b)

    def test_dc_sum_check_guards_the_encoder(self, monkeypatch):
        # The encode kernel predicts DC leaves with the same reduction,
        # so the check that refuses the decoder must refuse it too.
        self._skew_dc_sum(monkeypatch)
        reports = []
        real_encode = native.encode_slices

        def spy(*args, **kwargs):
            reports.append(real_encode(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(native, "encode_slices", spy)
        frames = _frames(n=2)
        coded = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data
        assert reports and all(report is None for report in reports)
        twin = FrameEncoder(EncoderConfig(qp=24.0, encode="python")).encode(frames)
        assert coded == twin.data


class TestResidualKernel:
    """The residual half of ``native.reconstruct_slices`` -- dequantize,
    unscan and inverse DCT, made where each leaf is added -- against its
    twin, ``_batch_residuals`` + ``_apply_predictions``: planes and masks
    bit for bit."""

    @staticmethod
    def _group(n, use_transform, seed=0):
        """Two 2n x 2n planes of n x n leaves, one CTU each: per plane an
        intra leaf, a cbf = 0 leaf, an inter leaf and (first plane) a
        mid-grey leaf, all but the cbf = 0 ones coded; every CTU at its
        own drawn QP.  Returns (decoder, plan, leaf_end, qps)."""
        rng = np.random.default_rng([n, seed])
        decoder = FrameDecoder(
            pack_header(EncoderConfig(use_transform=use_transform), 2 * n, 2 * n, 2)
        )
        decoder._reference = rng.uniform(0.0, 255.0, (2 * n, 2 * n))
        leaves = []
        for plane, fourth in ((0, -1), (1, int(rng.integers(0, intra.NUM_MODES)))):
            modes = (int(rng.integers(0, intra.NUM_MODES)), intra.DC, -1, fourth)
            for q, (mode, coded, inter) in enumerate(
                zip(modes, (True, False, True, True), (0, 0, 1, 0))
            ):
                ry, rx = (int(v) for v in rng.integers(0, n + 1, 2))
                leaves.append(
                    ((q >> 1) * n, (q & 1) * n, n, -1 if inter else mode, inter,
                     ry if inter else 0, rx if inter else 0, 4 * plane + q, coded)
                )
        levels = rng.integers(-60, 61, len(leaves) * n * n)
        levels[rng.random(levels.size) < 0.6] = 0
        levels[::97] = 1 << 40  # the clip's far side, after any transform
        offset = 0
        for k, leaf in enumerate(leaves):
            leaves[k] = leaf[:-1] + ((offset,) if leaf[-1] else (-1,))
            offset += n * n if leaf[-1] else 0
        rows = np.ascontiguousarray(np.array(leaves, dtype=np.int64).T)
        plan = decoder_mod.LeafPlan(rows, levels[:offset].astype(np.int64), len(leaves))
        qps = rng.integers(0, 52, 8)
        return decoder, plan, np.array([4, 8], dtype=np.int64), qps

    @staticmethod
    def _twin(decoder, plan, leaf_end, qps, use_transform):
        recon = np.zeros((2,) + decoder._reference.shape)
        mask = np.zeros(recon.shape, dtype=bool)
        resid_offset, resid = decoder._batch_residuals(plan, qps, use_transform)
        for k, (start, end) in enumerate(((0, 4), (4, 8))):
            decoder._apply_predictions(
                plan, start, end, resid_offset, resid, recon[k], mask[k]
            )
        return recon, mask

    @staticmethod
    def _kernel(decoder, plan, leaf_end, steps, use_transform, levels=None):
        recon = np.zeros((2,) + decoder._reference.shape)
        mask = np.zeros(recon.shape, dtype=bool)
        done = native.reconstruct_slices(
            recon, mask, decoder._reference, plan.rows, leaf_end,
            plan.levels if levels is None else levels, steps, use_transform,
        )
        return done, recon, mask

    @needs_kernels
    @pytest.mark.parametrize("use_transform", [True, False])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_matches_numpy_bit_for_bit(self, n, use_transform):
        decoder, plan, leaf_end, qps = self._group(n, use_transform)
        want_recon, want_mask = self._twin(decoder, plan, leaf_end, qps, use_transform)
        done, recon, mask = self._kernel(
            decoder, plan, leaf_end, encoder_mod._QSTEPS[qps], use_transform
        )
        assert done
        assert recon.tobytes() == want_recon.tobytes()
        assert mask.tobytes() == want_mask.tobytes() and mask.all()

    @needs_kernels
    def test_declines_what_it_cannot_index(self):
        n = 8
        decoder, plan, leaf_end, qps = self._group(n, True)
        steps = encoder_mod._QSTEPS[qps]
        coeff = native.PLAN_FIELDS.index("coeff_offset")
        ctu = native.PLAN_FIELDS.index("ctu_index")
        for row, column, value in (
            (coeff, 5, len(plan.levels) - n * n + 1),  # levels past the buffer
            (coeff, 5, -2),  # no such offset
            (ctu, 6, len(steps)),  # a CTU past the steps
            (ctu, 6, -1),
        ):
            bad = decoder_mod.LeafPlan(plan.rows.copy(), plan.levels, plan.n_leaves)
            bad.rows[row, column] = value
            done, recon, mask = self._kernel(decoder, bad, leaf_end, steps, True)
            assert not done and not recon.any() and not mask.any(), (row, value)
        # Steps for fewer CTUs than the plan names, and a level buffer cut
        # short under the last coded leaf; then arrays of the wrong kind.
        for args in (
            (steps[:-1], None),
            (steps, plan.levels[:-1]),
            (steps.astype(np.float32), None),
            (steps, plan.levels.astype(np.int32)),
        ):
            done, recon, mask = self._kernel(decoder, plan, leaf_end, args[0], True, args[1])
            assert not done and not recon.any() and not mask.any()

    def test_decoder_uses_numpy_when_it_declines(self, monkeypatch):
        # Fractional-QP, inter and untransformed streams: the kernel's
        # planes are the twin's, declined group by group or off entirely.
        streams = [
            FrameEncoder(EncoderConfig(qp=18.5)).encode(_frames(n=2)).data,
            reference.ReferenceEncoder(
                EncoderConfig(qp=24.0, use_inter=True)
            ).encode(_frames(n=3, seed=9)).data,
            reference.ReferenceEncoder(
                EncoderConfig(qp=24.0, use_transform=False)
            ).encode(_frames(n=2, seed=4)).data,
        ]
        for data in streams:
            with telemetry.session() as registry:
                _, want = _probe(data)
            assert "decode.kernel_refusals" not in registry.counters
            _, twin = _probe_twin(data)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(native, "reconstruct_slices", lambda *args: False)
                with telemetry.session() as registry:
                    _, declined = _probe(data)
            for a, b, c in zip(want, twin, declined):
                assert a["recon"].tobytes() == b["recon"].tobytes() == c["recon"].tobytes()
            if native.available():
                assert registry.counters["decode.kernel_refusals"] >= 1

    @needs_kernels
    def test_reconstruct_refusal_is_counted(self, monkeypatch):
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(_frames(n=2)).data
        _, want = _probe(data)
        monkeypatch.setattr(native, "reconstruct_slices", lambda *args: False)
        with telemetry.session() as registry:
            _, got = _probe(data)
        # One a group, and the two 64 x 64 slices are one group.
        assert registry.counters["decode.kernel_refusals"] == 1
        for a, b in zip(want, got):
            assert a["recon"].tobytes() == b["recon"].tobytes()


# -- whole-stream identity ---------------------------------------------


def _assert_three_way_identity(data):
    """kernels == twin == legacy: uint8 frames and float64 planes."""
    legacy_frames, legacy = _probe_legacy(data)
    twin_frames, twin = _probe_twin(data)
    runs = [(twin_frames, twin)]
    if native.available():
        with telemetry.session() as registry:
            runs.append(_probe(data))
        # A clean stream is never handed back to the twin.
        assert "decode.kernel_refusals" not in registry.counters
    for frames, slices in runs:
        assert len(frames) == len(legacy_frames)
        for a, b in zip(legacy_frames, frames):
            assert b.dtype == np.uint8
            np.testing.assert_array_equal(a, b)
        for a, b in zip(legacy, slices):
            assert b["recon"].tobytes() == a["recon"].tobytes()


class TestVectorizedIdentity:
    @pytest.mark.parametrize(
        "profile", [H264_PROFILE, H265_PROFILE, AV1_PROFILE]
    )
    @pytest.mark.parametrize("qp", [10.0, 24.0, 38.0])
    def test_identity_across_profiles_and_qps(self, profile, qp):
        frames = _frames()
        data = FrameEncoder(EncoderConfig(profile=profile, qp=qp)).encode(
            frames
        ).data
        legacy = reference.decode_frames(data)
        fast = decode_frames(data)
        assert len(legacy) == len(fast)
        for a, b in zip(legacy, fast):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("qp", QPS)
    @pytest.mark.parametrize("use_inter", [False, True])
    def test_identity_matrix(self, profile, qp, use_inter):
        # Frame shapes that are and are not CTU multiples (the decoder
        # works on the padded plane), integer and dithered QPs.
        encoder = reference.ReferenceEncoder if use_inter else FrameEncoder
        for h, w in SHAPES:
            data = encoder(
                EncoderConfig(profile=profile, qp=qp, use_inter=use_inter)
            ).encode(_frames(n=3 if use_inter else 2, h=h, w=w, seed=h + w)).data
            _assert_three_way_identity(data)

    @pytest.mark.parametrize(
        "tool", ["use_partition", "use_intra", "use_transform"]
    )
    def test_identity_with_tools_off(self, tool):
        for use_inter in (False, True):
            # Production serves a fixed CU grid; the rest are ablations.
            served = tool == "use_partition" and not use_inter
            encoder = FrameEncoder if served else reference.ReferenceEncoder
            data = encoder(
                EncoderConfig(qp=24.5, use_inter=use_inter, **{tool: False})
            ).encode(_frames(n=2, h=40, w=72, seed=3)).data
            _assert_three_way_identity(data)

    def test_identity_with_inter_prediction(self):
        frames = _frames(seed=23)
        config = EncoderConfig(qp=22.0, use_inter=True)
        data = reference.ReferenceEncoder(config).encode(frames).data
        for a, b in zip(
            reference.decode_frames(data),
            decode_frames(data),
        ):
            np.testing.assert_array_equal(a, b)

    def test_identity_fractional_qp(self):
        frames = _frames(seed=31)
        data = FrameEncoder(EncoderConfig(qp=25.37)).encode(frames).data
        for a, b in zip(
            reference.decode_frames(data),
            decode_frames(data),
        ):
            np.testing.assert_array_equal(a, b)

    def test_identity_pure_python_fallback(self, monkeypatch):
        _force_pure(monkeypatch)
        frames = _frames(seed=41)
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data
        for a, b in zip(
            reference.decode_frames(data),
            decode_frames(data),
        ):
            np.testing.assert_array_equal(a, b)

    def test_concealment_reports_identical(self):
        frames = _frames(seed=7)
        data = bytearray(FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data)
        data[len(data) // 2] ^= 0x40  # damage one slice body
        legacy_frames, legacy_report = reference.decode_frames_with_report(
            bytes(data)
        )
        fast_frames, fast_report = decode_frames_with_report(bytes(data))
        assert legacy_report.concealed == fast_report.concealed
        assert legacy_report.total_slices == fast_report.total_slices
        assert legacy_report.concealed  # the flip actually hit something
        for a, b in zip(legacy_frames, fast_frames):
            np.testing.assert_array_equal(a, b)


# -- parallel dispatch policy ------------------------------------------


class TestParallelDecodeThresholds:
    def test_threshold_constants_pinned(self):
        # Chosen from measurement (docs/PERFORMANCE.md): below 4 slices
        # or 32 KiB of payload, fan-out overhead beats the decode win.
        assert decoder_mod._PARALLEL_MIN_SLICES == 4
        assert decoder_mod._PARALLEL_MIN_BYTES == 32768

    @needs_kernels
    def test_dispatches_above_thresholds(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        data = _big_stream()
        pool = ParallelConfig(workers=2)
        before = pool_stats()["dispatches"]
        par = decode_frames(data, parallel=pool)
        assert pool_stats()["dispatches"] == before + 1
        for a, b in zip(decode_frames(data), par):
            np.testing.assert_array_equal(a, b)

    # One id: the interleaved decoder, the other case this used to cover,
    # left FrameDecoder for repro.codec.reference and has no fan-out.
    @pytest.mark.parametrize("decode", ["vectorized"])
    def test_threads_need_the_slice_kernels(self, monkeypatch, decode):
        # Per-leaf Python holds the GIL, so a thread pool only slows it
        # down: without the kernels a parallel config stays serial and
        # says so.
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        _force_pure(monkeypatch)
        data = _big_stream()
        serial = decode_frames(data)
        before = pool_stats()["dispatches"]
        with telemetry.session() as registry:
            threaded = decode_frames(data, parallel=ParallelConfig(workers=2))
        assert pool_stats()["dispatches"] == before
        assert registry.counters.get("decode.parallel_threshold_fallbacks") == 1
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)

    def test_small_slice_count_falls_back(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        frames = _frames(n=2)
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data
        pool = ParallelConfig(workers=2)
        before = pool_stats()["dispatches"]
        with telemetry.session() as registry:
            decode_frames(data, parallel=pool)
        assert pool_stats()["dispatches"] == before
        assert registry.counters.get("decode.parallel_threshold_fallbacks") == 1

    def test_small_payload_falls_back(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        frames = _frames(n=4)  # smooth 64x64 frames: well under 32 KiB
        data = FrameEncoder(EncoderConfig(qp=30.0)).encode(frames).data
        assert len(data) < decoder_mod._PARALLEL_MIN_BYTES
        pool = ParallelConfig(workers=2)
        before = pool_stats()["dispatches"]
        with telemetry.session() as registry:
            decode_frames(data, parallel=pool)
        assert pool_stats()["dispatches"] == before
        assert registry.counters.get("decode.parallel_threshold_fallbacks") == 1

    def test_single_cpu_falls_back(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 1)
        data = _big_stream()
        pool = ParallelConfig(workers=2)
        before = pool_stats()["dispatches"]
        with telemetry.session() as registry:
            serial = decode_frames(data)
            par = decode_frames(data, parallel=pool)
        assert pool_stats()["dispatches"] == before
        assert registry.counters.get("decode.parallel_threshold_fallbacks") == 1
        for a, b in zip(serial, par):
            np.testing.assert_array_equal(a, b)


# -- no decode= option: the decoder picks by what it observes -----------


class TestDecodePlumbing:
    def test_frame_decoder_rejects_unknown_mode(self):
        # There is no mode to name any more: the option is gone from
        # every layer, not defaulted.
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(_frames(n=1)).data
        assert not hasattr(decoder_mod, "DECODES")
        with pytest.raises(TypeError, match="decode"):
            FrameDecoder(data, decode="vectorized")
        with pytest.raises(TypeError, match="decode"):
            decode_frames(data, decode="vectorized")
        with pytest.raises(TypeError, match="decode"):
            decode_frames_with_report(data, decode="vectorized")

    def test_tensor_codec_decode_modes_agree(self, monkeypatch):
        # Kernels and twin, the two paths a TensorCodec can observe.
        tensor = _tensor()
        codec = TensorCodec(tile=32)
        compressed = codec.encode(tensor, qp=24.0)
        with_kernels = codec.decode(compressed)
        _force_pure(monkeypatch)
        np.testing.assert_array_equal(with_kernels, codec.decode(compressed))
        assert not hasattr(codec, "decode_mode")
        with pytest.raises(TypeError, match="decode"):
            TensorCodec(decode="vectorized")

    def test_checkpoint_decode_param(self, tmp_path, monkeypatch):
        path = str(tmp_path / "model.llmckpt")
        save_checkpoint({"w": _tensor(seed=9)}, path)
        with pytest.raises(TypeError, match="decode"):
            load_checkpoint(path, decode="vectorized")
        a = load_checkpoint(path)
        _force_pure(monkeypatch)
        b = load_checkpoint(path)
        np.testing.assert_array_equal(a["w"], b["w"])

    def test_rung_decode_field(self):
        # Pinned with benchmarks/stack/tests: a rung is a fan-out and
        # an encode backend (``rd_search`` is a read-only "turbo") --
        # nothing about decode.
        assert [f.name for f in dataclasses.fields(Rung)] == [
            "name",
            "rd_search",
            "parallel",
            "encode",
        ]
        with pytest.raises(TypeError, match="decode"):
            Rung("x", decode="vectorized")

    def test_service_builds_per_rung_decoders(self):
        service = CodecService()
        for rung in DEFAULT_LADDER:
            codec = service._codecs[rung.name]
            assert (codec.encode_mode, codec.parallel) == (rung.encode, rung.parallel)
        # Concealment is a plain serial codec.
        assert service._conceal_codec.parallel is None
        tensor = _tensor(seed=13, edge=32)
        encoded = service.encode(tensor, qp=24.0)
        assert encoded.ok
        decoded = service.decode(encoded.value.to_bytes())
        assert decoded.ok and not decoded.degraded
        np.testing.assert_allclose(decoded.value, tensor, atol=12.0)


# -- telemetry ----------------------------------------------------------


class TestDecodeTelemetry:
    def test_vectorized_publishes_stage_ledger(self):
        frames = _frames()
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data
        with telemetry.session() as registry:
            decode_frames(data)
        for stage in DECODE_STAGES:
            assert registry.counters[f"decode.seconds.{stage}"] >= 0.0
        assert registry.counters["decode.coeff_bins"] > 0
        assert registry.counters["decode.frames"] == len(frames)
        # Two stages: residuals are made inside the reconstruct stage.
        assert DECODE_STAGES == ("entropy", "reconstruct")
        assert not any(name.startswith("decode.batch") for name in registry.counters)
        # Spans nest under the frame span, so match on the leaf name.
        leaves = {path.rsplit("/", 1)[-1] for path in registry.spans}
        assert {"decode.entropy", "decode.reconstruct"} <= leaves
        assert "decode.predict" not in leaves

    @pytest.mark.parametrize("executor", ["thread"])
    def test_fanned_out_decode_keeps_its_ledger(self, monkeypatch, executor):
        # Regression: slice workers used to run with no registry and no
        # ledger, so the production (2-thread) config reported only
        # decode.frames.  Every decode.* counter must now be the same
        # serial or fanned out (stage seconds are timings: present, not
        # equal).
        if not native.available():
            pytest.skip("threads dispatch only with the slice kernels")
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        data = _big_stream(qp=18.5)  # dithered: both QPs in decode.qp

        def counters(parallel):
            before = pool_stats()["dispatches"]
            with telemetry.session() as registry:
                decode_frames(data, parallel=parallel)
            dispatched = pool_stats()["dispatches"] - before
            return dispatched, {
                name: value
                for name, value in registry.counters.items()
                if name.startswith("decode.")
            }, registry.histograms["decode.qp"].to_dict()

        _, serial, serial_qp = counters(None)
        dispatched, fanned, fanned_qp = counters(ParallelConfig(workers=2))
        assert dispatched == 1
        assert set(fanned) == set(serial)
        for name in (
            "decode.frames", "decode.ctu", "decode.cu.leaf", "decode.cu.split",
            "decode.mode.intra", "decode.coeff_bins",
        ):
            assert fanned[name] == serial[name] > 0, name
        for stage in DECODE_STAGES:
            assert fanned[f"decode.seconds.{stage}"] > 0.0
        assert fanned_qp == serial_qp

    def test_structural_counters_match_legacy(self):
        # Derived from the plan arrays, not counted leaf by leaf -- and
        # still the numbers the legacy walk counts.
        names = (
            "decode.ctu", "decode.cu.leaf", "decode.cu.split",
            "decode.mode.intra", "decode.mode.inter",
        )
        for encoder, use_inter in (
            (FrameEncoder, False),
            (reference.ReferenceEncoder, True),
        ):
            data = encoder(
                EncoderConfig(qp=24.0, use_inter=use_inter)
            ).encode(_frames(n=3, seed=9)).data
            seen = {}
            for mode, decode in (
                ("vectorized", decode_frames),
                ("legacy", reference.decode_frames),
            ):
                with telemetry.session() as registry:
                    decode(data)
                seen[mode] = {name: registry.counters.get(name) for name in names}
            assert seen["vectorized"] == seen["legacy"]
            assert seen["legacy"]["decode.cu.leaf"] > 0

    def test_legacy_publishes_no_stage_ledger(self):
        frames = _frames()
        data = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames).data
        with telemetry.session() as registry:
            reference.decode_frames(data)
        assert registry.counters["decode.frames"] == len(frames)
        assert "decode.seconds.entropy" not in registry.counters

    def test_decode_stats_ledger(self):
        stats = DecodeStats()
        stats.add_count("coeff_bins", 10)
        stats.add_seconds("entropy", 0.5)
        other = DecodeStats()
        other.add_count("coeff_bins", 5)
        other.add_seconds("entropy", 0.25)
        other.add_seconds("reconstruct", 0.1)
        stats.merge(other)
        snapshot = stats.as_dict()
        assert snapshot["counts"]["coeff_bins"] == 15
        assert snapshot["seconds"]["entropy"] == 0.75
        registry = telemetry.Registry()
        stats.publish(registry)
        assert registry.counters["decode.coeff_bins"] == 15
        assert registry.counters["decode.seconds.reconstruct"] == 0.1
        stats.publish(None)  # no registry: a no-op, not an error
