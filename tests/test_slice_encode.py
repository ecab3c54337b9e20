"""The whole-slice encode kernel, its twin, and the ordered transform.

The contract under test: with ``encode="native"`` the encoder hands
everything after pass 1 of a group of intra slices to one C call
(``native.encode_slices``), and what it makes of a slice is
indistinguishable from the pure-Python twin (``_turbo_choose`` /
``_turbo_commit`` / ``_write_cu``): same finished bytes, same float64
reconstruction plane (sign of zero included), same
``EncodeResult.mse``, same context banks, same bit ledger.  Around it:
the codec's one order-defined DCT pair (C == numpy definition, every
vector width), the load-time self-check that refuses a library which
disagrees, encoder recon == decoder recon on every encoder x decoder
pairing, the kernel's capacity contract, and the slice fan-out (serial
== thread; threads only when the kernel is usable).  The
group side -- invariance, a refusal inside a group, the call count --
is tests/test_encode_groups.py's.
"""

from __future__ import annotations

import glob
import os
import shutil

import numpy as np
import pytest

import repro.telemetry as telemetry
from benchmarks.identity_matrix import PROFILES, QPS, SHAPES
from repro.codec import transform
from repro.codec.decoder import FrameDecoder
from repro.codec.reference import ReferenceEncoder
from repro.codec.encoder import (
    _HEADER_BODY_SIZE,
    EncoderConfig,
    FrameEncoder,
    QpDither,
    pack_header,
)
from repro.codec import pass1 as pass1_mod
from repro.codec.pass1 import _padded_planes
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.profiles import H264_PROFILE, H265_PROFILE
from repro.codec.syntax import CodecContexts
from repro.parallel import ParallelConfig, pool_stats
from repro.parallel import pool as pool_mod
from repro.telemetry import flightrecorder

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

needs_kernel = pytest.mark.skipif(
    not native.available(),
    reason="kernel library unavailable (no compiler or pure-python)",
)


def _frame(shape, seed=5):
    height, width = shape
    rng = np.random.default_rng(seed)
    base = (
        np.linspace(30, 220, width)[None, :]
        + np.linspace(-40, 40, height)[:, None]
    )
    return np.clip(base + rng.normal(0, 22, shape), 0, 255).astype(np.uint8)


def _code_slice(frame, encode, **config):
    """Everything pass 2 leaves behind for one intra slice, for one backend.

    Returns ``(slice bytes, banks, recon bytes, ledger)``: the finished
    payload, every context bank, the reconstruction plane as bytes (so
    +0.0 and -0.0 differ) and the stats ledger.  ``"native"`` goes
    through the encoder's own kernel call (context banks collected on
    the way), ``"python"`` through the twin.
    """
    cfg = EncoderConfig(encode=encode, **config)
    encoder = FrameEncoder(cfg)
    encoder._stats = telemetry.EncodeStats()
    header = pack_header(cfg, frame.shape[1], frame.shape[0], 1)
    dither = QpDither(header[_HEADER_BODY_SIZE - 4], header[_HEADER_BODY_SIZE - 3])
    planes = _padded_planes([frame], encoder._ctu)
    pass1 = encoder._turbo_pass1(planes, dither)
    if encode == "python":
        enc, ctx = BinaryEncoder(), CodecContexts()
        recon = encoder._encode_frame(enc, ctx, planes[0], pass1.frame(0))
        payload, banks = enc.finish(), [list(bank) for bank in ctx.banks()]
    else:
        kept = []
        inner = native.encode_slices

        def keep_banks(frames, *args, **kwargs):
            kept.append(np.empty((len(frames), native.BANK_TOTAL), dtype=np.int32))
            return inner(frames, *args, banks=kept[-1], **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native, "encode_slices", keep_banks)
            ((payload, recon),) = encoder._turbo_pass2(planes, pass1)
        edges = np.cumsum(native._SLICE_BANK_SIZES)[:-1]
        banks = [bank.tolist() for bank in np.split(kept[0][0], edges)]
    ledger = encoder._stats.as_dict()
    ledger.pop("seconds")  # wall time is the one backend-dependent field
    return payload, banks, recon.tobytes(), ledger


@pytest.fixture
def kernel_calls(monkeypatch):
    """Slice statuses of every ``native.encode_slices`` call made in the
    test, in order (one ``None`` for a call that declined)."""
    statuses = []
    real = native.encode_slices

    def spy(*args, **kwargs):
        report = real(*args, **kwargs)
        statuses.extend([None] if report is None else report[:, 0].tolist())
        return report

    monkeypatch.setattr(native, "encode_slices", spy)
    return statuses


# -- (a) kernel == twin ---------------------------------------------------------


@needs_kernel
class TestKernelEqualsTwin:
    @pytest.mark.parametrize("use_partition", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_slice_state_identical(self, profile, shape, use_partition, kernel_calls):
        frame = _frame(shape)
        for qp in QPS:
            config = dict(profile=profile, qp=qp, use_partition=use_partition)
            kernel = _code_slice(frame, "native", **config)
            assert kernel_calls == [0], "the kernel must have coded the slice"
            kernel_calls.clear()
            twin = _code_slice(frame, "python", **config)
            assert not kernel_calls
            for name, got, want in zip(
                ("slice bytes", "context banks", "recon plane", "ledger"),
                kernel,
                twin,
            ):
                assert got == want, f"{name}: {profile.name} {shape} qp={qp}"

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    def test_stream_mse_and_ledger_identical(self, profile):
        # Three frames: the fractional QP's dither carries across slices.
        frames = [_frame((50, 70), seed) for seed in (1, 2, 3)]
        for qp in QPS:
            results = []
            for encode in ("native", "python"):
                with telemetry.session():
                    results.append(
                        FrameEncoder(
                            EncoderConfig(profile=profile, qp=qp, encode=encode)
                        ).encode(frames)
                    )
            kernel, twin = results
            assert kernel.data == twin.data
            assert kernel.mse == twin.mse
            for key in ("bits", "counts", "qp"):
                assert kernel.stats[key] == twin.stats[key], key
            # The ledger still telescopes: every bit has a class.
            assert sum(kernel.stats["bits"].values()) == 8 * len(kernel.data)

    def test_instrumented_encode_takes_the_kernel(self, kernel_calls):
        frames = [_frame((64, 64), seed) for seed in (7, 8)]
        config = EncoderConfig(qp=24.0)
        plain = FrameEncoder(config).encode(frames)
        with telemetry.session():
            traced = FrameEncoder(config).encode(frames)
        assert kernel_calls == [0, 0, 0, 0]
        assert traced.data == plain.data
        assert {"plan", "write"} <= set(traced.stats["seconds"])

    def test_flat_frame_codes_empty_blocks(self, kernel_calls):
        # All-zero residuals: cbf = 0 everywhere, no last/sig/level class.
        frame = np.full((64, 64), 128, dtype=np.uint8)
        kernel = _code_slice(frame, "native", qp=30.0)
        twin = _code_slice(frame, "python", qp=30.0)
        assert kernel_calls == [0]
        assert kernel == twin
        assert "level" not in kernel[3]["bits"]


# -- (b) the ordered transform ----------------------------------------------------


def _noninteger_blocks(n, count=5, seed=3):
    rng = np.random.default_rng(seed + n)
    blocks = rng.normal(0, 40, (count, n, n))
    blocks[0] = 0.0  # exact zeros: the sum must stay +0.0
    blocks[1, :, 0] = -0.0
    return blocks


class TestOrderedTransform:
    @pytest.mark.parametrize("n", transform.SUPPORTED_SIZES)
    def test_definition_is_sequential_in_k(self, n):
        # The numpy definition against a scalar triple loop.
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        want = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for k in range(n):
                    acc += a[i, k] * b[k, j]
                want[i, j] = acc
        assert transform._ordered_matmul(a, b).tobytes() == want.tobytes()

    @needs_kernel
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", transform.SUPPORTED_SIZES)
    def test_c_matches_numpy_bit_for_bit(self, n, inverse):
        blocks = _noninteger_blocks(n)
        basis = transform.dct_matrix(n)
        want = transform._ordered_dct2(blocks, basis, inverse).tobytes()
        assert native.dct2(blocks, basis, inverse).tobytes() == want
        public = transform.inverse_dct2_batch if inverse else transform.forward_dct2_batch
        assert public(blocks).tobytes() == want

    def test_roundtrip_and_shapes(self):
        rng = np.random.default_rng(0)
        for shape in ((8, 8), (1, 16, 16), (2, 3, 4, 4)):
            blocks = rng.normal(0, 30, shape)
            coeffs = transform.forward_dct2_batch(blocks)
            assert coeffs.shape == blocks.shape
            np.testing.assert_allclose(
                transform.inverse_dct2_batch(coeffs), blocks, atol=1e-9
            )

    def test_failed_self_check_falls_back_to_the_twin(self, monkeypatch):
        monkeypatch.delenv("LLM265_PURE_PYTHON", raising=False)
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)

        def disagree(_lib):
            raise RuntimeError("ordered DCT disagrees with numpy at n=8")

        monkeypatch.setattr(native, "_check_dct", disagree)
        recorder = flightrecorder.FlightRecorder()
        previous = flightrecorder.set_recorder(recorder)
        try:
            with telemetry.session() as registry:
                assert not native.available()
                assert not native.available()  # no retry, no 2nd event
                assert registry.counters.get("native.build_failed") == 1
            events = [
                e for e in recorder.snapshot() if e["kind"] == "native.build_failed"
            ]
            assert len(events) == 1 and events[0]["fields"]["stage"] == "dct"
        finally:
            flightrecorder.set_recorder(previous)
        assert native.kernel_status() == {"library": "failed"}
        blocks = _noninteger_blocks(8)
        basis = transform.dct_matrix(8)
        assert native.dct2(blocks, basis, False) is None
        assert (
            transform.forward_dct2_batch(blocks).tobytes()
            == transform._ordered_dct2(blocks, basis, False).tobytes()
        )
        frames = [_frame((64, 64))]
        config = dict(qp=26.0)
        got = FrameEncoder(EncoderConfig(encode="native", **config)).encode(frames)
        want = FrameEncoder(EncoderConfig(encode="python", **config)).encode(frames)
        assert got.data == want.data and got.mse == want.mse


# -- (c) encoder recon == decoder recon ---------------------------------------------


class TestReconInvariant:
    @pytest.mark.parametrize("pure", [False, True], ids=["native", "pure"])
    @pytest.mark.parametrize("search", ["production", "reference"])
    def test_encoder_plane_is_the_decoder_plane(self, search, pure, monkeypatch):
        # Kernels or twins on both sides; "reference" names the
        # reference encoder's exact search, an independent
        # reconstruction.
        if pure:
            monkeypatch.setattr(native, "available", lambda: False)
            monkeypatch.setattr(native, "dct2", lambda *a, **k: None)
        frames = [_frame((50, 70), seed) for seed in (11, 12)]
        for profile, qp in ((H265_PROFILE, 24.5), (H264_PROFILE, 18.0)):
            if search == "reference":
                encoder = ReferenceEncoder(EncoderConfig(profile=profile, qp=qp))
            else:
                encoder = FrameEncoder(
                    EncoderConfig(
                        profile=profile, qp=qp,
                        encode="python" if pure else "native",
                    )
                )
            data = encoder.encode(frames).data
            decoder = FrameDecoder(data)
            decoder.decode()
            assert encoder._reference.dtype == np.float64
            assert encoder._reference.tobytes() == decoder._reference.tobytes()

    def test_inter_frames_too(self):
        frames = [_frame((64, 64), 20)] * 2 + [_frame((64, 64), 21)]
        encoder = ReferenceEncoder(EncoderConfig(qp=26.0, use_inter=True))
        decoder = FrameDecoder(encoder.encode(frames).data)
        decoder.decode()
        assert encoder._reference.tobytes() == decoder._reference.tobytes()


# -- (d) the kernel's capacity contract -----------------------------------------------

_GUARD = 0x5A


def _kernel_args(monkeypatch, frame, **config):
    """The positional arguments ``FrameEncoder`` hands ``native.encode_slices``."""
    captured = {}
    real = native.encode_slices

    def capture(*args, **kwargs):
        captured["args"] = args
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(native, "encode_slices", capture)
        _code_slice(frame, "native", **config)
    return list(captured["args"])


# Positions in native.encode_slices' signature.
_FRAMES, _MODES, _RECON, _MASK, _ROWS, _LEVELS, _OUT = 0, 4, 11, 12, 13, 14, 15


@needs_kernel
class TestHostileContract:
    @pytest.mark.parametrize("short", ["out", "rows", "levels"])
    def test_undersized_buffer_is_refused_not_overrun(self, short, monkeypatch):
        frame = _frame((64, 64))
        args = _kernel_args(monkeypatch, frame, qp=18.0)
        sizes = {
            "out": (np.uint8, 40),
            "rows": (np.int64, native.PLAN_ROWS * 3),
            "levels": (np.int64, 70),
        }
        dtype, length = sizes[short]
        backing = np.full(length + 16, _GUARD, dtype=dtype)
        view = backing[:length]
        if short == "rows":
            view = view.reshape(native.PLAN_ROWS, 3)
        args[_RECON] = np.zeros_like(args[_RECON])
        args[_MASK] = np.zeros_like(args[_MASK])
        args[{"out": _OUT, "rows": _ROWS, "levels": _LEVELS}[short]] = view
        ((status, out_end, leaf_end, level_end),) = native.encode_slices(*args).tolist()
        assert status != 0
        assert (backing[length:] == _GUARD).all(), "wrote past the capacity"
        # A refused slice gives its bytes, leaves and levels back: a
        # fresh twin run is the whole story of that slice.
        assert (out_end, leaf_end, level_end) == (0, 0, 0)

    @pytest.mark.parametrize("short", ["out", "rows", "levels"])
    def test_refused_slice_is_recoded_by_the_twin(self, short, monkeypatch):
        real = native.encode_slices
        statuses = []

        def starved(*args, **kwargs):
            args = list(args)
            if short == "out":
                args[_OUT] = args[_OUT][:40]
            elif short == "rows":
                args[_ROWS] = np.empty((native.PLAN_ROWS, 3), dtype=np.int64)
            else:
                args[_LEVELS] = args[_LEVELS][:70]
            report = real(*args, **kwargs)
            statuses.extend(report[:, 0].tolist())
            return report

        monkeypatch.setattr(native, "encode_slices", starved)
        frames = [_frame((64, 64), seed) for seed in (1, 2)]
        config = dict(qp=18.0)
        with telemetry.session() as registry:
            got = FrameEncoder(EncoderConfig(encode="native", **config)).encode(frames)
        assert statuses and all(statuses), "every slice must have been refused"
        # A refusal costs a twin re-code; it must not be silent.
        assert registry.counters.get("encode.kernel_refusals") == len(frames)
        with telemetry.session() as registry:
            want = FrameEncoder(EncoderConfig(encode="python", **config)).encode(frames)
        assert "encode.kernel_refusals" not in registry.counters
        # No half-adapted context bank or half-written plane leaked.
        assert got.data == want.data and got.mse == want.mse
        assert got.stats["bits"] == want.stats["bits"]
        assert got.stats["counts"] == want.stats["counts"]

    def test_unsuitable_arguments_decline(self, monkeypatch):
        args = _kernel_args(monkeypatch, _frame((64, 64)), qp=18.0)
        for index, bad in (
            (_FRAMES, args[_FRAMES].astype(np.float32)),
            (_FRAMES, np.asfortranarray(args[_FRAMES])),
            (_MASK, np.zeros((1, 8, 8), dtype=bool)),  # shape mismatch
            (_MODES, args[_MODES][:-1]),  # a pass-1 table missing
            (_OUT, args[_OUT].astype(np.int16)),
        ):
            trial = list(args)
            trial[index] = bad
            assert native.encode_slices(*trial) is None

    def test_a_decline_with_the_kernel_loaded_is_counted(self, monkeypatch):
        # Planes the kernel cannot take (here: not C-contiguous) send the
        # slice to the twin; with the kernel loaded that is a hand-back
        # like any refusal, and must show.
        padded = pass1_mod._padded_planes
        monkeypatch.setattr(
            pass1_mod, "_padded_planes",
            lambda frames, multiple: np.asfortranarray(padded(frames, multiple)),
        )
        frames = [_frame((64, 64))]
        with telemetry.session() as registry:
            got = FrameEncoder(EncoderConfig(qp=18.0)).encode(frames)
        assert registry.counters.get("encode.kernel_refusals") == 1
        want = FrameEncoder(EncoderConfig(qp=18.0, encode="python")).encode(frames)
        assert got.data == want.data


# -- (e) fan-out ------------------------------------------------------------------------


def _fanout_frames():
    # Five 128 x 128 frames: two pass-1 groups (4 + 1).
    return [_frame((128, 128), seed) for seed in range(5)]


def _encode_with(parallel, **config):
    before = pool_stats()["dispatches"]
    with telemetry.session() as registry:
        result = FrameEncoder(
            EncoderConfig(qp=24.5, parallel=parallel, **config)
        ).encode(_fanout_frames())
    return result, registry.counters, pool_stats()["dispatches"] - before


class TestFanOut:
    @needs_kernel
    def test_serial_thread_process_identical(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 4)
        serial, _, _ = _encode_with(None)
        fanned, counters, dispatched = _encode_with(ParallelConfig(workers=2))
        assert dispatched == 1
        assert counters.get("encode.kernel_refusals", 0) == 0
        # One task per runnable worker, not one per slice.
        assert counters.get("parallel.tasks") == 2
        assert fanned.data == serial.data
        assert fanned.mse == serial.mse
        for key in ("bits", "counts", "qp"):
            assert fanned.stats[key] == serial.stats[key], key

    @pytest.mark.parametrize(
        "config, ready",
        [
            (dict(), False),  # kernel not usable
            (dict(encode="python"), True),  # twin pinned
        ],
    )
    def test_threads_only_with_the_kernel(self, config, ready, monkeypatch):
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 4)
        monkeypatch.setattr(native, "available", lambda: ready)
        if not ready:
            monkeypatch.setattr(native, "encode_slices", lambda *a, **k: None)
        frames = _fanout_frames()
        before = pool_stats()["dispatches"]
        with telemetry.session() as registry:
            threaded = FrameEncoder(
                EncoderConfig(
                    qp=24.0,
                    parallel=ParallelConfig(workers=2),
                    **config,
                )
            ).encode(frames)
        assert pool_stats()["dispatches"] == before
        assert registry.counters.get("parallel.dispatches", 0) == 0
        serial = FrameEncoder(EncoderConfig(qp=24.0, **config)).encode(frames)
        assert threaded.data == serial.data and threaded.mse == serial.mse


# -- the content hash covers every file that reaches the compiler ------------------------


_C_FILES = sorted(
    os.path.basename(path)
    for path in glob.glob(os.path.join(native._SOURCE_DIR, "_*.c"))
)


class TestSourceTag:
    @pytest.mark.parametrize("edited", _C_FILES)
    def test_editing_any_c_file_changes_the_library_path(
        self, edited, tmp_path, monkeypatch
    ):
        for name in _C_FILES:
            shutil.copy(os.path.join(native._SOURCE_DIR, name), tmp_path / name)
        monkeypatch.setattr(native, "_SOURCE_DIR", str(tmp_path))
        before = native._so_path()
        with open(tmp_path / edited, "a") as fh:
            fh.write("/* edited */\n")
        assert native._so_path() != before
