"""The whole-slice encode kernel, its twin, and the ordered transform.

The contract under test: with ``encode="native"`` the encoder hands
everything after pass 1 of an intra slice to one C call
(``native.encode_slice``), and that call is indistinguishable from the
pure-Python twin (``_turbo_choose`` / ``_turbo_commit`` / ``_write_cu``):
same bytes, same float64 reconstruction plane (sign of zero included),
same ``EncodeResult.mse``, same context banks, same final coder state,
same bit ledger.  Around it: the codec's one order-defined DCT pair
(C == numpy definition, every vector width), the load-time self-check
that refuses a library which disagrees, encoder recon == decoder recon
on every encoder x decoder pairing, the kernel's capacity contract, and
the slice fan-out (serial == thread == process; threads only when the
kernel is usable).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codec import encoder as encoder_mod
from repro.codec import transform
from repro.codec.decoder import FrameDecoder
from repro.codec.reference import ReferenceDecoder, ReferenceEncoder
from repro.codec.encoder import (
    _HEADER_BODY_SIZE,
    _PARALLEL_MIN_SLICES,
    EncoderConfig,
    FrameEncoder,
    QpDither,
    pack_header,
    pad_frame,
)
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.codec.syntax import CodecContexts
from repro.parallel import ParallelConfig
from repro.telemetry import flightrecorder

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

needs_kernel = pytest.mark.skipif(
    native.kernel_status().get("encode") != "ready",
    reason="slice-encode kernel unavailable (no compiler or pure-python)",
)

_PROFILES = (H264_PROFILE, H265_PROFILE, AV1_PROFILE)
_QPS = (18.0, 24.5, 26.0, 34.0)  # 24.5 dithers the per-CTU QP
_SHAPES = ((64, 64), (50, 70), (33, 17))


def _frame(shape, seed=5):
    height, width = shape
    rng = np.random.default_rng(seed)
    base = (
        np.linspace(30, 220, width)[None, :]
        + np.linspace(-40, 40, height)[:, None]
    )
    return np.clip(base + rng.normal(0, 22, shape), 0, 255).astype(np.uint8)


def _code_slice(frame, encode, **config):
    """Everything one intra slice leaves behind, for one backend.

    Returns ``(coder state, banks, recon bytes, ledger)``; the recon
    plane is compared as bytes so +0.0 and -0.0 differ.
    """
    cfg = EncoderConfig(encode=encode, **config)
    encoder = FrameEncoder(cfg)
    encoder._stats = telemetry.EncodeStats()
    header = pack_header(cfg, frame.shape[1], frame.shape[0], 1)
    dither = QpDither(header[_HEADER_BODY_SIZE - 4], header[_HEADER_BODY_SIZE - 3])
    enc = BinaryEncoder()
    ctx = CodecContexts()
    plane = pad_frame(frame, encoder._ctu).astype(float)
    (pass1,) = encoder._turbo_pass1(plane[None], dither)
    recon = encoder._encode_frame(enc, ctx, plane, pass1)
    ledger = encoder._stats.as_dict()
    ledger.pop("seconds")  # wall time is the one backend-dependent field
    state = (enc._low, enc._range, enc._cache, enc._cache_size, bytes(enc._out))
    return state, [list(bank) for bank in ctx.banks()], recon.tobytes(), ledger


@pytest.fixture
def kernel_calls(monkeypatch):
    """Statuses of every ``native.encode_slice`` call made in the test."""
    statuses = []
    real = native.encode_slice

    def spy(*args, **kwargs):
        outcome = real(*args, **kwargs)
        statuses.append(None if outcome is None else outcome[0])
        return outcome

    monkeypatch.setattr(native, "encode_slice", spy)
    return statuses


# -- (a) kernel == twin ---------------------------------------------------------


@needs_kernel
class TestKernelEqualsTwin:
    @pytest.mark.parametrize("use_partition", [True, False])
    @pytest.mark.parametrize("shape", _SHAPES)
    @pytest.mark.parametrize("profile", _PROFILES, ids=lambda p: p.name)
    def test_slice_state_identical(self, profile, shape, use_partition, kernel_calls):
        frame = _frame(shape)
        for qp in _QPS:
            config = dict(profile=profile, qp=qp, use_partition=use_partition)
            kernel = _code_slice(frame, "native", **config)
            assert kernel_calls == [0], "the kernel must have coded the slice"
            kernel_calls.clear()
            twin = _code_slice(frame, "python", **config)
            assert not kernel_calls
            for name, got, want in zip(
                ("coder state", "context banks", "recon plane", "ledger"),
                kernel,
                twin,
            ):
                assert got == want, f"{name}: {profile.name} {shape} qp={qp}"

    @pytest.mark.parametrize("profile", _PROFILES, ids=lambda p: p.name)
    def test_stream_mse_and_ledger_identical(self, profile):
        # Three frames: the fractional QP's dither carries across slices.
        frames = [_frame((50, 70), seed) for seed in (1, 2, 3)]
        for qp in _QPS:
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
        kernel = native._KERNELS["encode"]
        monkeypatch.setattr(kernel, "state", "unloaded")
        monkeypatch.setattr(kernel, "fn", None)

        def disagree(_lib):
            raise RuntimeError("ordered DCT disagrees with numpy at n=8")

        def fake_load(k):
            # What _build_and_load does after dlopen: run the check.
            k.check(None)

        monkeypatch.setattr(kernel, "check", disagree)
        monkeypatch.setattr(native, "_build_and_load", fake_load)
        recorder = flightrecorder.FlightRecorder()
        previous = flightrecorder.set_recorder(recorder)
        try:
            with telemetry.session() as registry:
                assert not native.encode_available()
                assert not native.encode_available()  # no retry, no 2nd event
                assert registry.counters.get("native.build_failed") == 1
            events = [
                e for e in recorder.snapshot() if e["kind"] == "native.build_failed"
            ]
            assert len(events) == 1 and events[0]["fields"]["kernel"] == "encode"
        finally:
            flightrecorder.set_recorder(previous)
        assert kernel.state == "failed"
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
    @pytest.mark.parametrize("decode", ["vectorized", "legacy"])
    @pytest.mark.parametrize("search", ["turbo", "legacy"])
    def test_encoder_plane_is_the_decoder_plane(
        self, search, decode, pure, monkeypatch
    ):
        if pure:
            monkeypatch.setattr(native, "available", lambda: False)
            monkeypatch.setattr(native, "dct2", lambda *a, **k: None)
        # "legacy" on either axis names the reference implementation.
        frames = [_frame((50, 70), seed) for seed in (11, 12)]
        for profile, qp in ((H265_PROFILE, 24.5), (H264_PROFILE, 18.0)):
            if search == "legacy":
                encoder = ReferenceEncoder(EncoderConfig(profile=profile, qp=qp))
            else:
                encoder = FrameEncoder(
                    EncoderConfig(
                        profile=profile, qp=qp,
                        encode="python" if pure else "native",
                    )
                )
            data = encoder.encode(frames).data
            decoder = (ReferenceDecoder if decode == "legacy" else FrameDecoder)(data)
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
    """The arguments ``FrameEncoder`` hands ``native.encode_slice``."""
    captured = {}
    real = native.encode_slice

    def capture(*args):
        captured["args"] = args
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(native, "encode_slice", capture)
        _code_slice(frame, "native", **config)
    return list(captured["args"])


# Positions in native.encode_slice's signature.
_ENC, _BANKS, _RECON, _MASK, _ROWS, _LEVELS, _OUT = 0, 1, 13, 14, 15, 16, 17


@needs_kernel
class TestHostileContract:
    @pytest.mark.parametrize("short", ["out", "rows", "levels"])
    def test_undersized_buffer_is_refused_not_overrun(self, short, monkeypatch):
        frame = _frame((64, 64))
        args = _kernel_args(monkeypatch, frame, qp=18.0)
        rows_shape = args[_ROWS].shape
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
        enc = BinaryEncoder()
        ctx = CodecContexts()
        args[_ENC], args[_BANKS] = enc, ctx.banks()
        args[_RECON] = np.zeros_like(args[_RECON])
        args[_MASK] = np.zeros_like(args[_MASK])
        args[{"out": _OUT, "rows": _ROWS, "levels": _LEVELS}[short]] = view
        status, n_leaves, n_levels = native.encode_slice(*args)
        assert status != 0
        assert (backing[length:] == _GUARD).all(), "wrote past the capacity"
        assert n_leaves <= (3 if short == "rows" else rows_shape[1])
        assert n_levels <= (70 if short == "levels" else args[_LEVELS].size)
        # The coder was not written back; a fresh twin run is possible.
        assert (enc._low, enc._range, enc._cache, enc._cache_size) == (
            0, 0xFFFFFFFF, 0, 1,
        )
        assert not enc._out

    @pytest.mark.parametrize("short", ["out", "rows", "levels"])
    def test_refused_slice_is_recoded_by_the_twin(self, short, monkeypatch):
        real = native.encode_slice
        statuses = []

        def starved(*args):
            args = list(args)
            if short == "out":
                args[_OUT] = args[_OUT][:40]
            elif short == "rows":
                args[_ROWS] = np.empty((native.PLAN_ROWS, 3), dtype=np.int64)
            else:
                args[_LEVELS] = args[_LEVELS][:70]
            outcome = real(*args)
            statuses.append(outcome[0])
            return outcome

        monkeypatch.setattr(native, "encode_slice", starved)
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
            (2, args[2].astype(np.float32)),  # frame dtype
            (_MASK, np.zeros((8, 8), dtype=bool)),  # shape mismatch
            (6, args[6][:-1]),  # a pass-1 table missing
            (_OUT, args[_OUT].astype(np.int16)),
        ):
            trial = list(args)
            trial[index] = bad
            assert native.encode_slice(*trial) is None


# -- (e) fan-out ------------------------------------------------------------------------


def _fanout_frames():
    return [_frame((128, 128), seed) for seed in range(_PARALLEL_MIN_SLICES + 1)]


def _encode_with(parallel, **config):
    with telemetry.session() as registry:
        result = FrameEncoder(
            EncoderConfig(qp=24.5, parallel=parallel, **config)
        ).encode(_fanout_frames())
    return result, registry.counters


class TestFanOut:
    @needs_kernel
    def test_serial_thread_process_identical(self, monkeypatch):
        monkeypatch.setattr(encoder_mod, "_effective_cpus", lambda: 4)
        serial, _ = _encode_with(None)
        for executor in ("thread", "process"):
            fanned, counters = _encode_with(
                ParallelConfig(workers=2, executor=executor)
            )
            assert counters.get("encode.parallel_threshold_fallbacks", 0) == 0
            assert counters.get("encode.kernel_refusals", 0) == 0
            # One task per runnable worker, not one per slice.
            assert counters.get("parallel.tasks") == 2
            assert fanned.data == serial.data, executor
            assert fanned.mse == serial.mse, executor
            for key in ("bits", "counts", "qp"):
                assert fanned.stats[key] == serial.stats[key], (executor, key)

    @pytest.mark.parametrize(
        "config, ready",
        [
            (dict(), False),  # kernel not usable
            (dict(encode="python"), True),  # twin pinned
        ],
    )
    def test_threads_only_with_the_kernel(self, config, ready, monkeypatch):
        monkeypatch.setattr(encoder_mod, "_effective_cpus", lambda: 4)
        monkeypatch.setattr(native, "encode_available", lambda: ready)
        if not ready:
            monkeypatch.setattr(native, "encode_slice", lambda *a, **k: None)
        frames = _fanout_frames()
        with telemetry.session() as registry:
            threaded = FrameEncoder(
                EncoderConfig(
                    qp=24.0,
                    parallel=ParallelConfig(workers=2, executor="thread"),
                    **config,
                )
            ).encode(frames)
        assert registry.counters.get("encode.parallel_threshold_fallbacks") == 1
        assert registry.counters.get("parallel.dispatches", 0) == 0
        serial = FrameEncoder(EncoderConfig(qp=24.0, **config)).encode(frames)
        assert threaded.data == serial.data and threaded.mse == serial.mse


# -- the content hash covers every file that reaches the compiler ------------------------


class TestSourceTag:
    def test_editing_a_shared_file_changes_the_object_path(self, tmp_path, monkeypatch):
        for name in os.listdir(native._SOURCE_DIR):
            if name.endswith(".c"):
                shutil.copy(os.path.join(native._SOURCE_DIR, name), tmp_path / name)
        monkeypatch.setattr(native, "_SOURCE_DIR", str(tmp_path))
        kernels = native._KERNELS
        before = {name: native._so_path(k) for name, k in kernels.items()}

        with open(tmp_path / "_write_kernel.c", "a") as fh:
            fh.write("/* edited */\n")
        after = {name: native._so_path(k) for name, k in kernels.items()}
        changed = {name for name in kernels if before[name] != after[name]}
        assert changed == {"encode"}  # only ever #included

        with open(tmp_path / "_recon_kernel.c", "a") as fh:
            fh.write("/* edited */\n")
        again = {name: native._so_path(k) for name, k in kernels.items()}
        changed = {name for name in kernels if after[name] != again[name]}
        assert changed == {"recon", "refs", "encode"}

    def test_includes_name_real_files(self):
        kernel = native._KERNELS["encode"]
        source = open(native._source_path(kernel)).read()
        for path in native._compiled_files(kernel)[1:]:
            assert os.path.exists(path)
            assert f'#include "{os.path.basename(path)}"' in source
        # ...and nothing reaches the compiler that the tag does not hash.
        assert source.count('#include "') == len(kernel.includes)
