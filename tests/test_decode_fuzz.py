"""Differential fuzz: the two decoders on damaged streams.

The whole-slice kernels (``native``) and their pure-Python twin
(``pure``) are the only decoders, so on hostile input they are held to
each other: on the same damaged bytes, the same typed error
(``CorruptStreamError`` / ``TruncatedStreamError`` / ...) *with the
same message* in strict mode, and in concealment mode the same frames
and the same per-slice concealment report.  The twin, which the
``pure`` leg runs alone (as CI's pure-Python leg does), is held to what
a decode must be on its own: only typed errors escape; a strict decode
fails exactly when concealment had something to conceal, and agrees
with it otherwise; a concealed frame repeats the frame before it (mid
grey for the first).

Slice CRCs stop most random damage before the entropy decoder sees it,
so a second family of inputs damages slice *bodies* and re-frames them
with a valid checksum: those reach the slice kernel, which must refuse
them with a status and leave the error -- type *and message* -- to the
twin's re-decode -- and count ``decode.kernel_refusals``, which stays
absent on every stream the kernels accept.  Hand-written slices pin
each entropy-level error the format has, message and status, and the
motion-vector bounds on both sides of the reference frame's edge.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codec import reference
from repro.codec.decoder import FrameDecoder, decode_frames, decode_frames_with_report
from repro.codec.encoder import EncoderConfig, FrameEncoder, pack_header, unpack_header
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.profiles import H264_PROFILE
from repro.codec.syntax import (
    CodecContexts,
    encode_coeff_block,
    encode_intra_mode,
    encode_mv,
)
from repro.resilience.errors import CorruptStreamError, TruncatedStreamError
from repro.resilience.framing import deframe_slices, frame_slices

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

_TRIALS = 40


def _stream(qp=24.0, seed=11, n=4, edge=64, use_inter=False):
    rng = np.random.default_rng(seed)
    base = np.linspace(40, 200, edge)[None, :] + np.linspace(-30, 30, edge)[:, None]
    frames = [
        np.clip(base + rng.normal(0, 25, (edge, edge)), 0, 255).astype(np.uint8)
        for _ in range(n)
    ]
    # Inter streams come from the reference encoder alone.
    encoder = reference.ReferenceEncoder if use_inter else FrameEncoder
    return encoder(EncoderConfig(qp=qp, use_inter=use_inter)).encode(frames).data


def _damage(data: bytes, rng: np.random.Generator) -> bytes:
    """Two thirds bit-flips, one third truncations -- like real rot."""
    if rng.random() < 2 / 3:
        buf = bytearray(data)
        for _ in range(int(rng.integers(1, 4))):
            buf[int(rng.integers(0, len(buf)))] ^= 1 << int(rng.integers(0, 8))
        return bytes(buf)
    return data[: int(rng.integers(1, len(data)))]


def _damage_bodies(data: bytes, rng: np.random.Generator) -> bytes:
    """Damage slice bodies, then re-frame them so every CRC verifies."""
    size = unpack_header(data)["header_size"]
    slices, _ = deframe_slices(data[size:])
    victim = int(rng.integers(0, len(slices)))
    body = bytearray(slices[victim])
    kind = rng.random()
    if kind < 0.5:
        for _ in range(int(rng.integers(1, 6))):
            body[int(rng.integers(0, len(body)))] ^= 1 << int(rng.integers(0, 8))
    elif kind < 0.75:
        del body[int(rng.integers(1, len(body))) :]
    else:
        start = int(rng.integers(0, len(body)))
        body[start:] = bytes(rng.integers(0, 256, len(body) - start, dtype=np.uint8))
    slices[victim] = bytes(body)
    return data[:size] + frame_slices(slices)


def _strict_message(data: bytes) -> str:
    """"ok" or "Type: message" of a strict decode."""
    try:
        decode_frames(data)
    except Exception as exc:  # noqa: BLE001 -- type and text are the assertion
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def _outcome(data: bytes):
    """``(strict, frames, concealed, concealed_frames)`` of a strict and a
    concealing decode: ``strict`` is "ok" or the "Type: message" of the
    typed error it raised, ``concealed`` the report's ``(total_slices,
    concealed)`` or the typed error a concealing decode raised too.  Any
    other exception escapes and fails the test."""
    try:
        strict, frames = "ok", decode_frames(data)
    except CorruptStreamError as exc:
        strict, frames = f"{type(exc).__name__}: {exc}", None
    try:
        concealed_frames, report = decode_frames_with_report(data)
    except CorruptStreamError as exc:
        return strict, frames, f"{type(exc).__name__}: {exc}", None
    return strict, frames, (report.total_slices, report.concealed), concealed_frames


def _twin_outcome(data: bytes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(native, "available", lambda: False)
        return _outcome(data)


def _assert_same_frames(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert len(a) == len(b)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def _assert_consistent(outcome):
    """What one decoder's outcome must be on its own (the ``pure`` leg)."""
    strict, frames, concealed, concealed_frames = outcome
    if isinstance(concealed, str):  # damage concealment cannot skip
        assert concealed == strict != "ok"
        return
    total, patched = concealed
    assert len(concealed_frames) == total
    assert (strict == "ok") == (patched == [])
    if strict == "ok":
        _assert_same_frames(frames, concealed_frames)
    for index, _ in patched:
        want = (
            concealed_frames[index - 1] if index
            else np.full_like(concealed_frames[0], 128)
        )
        np.testing.assert_array_equal(concealed_frames[index], want)


def _check(bad: bytes, scan_mode: str):
    """Decode ``bad`` in ``scan_mode`` and hold the outcome to its oracle:
    the kernels to the twin on the same bytes, the twin to itself."""
    got = _outcome(bad)
    if scan_mode == "native":
        want = _twin_outcome(bad)
        assert got[0] == want[0] and got[2] == want[2]
        _assert_same_frames(got[1], want[1])
        _assert_same_frames(got[3], want[3])
    else:
        _assert_consistent(got)
    return got


@pytest.fixture(params=["native", "pure"])
def scan_mode(request, monkeypatch):
    if request.param == "native":
        if not native.available():
            pytest.skip("slice kernels unavailable")
    else:
        monkeypatch.setattr(native, "available", lambda: False)
    return request.param


class TestDecodeFuzz:
    def test_strict_errors_match(self, scan_mode):
        data = _stream()
        rng = np.random.default_rng(0xFA57)
        for _ in range(_TRIALS):
            _check(_damage(data, rng), scan_mode)

    def test_conceal_reports_match(self, scan_mode):
        data = _stream(seed=29)
        rng = np.random.default_rng(0xC0DEC)
        concealed_any = False
        for _ in range(_TRIALS):
            _, _, concealed, _ = _check(_damage(data, rng), scan_mode)
            concealed_any = concealed_any or (
                not isinstance(concealed, str) and bool(concealed[1])
            )
        assert concealed_any  # the fuzz actually exercised concealment

    def test_inter_streams_fuzz(self, scan_mode):
        data = _stream(seed=37, use_inter=True)
        rng = np.random.default_rng(0x1E7E4)
        for _ in range(_TRIALS // 2):
            _check(_damage(data, rng), scan_mode)

    @pytest.mark.parametrize("use_inter", [False, True])
    def test_crc_valid_damage_matches(self, scan_mode, use_inter):
        data = _stream(seed=53, n=3, use_inter=use_inter)
        rng = np.random.default_rng(0xB0D1E5)
        failed = 0
        for _ in range(_TRIALS):
            strict, _, _, _ = _check(_damage_bodies(data, rng), scan_mode)
            failed += strict != "ok"
        # Garbage bins mostly parse as *something* on intra streams; on
        # inter streams a wild motion vector is near certain.
        assert failed or not use_inter

    @pytest.mark.skipif(
        not native.available(), reason="slice kernels unavailable"
    )
    @pytest.mark.parametrize("use_inter", [False, True])
    def test_kernel_errors_are_the_twins_errors(self, monkeypatch, use_inter):
        # The kernel formats no error: whatever it refuses is decoded
        # again by the Python walk, so the message cannot drift.
        data = _stream(seed=59, n=3, use_inter=use_inter)
        rng = np.random.default_rng(0x7717)
        cases = [_damage_bodies(data, rng) for _ in range(_TRIALS)]
        rng = np.random.default_rng(0x7718)
        cases += [_damage(data, rng) for _ in range(_TRIALS // 2)]
        via_kernels = [_strict_message(bad) for bad in cases]
        monkeypatch.setattr(native, "available", lambda: False)
        via_twin = [_strict_message(bad) for bad in cases]
        assert via_kernels == via_twin
        assert any(message != "ok" for message in via_kernels)

    def test_directed_refusals(self, scan_mode):
        # One hand-written slice per coefficient-level error the format
        # has: the kernel answers each with its status, and the decode
        # raises the twin's error, pinned here type and message.
        header = pack_header(
            EncoderConfig(qp=24.0, use_partition=False, use_intra=False, fixed_cu_size=32),
            32, 32, 1,
        )
        level_base = 3 * 3  # size class of the one 32 x 32 leaf

        def last_out_of_range(enc, ctx):
            enc.encode_ueg(ctx.last, 30, 5000, 10, k=1)

        def last_one_past_the_block(enc, ctx):
            enc.encode_ueg(ctx.last, 30, 32 * 32, 10, k=1)

        def runaway_suffix(enc, ctx):
            enc.encode_ueg(ctx.last, 30, 0, 10, k=1)
            for prefix in range(3):
                enc.encode_bit(ctx.level, level_base + min(prefix, 2), 1)
            for _ in range(70):
                enc.encode_bypass(0)

        def level_beyond_int64(enc, ctx):
            enc.encode_ueg(ctx.last, 30, 0, 10, k=1)
            enc.encode_ueg(ctx.level, level_base, 1 << 65, 3, k=1)
            enc.encode_bypass(1)

        last = "CorruptStreamError: corrupt stream: last coefficient out of range"
        expected = {
            last_out_of_range: (3, last),
            last_one_past_the_block: (3, last),
            runaway_suffix: (1, _RUNAWAY),
            level_beyond_int64: (2, _OVERFLOW),
        }
        good = _slice(lambda enc, ctx: enc.encode_bit(ctx.cbf, 0, 0))
        positions = np.random.default_rng(0x9A0)
        for write, (status, message) in expected.items():
            body = _slice(lambda enc, ctx: enc.encode_bit(ctx.cbf, 0, 1), write)
            _assert_refused(header + frame_slices([body]), message, scan_mode)
            if scan_mode == "native":
                # Straight at the kernel, through the group entry: the
                # slice at a drawn position in a group of four, its
                # neighbours one cbf = 0 leaf each.  It alone is refused,
                # with its status, and contributes no leaf.
                position = int(positions.integers(0, 4))
                group = [good] * 4
                group[position] = body
                report = native.plan_slices(
                    group, 32, 32, 32, 8, False, False, False, (0, 1),
                    np.empty((native.PLAN_ROWS, 4), dtype=np.int64),
                    np.empty(4 * 32 * 32, dtype=np.int64),
                )
                want = [0] * 4
                want[position] = status
                assert report[:, 0].tolist() == want, write.__name__
                assert report[:, 5].tolist() == np.cumsum(report[:, 0] == 0).tolist()

    def test_intra_mode_index_out_of_range(self, scan_mode):
        # H.264 keeps 11 of the 35 modes, so two angular neighbours whose
        # most probable modes leave the profile make 9 remaining modes
        # and a 4-bit index: 8 is the last mode, 15 is no mode.
        all_modes = H264_PROFILE.all_modes
        config = EncoderConfig(profile=H264_PROFILE, qp=24.0, use_partition=False)

        def stream(index):
            def leaves(enc, ctx):
                # Raster order: (0, 0), (0, 8), (8, 0), all mode 2, no residual.
                for left, top in ((None, None), (2, None), (None, 2)):
                    encode_intra_mode(enc, ctx, 2, left, top, all_modes)
                    enc.encode_bit(ctx.cbf, 0, 0)
                enc.encode_bit(ctx.mpm_flag, 0, 0)  # (8, 8): not a most probable mode
                enc.encode_bypass_bits(index, 4)
                enc.encode_bit(ctx.cbf, 0, 0)
            return pack_header(config, 16, 16, 1) + frame_slices([_slice(leaves)])

        with telemetry.session() as registry:
            assert _check(stream(8), scan_mode)[0] == "ok"
        assert "decode.kernel_refusals" not in registry.counters
        _assert_refused(
            stream(15),
            "CorruptStreamError: corrupt stream: intra mode index out of range",
            scan_mode, status=4,
        )

    def test_motion_vectors_at_the_reference_edge(self, scan_mode):
        # Two 16 x 16 frames of four 8 x 8 leaves.  Frame 0 codes a DC
        # level per leaf; frame 1's first leaf copies the block its
        # vector names, the rest copy their own.  (8, 8) and (0, 8) end
        # on the reference's last row or column and decode, with no
        # refusal; one sample further is outside, the kernel's status 5
        # and the twin's message.
        config = EncoderConfig(
            qp=24.0, use_partition=False, use_intra=False, use_inter=True
        )

        def stream(mv):
            def intra(enc, ctx):
                for k in range(4):
                    levels = np.zeros((8, 8), dtype=np.int64)
                    levels[0, 0] = 5 * k - 7
                    encode_coeff_block(enc, ctx, levels)

            def inter(enc, ctx):
                for vector in (mv, (0, 0), (0, 0), (0, 0)):
                    enc.encode_bit(ctx.pred_flag, 0, 1)
                    encode_mv(enc, ctx, vector)
                    enc.encode_bit(ctx.cbf, 0, 0)

            return pack_header(config, 16, 16, 2) + frame_slices(
                [_slice(intra), _slice(inter)]
            )

        for mv in ((8, 8), (0, 8), (8, 0)):
            with telemetry.session() as registry:
                strict, frames, _, _ = _check(stream(mv), scan_mode)
            assert strict == "ok"
            assert "decode.kernel_refusals" not in registry.counters
            np.testing.assert_array_equal(
                frames[1][:8, :8], frames[0][mv[0] : mv[0] + 8, mv[1] : mv[1] + 8]
            )
        for mv in ((9, 0), (0, 9), (-1, 0)):
            _assert_refused(
                stream(mv),
                f"CorruptStreamError: motion vector {mv} points outside the "
                "reference frame",
                scan_mode, status=5, frame=1,
            )

    def test_typed_errors_surface(self):
        data = _stream(seed=43)
        with pytest.raises(TruncatedStreamError):
            decode_frames(data[: len(data) // 3])
        # Empty and garbage inputs fail typed, identically on both decoders.
        for bad in (b"", b"\x00" * 64):
            message = _strict_message(bad)
            assert message.startswith(("CorruptStreamError", "TruncatedStreamError"))
            assert _twin_outcome(bad)[0] == message


#: The twin's messages for the two scan errors the kernel reports by
#: status alone: a runaway Exp-Golomb suffix, and a level beyond int64.
_RUNAWAY = "CorruptStreamError: corrupt UEG suffix"
_OVERFLOW = "CorruptStreamError: corrupt stream: coefficient level beyond int64"


def _slice(*writes) -> bytes:
    """One slice body: a fresh coder and fresh contexts, written by each
    ``write(enc, ctx)`` in turn."""
    enc = BinaryEncoder()
    ctx = CodecContexts()
    for write in writes:
        write(enc, ctx)
    return enc.finish()


def _assert_refused(bad, message, scan_mode, status=None, frame=0):
    """A crafted stream's strict decode raises exactly ``message``; with
    the kernels the slice is refused once (status ``status`` straight
    from ``native.plan_slices``, for a lone slice) and the twin raises;
    concealment patches that frame alone."""
    with telemetry.session() as registry:
        got = _strict_message(bad)
    assert got == message
    assert registry.counters.get("decode.kernel_refusals", 0) == (
        1 if scan_mode == "native" else 0
    )
    _, _, concealed, _ = _check(bad, scan_mode)
    assert concealed[1] == [(frame, "undecodable slice")]
    if scan_mode == "native" and status is not None and frame == 0:
        decoder = FrameDecoder(bad)
        h = decoder._header
        (segment,), _ = deframe_slices(decoder._payload, expected=1)
        cap = (h["height"] // 4) * (h["width"] // 4)
        report = native.plan_slices(
            [segment], h["height"], h["width"], h["ctu"], h["min_cu"],
            h["use_partition"], h["use_intra"], False, decoder._profile.all_modes,
            np.empty((native.PLAN_ROWS, cap), dtype=np.int64),
            np.empty(h["height"] * h["width"], dtype=np.int64),
        )
        assert report[0, 0] == status


_OUTGROWN = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from repro.codec.decoder import decode_frames_with_report
from repro.codec.encoder import EncoderConfig, pack_header
from repro.resilience.errors import CorruptStreamError
try:
    decode_frames_with_report(pack_header(EncoderConfig(qp=20), 16384, 16384, 1))
except CorruptStreamError as exc:
    print("typed:", exc)
"""


def test_a_header_that_outgrows_memory_is_a_typed_error():
    # 21 bytes declaring one 16384 x 16384 frame and no slice: concealment
    # must make a 2 GiB plane.  Under a 2 GiB address-space limit that is
    # a typed answer naming the geometry, not a bare MemoryError.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _OUTGROWN], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("typed:") and "16384 x 16384 x 1" in done.stdout
