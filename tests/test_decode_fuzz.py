"""Differential fuzz: reference vs. production decode on damaged streams.

The production decoder (``"vectorized"`` below) is only a valid
substitute if it is *indistinguishable* from the interleaved reference
decoder (``repro.codec.reference``, ``"legacy"`` below) on hostile
input, not just on clean streams: same typed error (``CorruptStreamError`` /
``TruncatedStreamError`` / ...) in strict mode, and in concealment
mode the same frames and the same per-slice concealment report.  This
file drives both decoders over seeded bit-flips and truncations and
asserts exactly that, for the whole-slice kernels and their
pure-Python twin alike.

Slice CRCs stop most random damage before the entropy decoder sees it,
so a second family of inputs damages slice *bodies* and re-frames them
with a valid checksum: those reach the slice kernel, which must refuse
them with a status and leave the error -- type *and message* -- to the
twin's re-decode -- and count ``decode.kernel_refusals``, which stays
absent on every stream the kernels accept.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codec import reference
from repro.codec.decoder import decode_frames, decode_frames_with_report
from repro.codec.encoder import EncoderConfig, FrameEncoder, unpack_header
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.syntax import CodecContexts
from repro.resilience.errors import TruncatedStreamError
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


_DECODERS = {
    "vectorized": (decode_frames, decode_frames_with_report),
    "legacy": (reference.decode_frames, reference.decode_frames_with_report),
}


def _strict_outcome(data: bytes, decode: str):
    """("Type: message" | 'ok', frames) for a strict decode."""
    try:
        return "ok", _DECODERS[decode][0](data)
    except Exception as exc:  # noqa: BLE001 -- type and text are the assertion
        return f"{type(exc).__name__}: {exc}", None


def _strict_message(data: bytes) -> str:
    return _strict_outcome(data, "vectorized")[0]


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
        for trial in range(_TRIALS):
            bad = _damage(data, rng)
            legacy_kind, legacy_frames = _strict_outcome(bad, "legacy")
            fast_kind, fast_frames = _strict_outcome(bad, "vectorized")
            assert fast_kind == legacy_kind, f"trial {trial}: {bad[:16].hex()}"
            if legacy_kind == "ok":
                for a, b in zip(legacy_frames, fast_frames):
                    np.testing.assert_array_equal(a, b)

    def test_conceal_reports_match(self, scan_mode):
        data = _stream(seed=29)
        rng = np.random.default_rng(0xC0DEC)
        concealed_any = False
        for trial in range(_TRIALS):
            bad = _damage(data, rng)
            legacy_frames, legacy_report = reference.decode_frames_with_report(bad)
            fast_frames, fast_report = decode_frames_with_report(bad)
            assert fast_report.total_slices == legacy_report.total_slices, (
                f"trial {trial}"
            )
            assert fast_report.concealed == legacy_report.concealed, f"trial {trial}"
            assert len(fast_frames) == len(legacy_frames)
            for a, b in zip(legacy_frames, fast_frames):
                np.testing.assert_array_equal(a, b)
            concealed_any = concealed_any or not legacy_report.clean
        assert concealed_any  # the fuzz actually exercised concealment

    def test_inter_streams_fuzz(self, scan_mode):
        data = _stream(seed=37, use_inter=True)
        rng = np.random.default_rng(0x1E7E4)
        for trial in range(_TRIALS // 2):
            bad = _damage(data, rng)
            legacy_kind, _ = _strict_outcome(bad, "legacy")
            fast_kind, _ = _strict_outcome(bad, "vectorized")
            assert fast_kind == legacy_kind, f"trial {trial}"

    @pytest.mark.parametrize("use_inter", [False, True])
    def test_crc_valid_damage_matches_legacy(self, scan_mode, use_inter):
        data = _stream(seed=53, n=3, use_inter=use_inter)
        rng = np.random.default_rng(0xB0D1E5)
        failed = 0
        for trial in range(_TRIALS):
            bad = _damage_bodies(data, rng)
            legacy_kind, legacy_frames = _strict_outcome(bad, "legacy")
            fast_kind, fast_frames = _strict_outcome(bad, "vectorized")
            assert fast_kind == legacy_kind, f"trial {trial}"
            if legacy_kind == "ok":
                for a, b in zip(legacy_frames, fast_frames):
                    np.testing.assert_array_equal(a, b)
            else:
                failed += 1
            legacy_frames, legacy_report = reference.decode_frames_with_report(bad)
            fast_frames, fast_report = decode_frames_with_report(bad)
            assert fast_report.concealed == legacy_report.concealed, f"trial {trial}"
            for a, b in zip(legacy_frames, fast_frames):
                np.testing.assert_array_equal(a, b)
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
        # One hand-written slice per entropy-level error the format
        # has (a wild motion vector is the random fuzz's staple): the
        # kernel answers each with its status, and the decode raises
        # the twin's error -- same type as legacy, same message as the
        # twin alone.
        header = reference.ReferenceEncoder(
            EncoderConfig(qp=24.0, use_partition=False, use_intra=False)
        ).encode([np.full((32, 32), 128, dtype=np.uint8)]).data
        header = header[: unpack_header(header)["header_size"]]
        level_base = 3 * 3  # size class of the one 32 x 32 leaf

        def last_out_of_range(enc, ctx):
            enc.encode_ueg(ctx.last, 30, 5000, 10, k=1)

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

        expected = {
            last_out_of_range: (3, "last coefficient out of range"),
            runaway_suffix: (1, "corrupt UEG suffix"),
            level_beyond_int64: (2, "OverflowError"),
        }
        enc = BinaryEncoder()
        enc.encode_bit(CodecContexts().cbf, 0, 0)
        good = enc.finish()
        positions = np.random.default_rng(0x9A0)
        for write, (status, text) in expected.items():
            enc = BinaryEncoder()
            ctx = CodecContexts()
            enc.encode_bit(ctx.cbf, 0, 1)
            write(enc, ctx)
            body = enc.finish()
            bad = header + frame_slices([body])
            with telemetry.session() as registry:
                message = _strict_message(bad)
            assert message.startswith("CorruptStreamError") and text in message
            # The refusal is counted; the twin alone refuses nothing.
            assert registry.counters.get("decode.kernel_refusals", 0) == (
                1 if scan_mode == "native" else 0
            )
            assert _strict_outcome(bad, "legacy")[0] == message
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(native, "available", lambda: False)
                assert _strict_message(bad) == message
            _, report = decode_frames_with_report(bad)
            assert report.concealed == [(0, "undecodable slice")]
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
                assert report[:, 0].tolist() == want
                assert report[:, 5].tolist() == np.cumsum(report[:, 0] == 0).tolist()

    def test_typed_errors_surface(self):
        data = _stream(seed=43)
        with pytest.raises(TruncatedStreamError):
            decode_frames(data[: len(data) // 3])
        # Empty and garbage inputs fail identically across paths.
        for bad in (b"", b"\x00" * 64):
            legacy_kind, _ = _strict_outcome(bad, "legacy")
            fast_kind, _ = _strict_outcome(bad, "vectorized")
            assert fast_kind == legacy_kind


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
