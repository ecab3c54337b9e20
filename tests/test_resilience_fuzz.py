"""Seeded fuzzing of every byte format plus the framing layer itself.

The resilience contract: feeding mutated, truncated, or garbage bytes
to any decoder either succeeds, conceals (with a report), or raises
:class:`CorruptStreamError` -- it never hangs, never crashes the
interpreter, and never leaks a low-level exception type.  All
randomness is seeded, so a failing trial reproduces exactly.
"""

import numpy as np
import pytest

from repro.codec.decoder import decode_frames, decode_frames_with_report
from repro.codec.encoder import EncoderConfig, encode_frames, unpack_header
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.syntax import CodecContexts
from repro.cluster.chaos import damage_payload
from repro.models.synthetic_weights import weight_like
from repro.resilience import (
    ChecksumError,
    CorruptStreamError,
    FaultInjector,
    TruncatedStreamError,
    deframe_slices,
    frame_slices,
)
from repro.resilience.framing import SLICE_OVERHEAD
from repro.tensor.checkpoint import (
    load_checkpoint,
    load_checkpoint_with_report,
    save_checkpoint,
)
from repro.tensor.codec import CompressedTensor, TensorCodec
from repro.tensor.precision import quantize_to_uint8

pytestmark = pytest.mark.fuzz


@pytest.fixture(scope="module")
def frames():
    return [
        quantize_to_uint8(weight_like(32, 32, seed=seed))[0] for seed in range(4)
    ]


@pytest.fixture(scope="module")
def stream(frames):
    return encode_frames(frames, EncoderConfig(qp=20)).data


@pytest.fixture(scope="module")
def container_bytes():
    codec = TensorCodec(tile=32)
    return codec.encode(weight_like(64, 64, seed=7), qp=22).to_bytes()


class TestFraming:
    def test_slices_roundtrip(self):
        payloads = [b"alpha", b"", b"x" * 1000]
        slices, damage = deframe_slices(frame_slices(payloads))
        assert slices == payloads
        assert damage == []

    def test_flip_detected_strict(self):
        raw = bytearray(frame_slices([b"hello world"]))
        raw[-3] ^= 0x01
        with pytest.raises(ChecksumError):
            deframe_slices(bytes(raw))

    def test_flip_localised_non_strict(self):
        raw = bytearray(frame_slices([b"first", b"second", b"third"]))
        raw[-2] ^= 0x01  # inside "third"
        slices, damage = deframe_slices(bytes(raw), expected=3, strict=False)
        assert slices[0] == b"first" and slices[1] == b"second"
        assert slices[2] is None
        assert damage == [(2, "checksum mismatch")]

    def test_truncation_pads_missing_slices(self):
        raw = frame_slices([b"first", b"second"])
        slices, damage = deframe_slices(raw[:7], expected=2, strict=False)
        assert slices == [None, None]
        assert len(damage) == 2

    def test_truncation_strict_raises(self):
        raw = frame_slices([b"first"])
        with pytest.raises(TruncatedStreamError):
            deframe_slices(raw[:-1])


class TestStreamFuzz:
    def test_bit_flip_fuzz_strict(self, stream):
        injector = FaultInjector(seed=11)
        for _ in range(60):
            bad = injector.flip_bits(stream, flips=int(injector.rng.integers(1, 9)))
            try:
                decoded = decode_frames(bad)
                assert all(f.shape == (32, 32) for f in decoded)
            except CorruptStreamError:
                pass

    def test_bit_flip_fuzz_conceal(self, stream, frames):
        injector = FaultInjector(seed=12)
        concealed_total = 0
        for _ in range(60):
            bad = injector.flip_bits(stream, flips=int(injector.rng.integers(1, 9)))
            try:
                decoded, report = decode_frames_with_report(bad)
            except CorruptStreamError:
                continue  # header damage cannot be concealed
            assert len(decoded) == len(frames)
            assert all(f.shape == (32, 32) for f in decoded)
            concealed_total += report.concealed_count
        assert concealed_total > 0  # the fuzzer did land payload hits

    def test_truncation_fuzz(self, stream, frames):
        injector = FaultInjector(seed=13)
        for _ in range(40):
            bad = injector.truncate(stream)
            try:
                decode_frames(bad)
            except CorruptStreamError:
                pass
            try:
                decoded, report = decode_frames_with_report(bad)
                assert len(decoded) == len(frames)
            except CorruptStreamError:
                pass

    def test_damaged_slice_does_not_affect_others(self, stream, frames):
        """Slice independence: frames other than the hit one decode
        bit-exactly -- the whole point of per-frame coder resets."""
        clean = decode_frames(stream)
        injector = FaultInjector(seed=14)
        hits = 0
        for _ in range(30):
            bad = injector.flip_bits(stream)
            try:
                decoded, report = decode_frames_with_report(bad)
            except CorruptStreamError:
                continue
            damaged = {index for index, _ in report.concealed}
            if not damaged:
                continue
            hits += 1
            for index, frame in enumerate(decoded):
                if index not in damaged:
                    assert np.array_equal(frame, clean[index]), index
        assert hits > 0

    def test_conceal_is_deterministic(self, stream):
        injector = FaultInjector(seed=15)
        bad = injector.flip_bits(stream, flips=4)
        try:
            first, report1 = decode_frames_with_report(bad)
            second, report2 = decode_frames_with_report(bad)
        except CorruptStreamError:
            pytest.skip("flips landed in the header")
        assert report1.concealed == report2.concealed
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


    def test_every_odd_slice_damaged_keeps_the_dither_aligned(self):
        """64 two-CTU slices under a dithered QP, every odd one unusable:
        by turns CRC-damaged (never parsed) and CRC-valid but failing
        one CTU in (a crafted runaway Exp-Golomb suffix).  Every group's
        per-CTU QPs are positioned in closed form, so every even slice
        still decodes to its clean samples and every odd one repeats its
        neighbour."""
        rng = np.random.default_rng(16)
        frames = [rng.integers(0, 255, (32, 64)).astype(np.uint8) for _ in range(64)]
        data = encode_frames(frames, EncoderConfig(qp=24.3)).data
        clean = decode_frames(data)
        enc, ctx = BinaryEncoder(), CodecContexts()
        enc.encode_bit(ctx.split, 0, 0)  # the first CTU is one 32 x 32 leaf ...
        enc.encode_bit(ctx.mpm_flag, 0, 1)  # ... in its most probable mode ...
        enc.encode_bit(ctx.mpm_index, 0, 0)
        enc.encode_bit(ctx.cbf, 0, 1)  # ... with one coefficient ...
        enc.encode_ueg(ctx.last, 30, 0, 10, k=1)
        for prefix in range(3):
            enc.encode_bit(ctx.level, 9 + min(prefix, 2), 1)
        for _ in range(70):  # ... whose magnitude never ends
            enc.encode_bypass(0)
        header = unpack_header(data)["header_size"]
        slices = deframe_slices(data[header:])[0]
        slices[1::4] = [enc.finish()] * 16
        bad = bytearray(data[:header] + frame_slices(slices))
        offset = header
        for index, payload in enumerate(slices):
            if index % 4 == 3:
                bad[offset + SLICE_OVERHEAD] ^= 0x40  # first payload byte
            offset += SLICE_OVERHEAD + len(payload)
        with pytest.raises(CorruptStreamError, match="corrupt UEG suffix"):
            decode_frames(bytes(data[:header] + frame_slices(slices)))
        decoded, report = decode_frames_with_report(bytes(bad))
        assert report.concealed == [
            (index, "checksum mismatch" if index % 4 == 3 else "undecodable slice")
            for index in range(1, 64, 2)
        ]
        for index, frame in enumerate(decoded):
            assert np.array_equal(frame, clean[index - index % 2]), index


class TestContainerFuzz:
    def test_bit_flip_fuzz(self, container_bytes):
        codec = TensorCodec(tile=32)
        injector = FaultInjector(seed=21)
        concealed_total = 0
        for _ in range(60):
            bad = injector.flip_bits(
                container_bytes, flips=int(injector.rng.integers(1, 5))
            )
            try:
                compressed = CompressedTensor.from_bytes(bad)
            except CorruptStreamError:
                continue  # metadata damage fails loudly, by design
            try:
                tensor = codec.decode(compressed)
                assert tensor.shape == (64, 64)
            except CorruptStreamError:
                pass
            try:
                tensor, report = codec.decode_with_report(
                    CompressedTensor.from_bytes(bad, strict=False)
                )
                assert tensor.shape == (64, 64)
                concealed_total += report.concealed_count
            except CorruptStreamError:
                pass
        assert concealed_total > 0

    def test_truncation_fuzz(self, container_bytes):
        codec = TensorCodec(tile=32)
        injector = FaultInjector(seed=22)
        for _ in range(40):
            bad = injector.truncate(container_bytes)
            try:
                codec.decode(CompressedTensor.from_bytes(bad))
            except CorruptStreamError:
                pass

    def test_concealed_tile_reported_and_rest_exact(self, container_bytes):
        codec = TensorCodec(tile=32)
        clean = codec.decode(CompressedTensor.from_bytes(container_bytes))
        bad = bytearray(container_bytes)
        bad[-10] ^= 0xFF  # inside the last frame slice
        compressed = CompressedTensor.from_bytes(bytes(bad))
        with pytest.raises(CorruptStreamError):
            codec.decode(compressed)
        tensor, report = codec.decode_with_report(compressed)
        assert report.concealed_count == 1
        (tile_index, _reason) = report.concealed[0]
        # Undamaged tiles decode bit-exactly.
        for index in range(compressed.layout.num_tiles):
            y0, x0, h, w = compressed.layout.tile_box(index)
            if index != tile_index:
                assert np.array_equal(
                    tensor[y0 : y0 + h, x0 : x0 + w],
                    clean[y0 : y0 + h, x0 : x0 + w],
                )

    def test_garbage_rejected(self):
        injector = FaultInjector(seed=23)
        for size in (0, 1, 2, 7, 64, 500):
            garbage = bytes(injector.rng.integers(0, 256, size, dtype=np.uint8))
            with pytest.raises(CorruptStreamError):
                CompressedTensor.from_bytes(garbage)


class TestCheckpointFuzz:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        rng = np.random.default_rng(0)
        state = {
            "layer.weight": rng.standard_normal((32, 32)),
            "layer.bias": rng.standard_normal(8),
            "norm.scale": rng.standard_normal(4),
        }
        path = tmp_path_factory.mktemp("ckpt") / "model.lvck"
        save_checkpoint(state, str(path), bits_per_value=4.0)
        return str(path), state

    def test_bit_flip_fuzz(self, checkpoint, tmp_path):
        path, _ = checkpoint
        blob = open(path, "rb").read()
        injector = FaultInjector(seed=31)
        target = tmp_path / "fuzzed.lvck"
        for _ in range(40):
            target.write_bytes(injector.flip_bits(blob, flips=2))
            try:
                load_checkpoint(str(target))
            except CorruptStreamError:
                pass
            # Tolerant load never raises on payload damage.
            try:
                state, report = load_checkpoint_with_report(str(target))
                assert report.total_entries <= 3
            except CorruptStreamError:
                pass  # header/structure damage

    def test_partial_load_skips_damaged_entry(self, checkpoint, tmp_path):
        path, state = checkpoint
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF  # inside the final entry's payload
        target = tmp_path / "damaged.lvck"
        target.write_bytes(bytes(blob))
        with pytest.raises(CorruptStreamError):
            load_checkpoint(str(target))
        loaded, report = load_checkpoint_with_report(str(target))
        assert not report.clean
        assert report.total_entries == len(state)
        assert len(loaded) == len(state) - 1
        skipped = {name for name, _ in report.skipped}
        assert len(skipped) == 1
        assert set(loaded) | skipped == set(state)

    def test_truncation_fuzz(self, checkpoint, tmp_path):
        path, _ = checkpoint
        blob = open(path, "rb").read()
        injector = FaultInjector(seed=32)
        target = tmp_path / "cut.lvck"
        for _ in range(20):
            target.write_bytes(injector.truncate(blob))
            try:
                load_checkpoint(str(target))
            except CorruptStreamError:
                pass


def _carnage(injector, payload, rounds):
    """Every draw the fuzzers and the serving soak make, in turn."""
    out = []
    for _ in range(rounds):
        out.append(injector.flip_bits(payload, 3))
        out.append(injector.truncate(payload))
        out.append(damage_payload(payload, 16, injector))
    return out


class TestFaultInjectorDeterminism:
    def test_same_seed_same_carnage(self):
        payload = bytes(range(256)) * 8
        a = FaultInjector(seed=5, bit_flip_prob=0.5, truncate_prob=0.2)
        b = FaultInjector(seed=5, bit_flip_prob=0.5, truncate_prob=0.2)
        assert _carnage(a, payload, 50) == _carnage(b, payload, 50)
        assert a.injected == b.injected > 0

    def test_different_seed_diverges(self):
        payload = bytes(range(256)) * 8
        a = FaultInjector(seed=1, bit_flip_prob=1.0)
        b = FaultInjector(seed=2, bit_flip_prob=1.0)
        assert _carnage(a, payload, 10) != _carnage(b, payload, 10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(bit_flip_prob=1.5)
