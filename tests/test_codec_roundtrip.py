"""Integration tests: encoder -> bitstream -> decoder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import reference
from repro.codec.decoder import decode_frames
from repro.codec.encoder import (
    EncoderConfig,
    FrameEncoder,
    encode_frames,
    pack_header,
    unpack_header,
)
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE

pytestmark = pytest.mark.pure_python


def structured_image(size=64, seed=0):
    """Gradient + stripes + noise: the kind of structure weights show."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 1, size)
    img = (
        np.outer(np.ones(size), np.sin(x * 8) * 40)
        + np.outer(np.cos(x * 3) * 20, np.ones(size))
        + 128
        + rng.normal(0, 5, (size, size))
    )
    return np.clip(img, 0, 255).astype(np.uint8)


def decoded_mse(frames, result):
    decoded = decode_frames(result.data)
    total = sum(
        float(np.sum((d.astype(np.float64) - f.astype(np.float64)) ** 2))
        for d, f in zip(decoded, frames)
    )
    return total / sum(f.size for f in frames)


class TestHeader:
    def test_header_roundtrip(self):
        config = EncoderConfig(qp=27.5, use_inter=True)
        header = pack_header(config, 100, 60, 3)
        parsed = unpack_header(header)
        assert parsed["width"] == 100 and parsed["height"] == 60
        assert parsed["n_frames"] == 3
        assert parsed["use_inter"] and parsed["use_intra"]
        assert parsed["qp_base"] == 27 and parsed["qp_frac"] == 128

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            unpack_header(b"XXXX" + b"\x00" * 20)

    def test_short_stream_rejected(self):
        with pytest.raises(ValueError):
            unpack_header(b"LV")


class TestRoundtrip:
    @pytest.mark.parametrize("qp", [4, 16, 30, 44])
    def test_encoder_decoder_agree_on_mse(self, qp):
        img = structured_image()
        result = encode_frames([img], EncoderConfig(qp=qp))
        # Decoder output rounds to uint8; allow that half-LSB slack.
        assert decoded_mse([img], result) <= result.mse + 0.3

    def test_decoded_shape_matches_original(self):
        img = structured_image(48)[:40, :33]  # force padding
        result = encode_frames([img], EncoderConfig(qp=20))
        decoded = decode_frames(result.data)
        assert decoded[0].shape == (40, 33)

    def test_multi_frame_stream(self):
        frames = [structured_image(seed=s) for s in range(3)]
        result = encode_frames(frames, EncoderConfig(qp=16))
        decoded = decode_frames(result.data)
        assert len(decoded) == 3
        assert decoded_mse(frames, result) < 5.0

    def test_low_qp_is_near_lossless(self):
        img = structured_image()
        result = encode_frames([img], EncoderConfig(qp=0))
        assert decoded_mse([img], result) < 0.5

    def test_rate_decreases_with_qp(self):
        img = structured_image()
        rates = [
            encode_frames([img], EncoderConfig(qp=qp)).bits_per_value
            for qp in (8, 20, 32, 44)
        ]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_mse_increases_with_qp(self):
        img = structured_image()
        mses = [
            decoded_mse([img], encode_frames([img], EncoderConfig(qp=qp)))
            for qp in (4, 20, 36)
        ]
        assert mses[0] < mses[1] < mses[2]

    def test_fractional_qp_interpolates_rate(self):
        img = structured_image()
        r20 = encode_frames([img], EncoderConfig(qp=20.0)).bits_per_value
        r21 = encode_frames([img], EncoderConfig(qp=21.0)).bits_per_value
        rmid = encode_frames([img], EncoderConfig(qp=20.5)).bits_per_value
        assert r21 < rmid < r20

    @pytest.mark.parametrize(
        "profile", [H264_PROFILE, H265_PROFILE, AV1_PROFILE], ids=lambda p: p.name
    )
    def test_all_profiles_roundtrip(self, profile):
        img = structured_image(profile.ctu_size * 2)
        result = encode_frames([img], EncoderConfig(profile=profile, qp=20))
        assert decoded_mse([img], result) < 25.0

    def test_constant_frame_is_nearly_free(self):
        img = np.full((64, 64), 77, dtype=np.uint8)
        result = encode_frames([img], EncoderConfig(qp=20))
        assert result.bits_per_value < 0.1  # header + a handful of payload bytes
        assert decoded_mse([img], result) < 1.0

    def test_random_noise_is_incompressible(self):
        rng = np.random.default_rng(1)
        img = rng.integers(0, 256, (64, 64), dtype=np.uint8)
        result = encode_frames([img], EncoderConfig(qp=0))
        assert result.bits_per_value > 6.0  # near the 8-bit entropy

    def test_empty_frames_rejected(self):
        with pytest.raises(ValueError):
            encode_frames([], EncoderConfig())

    def test_float_frames_rejected(self):
        with pytest.raises(ValueError):
            encode_frames([np.zeros((8, 8), dtype=np.float32)], EncoderConfig())

    def test_mismatched_shapes_rejected(self):
        frames = [np.zeros((8, 8), np.uint8), np.zeros((16, 16), np.uint8)]
        with pytest.raises(ValueError):
            encode_frames(frames, EncoderConfig())


class TestStageFlags:
    """The ablations are the reference encoder's; production refuses them."""

    def test_no_intra_roundtrip(self):
        img = structured_image()
        config = EncoderConfig(qp=16, use_intra=False, use_partition=False)
        result = reference.encode_frames([img], config)
        assert decoded_mse([img], result) < 10.0

    def test_no_transform_roundtrip(self):
        img = structured_image()
        config = EncoderConfig(qp=16, use_transform=False)
        result = reference.encode_frames([img], config)
        assert decoded_mse([img], result) < 10.0

    def test_intra_beats_no_intra_on_structured_content(self):
        img = structured_image()
        full = encode_frames([img], EncoderConfig(qp=20))
        blind = reference.encode_frames(
            [img], EncoderConfig(qp=20, use_intra=False, use_partition=False)
        )
        assert full.bits_per_value < blind.bits_per_value
        assert full.mse <= blind.mse * 1.5

    def test_inter_roundtrip_with_motion(self):
        base = structured_image(64)
        shifted = np.roll(base, 3, axis=1)
        config = EncoderConfig(qp=16, use_inter=True)
        result = reference.encode_frames([base, shifted], config)
        decoded = decode_frames(result.data)
        assert len(decoded) == 2
        assert decoded_mse([base, shifted], result) < 6.0

    def test_inter_helps_on_static_video(self):
        base = structured_image(64)
        frames = [base, base, base]
        config = EncoderConfig(qp=16, use_inter=True)
        with_inter = reference.encode_frames(frames, config)
        without = reference.encode_frames(frames, EncoderConfig(qp=16))
        assert with_inter.bits_per_value < without.bits_per_value


class TestDeterminism:
    def test_encoding_is_deterministic(self):
        img = structured_image()
        a = encode_frames([img], EncoderConfig(qp=22)).data
        b = encode_frames([img], EncoderConfig(qp=22)).data
        assert a == b

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.integers(0, 51))
    def test_property_roundtrip_random_images(self, seed, qp):
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        result = encode_frames([img], EncoderConfig(qp=float(qp)))
        decoded = decode_frames(result.data)[0]
        assert decoded.shape == img.shape
        # Reconstruction error is bounded by the quantizer step size.
        from repro.codec.quantizer import qstep

        limit = (qstep(qp) / 2 + 1.5) ** 2 * 4 + 4
        mse = np.mean((decoded.astype(float) - img.astype(float)) ** 2)
        assert mse <= max(limit, result.mse * 1.2 + 1.0)
