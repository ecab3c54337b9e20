"""Unit tests for encoder internals: dithering, padding, configuration."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.encoder import (
    EncodeResult,
    EncoderConfig,
    QpDither,
    _padded_planes,
    pack_header,
    unpack_header,
)
from repro.codec.profiles import H264_PROFILE


class TestQpDither:
    def test_integer_qp_never_bumps(self):
        dither = QpDither(20, 0)
        assert [dither.next() for _ in range(50)] == [20] * 50

    def test_half_qp_alternates(self):
        dither = QpDither(20, 128)
        values = [dither.next() for _ in range(100)]
        assert abs(np.mean(values) - 20.5) < 0.02
        assert set(values) == {20, 21}

    @pytest.mark.parametrize("frac", [32, 64, 192, 240])
    def test_average_matches_fraction(self, frac):
        dither = QpDither(10, frac)
        values = [dither.next() for _ in range(512)]
        assert np.mean(values) == pytest.approx(10 + frac / 256.0, abs=0.02)

    def test_clamped_at_max(self):
        dither = QpDither(51, 255)
        assert max(dither.next() for _ in range(20)) <= 51

    @pytest.mark.parametrize("base", [26, 51])  # 51: the min(51, base + 1) clamp
    def test_take_is_repeated_next(self, base):
        # The vectorised closed form is the same sequence, from any
        # position, and leaves the dither where the calls would.
        for frac in range(256):
            for start in (0, 1, 255, 256, 10_007):
                for count in (1, 64, 1000):
                    stepped = QpDither.advanced(base, frac, start)
                    taken = QpDither.advanced(base, frac, start)
                    values = taken.take(count)
                    assert values.dtype == np.int64 and values.shape == (count,)
                    assert values.tolist() == [stepped.next() for _ in range(count)]
                    assert taken.next() == stepped.next()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=255))
    def test_property_mean(self, base, frac):
        dither = QpDither(base, frac)
        values = [dither.next() for _ in range(256)]
        assert np.mean(values) == pytest.approx(base + frac / 256.0, abs=0.05)


class TestPadFrame:
    def test_no_padding_when_aligned(self):
        frame = np.random.default_rng(0).integers(0, 256, (32, 64)).astype(np.uint8)
        planes = _padded_planes([frame], 32)
        # What pass 2's kernel takes: C-contiguous float64, frame axis first.
        assert planes.dtype == np.float64 and planes.flags.c_contiguous
        np.testing.assert_array_equal(planes, frame[None])

    def test_padding_dimensions(self):
        frame = np.zeros((30, 45), dtype=np.uint8)
        assert _padded_planes([frame, frame], 16).shape == (2, 32, 48)

    def test_padding_replicates_edges(self):
        frame = np.arange(9, dtype=np.uint8).reshape(3, 3)
        padded = _padded_planes([frame], 4)[0]
        assert padded[3, 0] == frame[2, 0]  # bottom row replicated
        assert padded[0, 3] == frame[0, 2]  # right column replicated
        assert padded[3, 3] == frame[2, 2]


class TestConfig:
    def test_flags_roundtrip_through_header(self):
        config = EncoderConfig(
            use_intra=False, use_transform=False, use_partition=False, use_inter=True
        )
        parsed = unpack_header(pack_header(config, 10, 10, 1))
        assert not parsed["use_intra"]
        assert not parsed["use_transform"]
        assert not parsed["use_partition"]
        assert parsed["use_inter"]

    def test_header_stores_fixed_cu_when_unpartitioned(self):
        config = EncoderConfig(use_partition=False, fixed_cu_size=16)
        parsed = unpack_header(pack_header(config, 10, 10, 1))
        assert parsed["ctu"] == 16 and parsed["min_cu"] == 16

    def test_header_stores_profile_geometry(self):
        config = EncoderConfig(profile=H264_PROFILE)
        parsed = unpack_header(pack_header(config, 10, 10, 1))
        assert parsed["ctu"] == 16 and parsed["min_cu"] == 4

    def test_encode_result_bits_per_value(self):
        result = EncodeResult(data=b"x" * 100, num_values=400, mse=0.0)
        assert result.bits_per_value == pytest.approx(2.0)

    def test_fractional_qp_rounding_in_header(self):
        parsed = unpack_header(pack_header(EncoderConfig(qp=19.999), 4, 4, 1))
        assert parsed["qp_base"] == 20 and parsed["qp_frac"] == 0
