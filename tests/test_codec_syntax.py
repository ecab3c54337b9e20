"""Unit tests for the bitstream syntax layer (encoder/decoder pairs)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec.entropy.arithmetic import BinaryDecoder, BinaryEncoder
from repro.codec.profiles import H265_PROFILE
from repro.codec.reference import decode_coeff_block
from repro.codec.syntax import (
    CodecContexts,
    decode_intra_mode,
    decode_mv,
    encode_coeff_block,
    encode_intra_mode,
    encode_mv,
    estimate_coeff_bits,
    size_class,
)

pytestmark = pytest.mark.pure_python


class TestSizeClass:
    def test_known_sizes(self):
        assert size_class(4) == 0
        assert size_class(8) == 1
        assert size_class(32) == 3

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError):
            size_class(2)
        with pytest.raises(ValueError):
            size_class(128)


def _roundtrip_blocks(blocks):
    enc = BinaryEncoder()
    ctx = CodecContexts()
    for block in blocks:
        encode_coeff_block(enc, ctx, block)
    dec = BinaryDecoder(enc.finish())
    ctx2 = CodecContexts()
    return [decode_coeff_block(dec, ctx2, b.shape[0]) for b in blocks]


class TestCoeffBlocks:
    def test_zero_block_is_one_bit(self):
        enc = BinaryEncoder()
        ctx = CodecContexts()
        for _ in range(100):
            encode_coeff_block(enc, ctx, np.zeros((8, 8), dtype=np.int64))
        assert len(enc.finish()) < 20  # adaptive CBF approaches 0 bits

    def test_roundtrip_random_blocks(self):
        rng = np.random.default_rng(0)
        blocks = [
            rng.integers(-30, 30, (n, n)).astype(np.int64) for n in (4, 8, 16, 32)
        ]
        decoded = _roundtrip_blocks(blocks)
        for original, back in zip(blocks, decoded):
            assert np.array_equal(original, back)

    def test_roundtrip_sparse_blocks(self):
        rng = np.random.default_rng(1)
        blocks = []
        for _ in range(20):
            block = np.zeros((8, 8), dtype=np.int64)
            count = rng.integers(0, 5)
            for _ in range(count):
                block[rng.integers(8), rng.integers(8)] = rng.integers(-5, 6) or 1
            blocks.append(block)
        decoded = _roundtrip_blocks(blocks)
        for original, back in zip(blocks, decoded):
            assert np.array_equal(original, back)

    def test_large_levels_roundtrip(self):
        block = np.zeros((4, 4), dtype=np.int64)
        block[0, 0] = 100_000
        block[3, 3] = -54_321
        assert np.array_equal(_roundtrip_blocks([block])[0], block)

    def test_sparse_cheaper_than_dense(self):
        rng = np.random.default_rng(2)
        dense = rng.integers(-20, 20, (8, 8)).astype(np.int64)
        sparse = np.zeros((8, 8), dtype=np.int64)
        sparse[0, 0] = 3

        def cost(block):
            enc = BinaryEncoder()
            encode_coeff_block(enc, CodecContexts(), block)
            return len(enc.finish())

        assert cost(sparse) < cost(dense)

    def test_estimate_tracks_actual_order(self):
        rng = np.random.default_rng(3)
        dense = rng.integers(-20, 20, (8, 8)).astype(np.int64)
        sparse = np.zeros((8, 8), dtype=np.int64)
        sparse[0, 0] = 3
        assert estimate_coeff_bits(sparse) < estimate_coeff_bits(dense)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.choice([4, 8, 16]))
        density = rng.random() * 0.5
        block = np.where(
            rng.random((n, n)) < density, rng.integers(-50, 50, (n, n)), 0
        ).astype(np.int64)
        assert np.array_equal(_roundtrip_blocks([block])[0], block)


class TestIntraModeCoding:
    @pytest.mark.parametrize("neighbors", [(None, None), (5, 30), (26, 26)])
    def test_roundtrip_all_modes(self, neighbors):
        modes = list(H265_PROFILE.all_modes)
        enc = BinaryEncoder()
        ctx = CodecContexts()
        for mode in modes:
            encode_intra_mode(enc, ctx, mode, *neighbors, H265_PROFILE.all_modes)
        dec = BinaryDecoder(enc.finish())
        ctx2 = CodecContexts()
        decoded = [
            decode_intra_mode(dec, ctx2, *neighbors, H265_PROFILE.all_modes)
            for _ in modes
        ]
        assert decoded == modes

    def test_mpm_hit_is_cheap(self):
        enc = BinaryEncoder()
        ctx = CodecContexts()
        for _ in range(1000):
            encode_intra_mode(enc, ctx, 26, 26, 26, H265_PROFILE.all_modes)
        # Repeating the most probable mode costs well under 1 bit.
        assert len(enc.finish()) * 8 < 600


class TestMVCoding:
    def test_roundtrip(self):
        mvs = [(0, 0), (1, -1), (-7, 3), (15, -15), (0, 8)]
        enc = BinaryEncoder()
        ctx = CodecContexts()
        for mv in mvs:
            encode_mv(enc, ctx, mv)
        dec = BinaryDecoder(enc.finish())
        ctx2 = CodecContexts()
        assert [decode_mv(dec, ctx2) for _ in mvs] == mvs

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-64, max_value=64),
                st.integers(min_value=-64, max_value=64),
            ),
            max_size=20,
        )
    )
    def test_property_roundtrip(self, mvs):
        enc = BinaryEncoder()
        ctx = CodecContexts()
        for mv in mvs:
            encode_mv(enc, ctx, mv)
        dec = BinaryDecoder(enc.finish())
        ctx2 = CodecContexts()
        assert [decode_mv(dec, ctx2) for _ in mvs] == list(mvs)
