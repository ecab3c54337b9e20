"""Tests for DCT transform coding and scan order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.codec.transform import (
    SUPPORTED_SIZES,
    dct_matrix,
    forward_dct2,
    forward_dct2_batch,
    inverse_dct2,
    inverse_dct2_batch,
    zigzag_order,
    zigzag_scan,
    zigzag_unscan,
)


class TestDCT:
    @pytest.mark.parametrize("n", SUPPORTED_SIZES)
    def test_basis_is_orthonormal(self, n):
        basis = dct_matrix(n)
        assert np.allclose(basis @ basis.T, np.eye(n), atol=1e-10)

    def test_unsupported_size_rejected(self):
        with pytest.raises(ValueError):
            dct_matrix(5)

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n)
        block = rng.normal(0, 50, (n, n))
        assert np.allclose(inverse_dct2(forward_dct2(block)), block, atol=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            forward_dct2(np.zeros((4, 8)))
        with pytest.raises(ValueError):
            inverse_dct2(np.zeros((4, 8)))

    def test_constant_block_is_pure_dc(self):
        block = np.full((8, 8), 17.0)
        coeffs = forward_dct2(block)
        assert coeffs[0, 0] == pytest.approx(17.0 * 8)
        rest = coeffs.copy()
        rest[0, 0] = 0.0
        assert np.allclose(rest, 0.0, atol=1e-10)

    def test_energy_preservation_parseval(self):
        rng = np.random.default_rng(3)
        block = rng.normal(0, 10, (16, 16))
        coeffs = forward_dct2(block)
        assert np.sum(block**2) == pytest.approx(np.sum(coeffs**2), rel=1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        blocks = rng.normal(0, 10, (6, 8, 8))
        batched = forward_dct2_batch(blocks)
        for i in range(6):
            assert np.allclose(batched[i], forward_dct2(blocks[i]), atol=1e-10)
        assert np.allclose(inverse_dct2_batch(batched), blocks, atol=1e-8)

    def test_outlier_energy_is_spread(self):
        """The Figure 3 effect: one huge outlier becomes bounded coefficients."""
        block = np.zeros((8, 8))
        block[3, 4] = 128.0
        coeffs = forward_dct2(block)
        assert np.max(np.abs(coeffs)) < 128.0 / 3
        assert np.sum(coeffs**2) == pytest.approx(128.0**2, rel=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        arrays(
            np.float64,
            (8, 8),
            elements=st.floats(min_value=-300, max_value=300, allow_nan=False),
        )
    )
    def test_property_roundtrip(self, block):
        assert np.allclose(inverse_dct2(forward_dct2(block)), block, atol=1e-6)


class TestZigzag:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_order_is_permutation(self, n):
        order = zigzag_order(n)
        assert sorted(order.tolist()) == list(range(n * n))

    def test_order_visits_low_frequencies_first(self):
        order = zigzag_order(8)
        # First three scan positions: DC, then the two frequency-1 coeffs.
        assert order[0] == 0
        assert set(order[1:3].tolist()) == {1, 8}

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_scan_unscan_roundtrip(self, n):
        rng = np.random.default_rng(n)
        block = rng.integers(-50, 50, (n, n))
        assert np.array_equal(zigzag_unscan(zigzag_scan(block), n), block)

    def test_scan_orders_by_diagonal(self):
        n = 4
        order = zigzag_order(n)
        diagonals = [(idx // n) + (idx % n) for idx in order]
        assert diagonals == sorted(diagonals)

    @pytest.mark.parametrize("n", [1, 3, 4, 8, 16, 32, 64])
    def test_order_is_the_sorted_definition(self, n):
        # The definition as a plain sort, kept as the reference for the
        # vectorised form: by anti-diagonal, then by column on even
        # diagonals and by row on odd ones.
        cells = sorted(
            ((r, c) for r in range(n) for c in range(n)),
            key=lambda rc: (rc[0] + rc[1], rc[1] if (rc[0] + rc[1]) % 2 == 0 else rc[0]),
        )
        order = zigzag_order(n)
        assert order.dtype == np.int64 and order.tolist() == [r * n + c for r, c in cells]
