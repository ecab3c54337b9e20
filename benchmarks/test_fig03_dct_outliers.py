"""Figure 3: transform coding mitigates outliers.

(a)->(b): a normal distribution with tail outliers loses its outliers
after the DCT.  (c)->(d): a single value of 128 is amortised across the
whole block's coefficients.
"""

import numpy as np

from bench_helpers import print_table

from repro.codec.transform import forward_dct2
from repro.quant.rotation import incoherence


def test_fig03_distribution_outliers(run_once):
    rng = np.random.default_rng(0)

    def experiment():
        values = rng.normal(0, 1, (64, 64))
        mask = rng.random((64, 64)) < 0.003
        values[mask] = rng.normal(0, 25, int(mask.sum()))  # tail outliers
        coeffs = forward_dct2(values)
        return values, coeffs

    values, coeffs = run_once(experiment)
    rows = [
        ("pixel domain (a)", f"{np.max(np.abs(values)):.1f}",
         f"{np.std(values):.2f}", f"{incoherence(values):.2f}"),
        ("DCT domain (b)", f"{np.max(np.abs(coeffs)):.1f}",
         f"{np.std(coeffs):.2f}", f"{incoherence(coeffs):.2f}"),
    ]
    print_table(
        "Figure 3(a-b): outlier mitigation by the DCT",
        ("domain", "max |value|", "std", "incoherence"),
        rows,
    )
    # The transform removes outliers: max/std collapses toward Gaussian.
    assert np.max(np.abs(coeffs)) < np.max(np.abs(values)) / 2
    assert incoherence(coeffs) < incoherence(values)
    # Energy is preserved exactly (orthonormal basis).
    assert np.allclose(np.sum(coeffs**2), np.sum(values**2))


def test_fig03_single_outlier_block(run_once):
    block = np.zeros((8, 8))
    block[3, 4] = 128.0
    coeffs = run_once(forward_dct2, block)
    rows = [
        ("pixel block (c)", "128.0", "1"),
        ("DCT block (d)", f"{np.max(np.abs(coeffs)):.1f}",
         str(int(np.sum(np.abs(coeffs) > 1e-9)))),
    ]
    print_table(
        "Figure 3(c-d): one 128-valued outlier spread across coefficients",
        ("domain", "max |value|", "values carrying energy"),
        rows,
    )
    assert np.max(np.abs(coeffs)) < 128.0 / 3
    assert np.sum(np.abs(coeffs) > 1e-9) > 32
