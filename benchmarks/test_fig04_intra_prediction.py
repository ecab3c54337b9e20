"""Figure 4: a weight block through the H.265 intra pipeline.

Shows the four panels as numbers: original block energy, prediction
quality, residual energy, and the sparsity of the quantized DCT
coefficients of that residual.
"""

import numpy as np

from bench_helpers import print_table

from repro.codec import intra
from repro.codec.quantizer import quantize
from repro.codec.transform import forward_dct2
from repro.models.synthetic_weights import weight_like
from repro.tensor.precision import quantize_to_uint8


def test_fig04_intra_prediction_anatomy(run_once):
    def experiment():
        weight = weight_like(64, 64, mean_strength=6.0, seed=1)
        frame = quantize_to_uint8(weight)[0].astype(np.float64)
        mask = np.zeros_like(frame, dtype=bool)
        mask[:16, :] = True  # context row above the target block
        y0, x0, n = 16, 16, 16
        top, left = intra.gather_references(frame, mask, y0, x0, n)
        block = frame[y0 : y0 + n, x0 : x0 + n]

        best = None
        for mode in range(intra.NUM_MODES):
            prediction = intra.predict(top, left, mode, n)
            energy = float(np.sum((block - prediction) ** 2))
            if best is None or energy < best[1]:
                best = (mode, energy, prediction)
        mode, residual_energy, prediction = best
        residual = block - prediction
        coeffs = forward_dct2(residual)
        levels = quantize(coeffs, qp=28)
        return block, mode, residual_energy, residual, levels

    block, mode, residual_energy, residual, levels = run_once(experiment)
    block_energy = float(np.sum((block - block.mean()) ** 2))
    sparsity = float(np.mean(levels == 0))
    rows = [
        ("(a) original block", f"{block_energy:.0f}", "-"),
        ("(b) intra prediction", f"mode {mode}", "-"),
        ("(c) residual", f"{residual_energy:.0f}",
         f"{100 * (1 - residual_energy / block_energy):.0f}% removed"),
        ("(d) quantized coefficients", f"{int(np.sum(levels != 0))} nonzero",
         f"{100 * sparsity:.0f}% zeros"),
    ]
    print_table(
        "Figure 4: intra prediction anatomy on a weight block",
        ("panel", "value", "note"),
        rows,
    )
    # Prediction removes most of the structured energy...
    assert residual_energy < 0.5 * block_energy
    # ...and the residual's coefficients are sparse and easy to code.
    assert sparsity > 0.5
