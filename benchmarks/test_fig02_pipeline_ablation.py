"""Figure 2(b): bits/value as the encoding pipeline activates stage by stage.

Paper result: 8.0 raw -> ~7.6 with entropy coding -> ~2.6 with the full
intra pipeline under an MSE budget, and enabling inter-frame prediction
does *not* reduce the rate.
"""

import numpy as np

from bench_helpers import print_table, scaled

from repro.codec.pipeline import PipelineStage, run_pipeline_ablation
from repro.models.synthetic_weights import weight_like
from repro.tensor.precision import quantize_to_uint8


def _frames():
    size = scaled(128, 64)
    return [
        quantize_to_uint8(weight_like(size, size, mean_strength=6.0, seed=s))[0]
        for s in range(3)
    ]


def test_fig02_pipeline_ablation(run_once):
    results = run_once(run_pipeline_ablation, _frames(), 4.0)
    rows = [
        (r.stage.value, r.stage.name, f"{r.bits_per_value:.2f}", f"{r.pixel_mse:.2f}")
        for r in results
    ]
    print_table(
        "Figure 2(b): incremental pipeline activation (MSE budget 4.0)",
        ("step", "stage", "bits/value", "pixel MSE"),
        rows,
    )

    bits = {r.stage: r.bits_per_value for r in results}
    assert bits[PipelineStage.QUANTIZE_ONLY] == 8.0
    assert bits[PipelineStage.ENTROPY] < 8.0  # paper: -0.4 bits
    assert bits[PipelineStage.TRANSFORM] < bits[PipelineStage.ENTROPY]
    assert bits[PipelineStage.PARTITION] <= bits[PipelineStage.TRANSFORM]
    assert bits[PipelineStage.INTRA] <= bits[PipelineStage.PARTITION] + 0.05
    # Full intra pipeline lands in the paper's 2-3.5 bit range.
    assert bits[PipelineStage.INTRA] < 3.5
    # Inter-frame prediction gives no benefit on tensors.
    assert bits[PipelineStage.INTER] >= bits[PipelineStage.INTRA] - 0.05
