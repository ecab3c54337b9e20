"""Section 4.2 memory arithmetic: LLaMA-3-70B on four 8 GB devices.

Paper numbers: weights 5.5x smaller (~25 GB), a 128k KV cache shrinks
from 40 GB to 7.2 GB at 2.9 bits, and a 4-stage pipeline needs ~6.3 GB
of weights + ~1.8 GB of cache per device ~= 8 GB.
"""

import pytest

from bench_helpers import print_table

from repro.analysis.memory import (
    LLAMA3_70B,
    kv_cache_bytes,
    paper_deployment_table,
    per_device_memory,
    weight_bytes,
)


def test_sec4_deployment_table(run_once):
    table = run_once(paper_deployment_table)
    rows = [(key, f"{value:.1f}") for key, value in table.items()]
    print_table(
        "Section 4.2: LLaMA-3-70B deployment memory (GB)",
        ("quantity", "GB"),
        rows,
    )

    # Weights: 16 -> 2.9 bits is the paper's 5.5x.
    assert table["weights_fp16_gb"] / table["weights_compressed_gb"] == pytest.approx(
        16.0 / 2.9, rel=1e-6
    )
    assert table["weights_compressed_gb"] == pytest.approx(25.6, abs=1.0)
    # KV cache at 128k: ~40 GB FP16 -> ~7.2-7.8 GB at 2.9 bits.
    assert table["kv_fp16_gb"] == pytest.approx(40.0, abs=4.0)
    assert table["kv_compressed_gb"] == pytest.approx(7.2, abs=0.8)
    # Per device: about 8 GB.
    assert table["per_device_gb"] == pytest.approx(8.0, abs=0.6)


def test_sec4_component_formulas(run_once):
    def experiment():
        return (
            weight_bytes(LLAMA3_70B, 16.0),
            kv_cache_bytes(LLAMA3_70B, 128 * 1024, 16.0),
            per_device_memory(LLAMA3_70B, 4, 128 * 1024, 2.9, 2.9),
        )

    weights, cache, per_device = run_once(experiment)
    assert weights == pytest.approx(141.2e9, rel=0.01)
    # Grouped-query attention: 8 KV heads of 128 dims over 80 layers.
    assert cache == pytest.approx(
        2 * 80 * 8 * 128 * 128 * 1024 * 2, rel=1e-9
    )
    assert per_device["weights_bytes"] == pytest.approx(weights * 2.9 / 16 / 4)
    with pytest.raises(ValueError):
        per_device_memory(LLAMA3_70B, 0, 1, 2.9, 2.9)
    with pytest.raises(ValueError):
        weight_bytes(LLAMA3_70B, 0)
