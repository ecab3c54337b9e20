"""Shared machinery for the per-figure/table benchmarks.

Sizes are laptop-scale; set ``REPRO_BENCH_FAST=1`` to shrink them
further (:func:`scaled`).  Every benchmark prints its rows through
:func:`print_table`.  Also the "apply method X to every weight matrix,
then evaluate" loop that Figures 5-8 and Table 1 all share.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.evals.harness import average_accuracy, evaluate_suite
from repro.models.zoo import load_model
from repro.quant.awq import awq_quantize
from repro.quant.calibrate import collect_linear_inputs
from repro.quant.gptq import gptq_quantize
from repro.quant.rtn import rtn_roundtrip
from repro.tensor.allocation import search_allocation
from repro.tensor.codec import TensorCodec


def fast_mode() -> bool:
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


def scaled(normal: int, fast: int) -> int:
    return fast if fast_mode() else normal


def print_table(title: str, header, rows) -> None:
    """Uniform fixed-width table output for every benchmark."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(r[i])) for r in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fresh(model_name: str):
    """A fresh copy of a cached zoo model plus its corpus."""
    return load_model(model_name)


def calibration_inputs(model, corpus, batches: int = 2) -> Dict[str, np.ndarray]:
    """GPTQ/AWQ calibration activations from the synthetic corpus."""
    data = [corpus.sample(4, seed=1000 + i) for i in range(batches)]
    return collect_linear_inputs(model, data)


def apply_codec(
    model,
    avg_bits: float,
    variable: bool = True,
    tile: int = 128,
    k_grid: Sequence[float] = (-0.05, 0.0, 0.05),
) -> float:
    """Compress every weight matrix with LLM.265; returns achieved bits."""
    # Coarser QP search: halves encode count for a <0.1-bit rate slack.
    codec = TensorCodec(tile=tile, qp_search_precision=0.5)
    names = sorted(model.weight_matrices())
    layers = [model.weight_matrices()[n] for n in names]
    if variable:
        allocation = search_allocation(codec, layers, avg_bits, k_grid=k_grid)
        compressed = allocation.compressed
        achieved = allocation.average_bits
    else:
        compressed = [codec.encode(w, bits_per_value=avg_bits) for w in layers]
        total_bits = sum(c.nbytes * 8 for c in compressed)
        achieved = total_bits / sum(c.num_values for c in compressed)
    restored = {n: codec.decode(c) for n, c in zip(names, compressed)}
    model.apply_weight_transform(lambda name, w: restored[name])
    return achieved


def apply_rtn(model, bits: int, group_size=None) -> float:
    """RTN-quantize every weight matrix; returns effective bits/value."""
    model.apply_weight_transform(
        lambda name, w: rtn_roundtrip(w, bits, symmetric=True, group_size=group_size)
    )
    overhead = 16.0 / group_size if group_size else 0.0
    return bits + overhead


def apply_gptq(model, calib: Dict[str, np.ndarray], bits: int, group_size=None) -> float:
    """GPTQ-quantize every weight matrix with calibration inputs."""

    def transform(name: str, w: np.ndarray) -> np.ndarray:
        inputs = calib.get(name)
        if inputs is None:
            return rtn_roundtrip(w, bits, symmetric=True, group_size=group_size)
        return gptq_quantize(w, inputs, bits=bits, group_size=group_size)

    model.apply_weight_transform(transform)
    return bits + (16.0 / group_size if group_size else 0.0)


def apply_awq(model, calib: Dict[str, np.ndarray], bits: int, group_size=None) -> float:
    """AWQ-quantize every weight matrix with calibration inputs."""

    def transform(name: str, w: np.ndarray) -> np.ndarray:
        inputs = calib.get(name)
        if inputs is None:
            return rtn_roundtrip(w, bits, symmetric=True, group_size=group_size)
        return awq_quantize(w, inputs, bits=bits, group_size=group_size).weight

    model.apply_weight_transform(transform)
    return bits + (16.0 / group_size if group_size else 0.0)


def eval_accuracy(model, tasks) -> Dict[str, float]:
    """Per-task accuracy plus the unweighted average under key 'avg'."""
    results = evaluate_suite(model, tasks)
    results["avg"] = average_accuracy(results)
    return results
