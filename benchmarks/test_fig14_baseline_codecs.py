"""Figure 14: video codecs vs chained format+compressor baselines.

The baseline grid: convert tensors to {INT8, MXFP4, MXFP6, MXFP8}, then
compress the packed bytes with {Huffman, Deflate, LZ4, CABAC} -- eight
(2x4-style) "tensor codecs".  (a) plots gradient-compression error
against achieved bits; (b) plots model accuracy against bits.

Paper result: the three-in-one codec (same algorithm as LLM.265's
intra pipeline) needs fewer bits than every baseline at equal error,
and keeps higher accuracy at lower bitrates.
"""

import numpy as np
import pytest

from bench_helpers import eval_accuracy, fresh, print_table, scaled

from repro.codec.entropy.bytecoder import byte_arith_encode
from repro.codec.entropy.deflate import deflate_compress
from repro.codec.entropy.huffman import huffman_compress
from repro.codec.entropy.lz4 import lz4_compress
from repro.evals import COMMONSENSE_SUITE, build_suite
from repro.models.synthetic_weights import gradient_like
from repro.quant.mxfp import MXFP_FORMATS, mx_pack_bytes, mx_quantize
from repro.quant.rtn import rtn_quantize, rtn_dequantize
from repro.tensor.codec import TensorCodec

COMPRESSORS = {
    "huffman": huffman_compress,
    "deflate": deflate_compress,
    "lz4": lz4_compress,
    "cabac": byte_arith_encode,
}


def _format_variants(tensor: np.ndarray):
    """(restored, packed_bytes) per numeric format."""
    variants = {}
    q8 = rtn_quantize(tensor, 8, symmetric=False, group_size=tensor.size)
    variants["int8"] = (
        rtn_dequantize(q8),
        q8.codes.astype(np.uint8).tobytes(),
    )
    for name, fmt in MXFP_FORMATS.items():
        restored, _ = mx_quantize(tensor, fmt)
        variants[name] = (restored, mx_pack_bytes(tensor, fmt))
    return variants


def test_fig14a_gradient_error_vs_bits(run_once):
    def experiment():
        size = scaled(128, 64)
        grad = gradient_like(size, size, seed=9).astype(np.float64)
        baselines = []
        for fmt_name, (restored, packed) in _format_variants(grad).items():
            error = float(np.mean(np.abs(restored - grad)))
            for comp_name, compress in COMPRESSORS.items():
                bits = 8.0 * len(compress(packed)) / grad.size
                baselines.append((f"{fmt_name}+{comp_name}", bits, error))

        codec = TensorCodec(tile=256)
        ours = []
        for qp in (1, 4, 8, 16, 24, 32):
            compressed = codec.encode(grad, qp=qp)
            restored = codec.decode(compressed)
            ours.append(
                (
                    f"three-in-one qp{qp}",
                    compressed.bits_per_value,
                    float(np.mean(np.abs(restored - grad))),
                )
            )
        return baselines, ours

    baselines, ours = run_once(experiment)
    rows = [
        (name, f"{bits:.2f}", f"{err:.2e}") for name, bits, err in baselines + ours
    ]
    print_table(
        "Figure 14(a): gradient compression error vs bits/value",
        ("codec", "bits/value", "mean abs error"),
        rows,
    )

    # Dominance check: every lossy-format baseline is beaten outright
    # (fewer bits at no more error).  The int8 points sit on the same
    # 8-bit pre-quantization grid the codec itself uses, so there the
    # codec can only tie on error; require it to be within 10% on rate.
    for name, bits, err in baselines:
        if name.startswith("int8"):
            dominated = any(
                our_bits <= bits * 1.10 and our_err <= err * 1.02
                for _, our_bits, our_err in ours
            )
        else:
            dominated = any(
                our_bits <= bits + 1e-9 and our_err <= err * 1.001
                for _, our_bits, our_err in ours
            )
        assert dominated, f"{name} not dominated by the video codec"


def test_fig14b_accuracy_vs_bits(run_once):
    def experiment():
        model_name = "llama2-7b-sim"
        base_model, corpus = fresh(model_name)
        tasks = build_suite(corpus, COMMONSENSE_SUITE[:4], num_items=scaled(20, 8))
        baseline = eval_accuracy(base_model, tasks)["avg"]

        # Best practical baseline: MXFP4 + CABAC on every weight.
        mx_model, _ = fresh(model_name)
        total_bits = 0.0
        total_values = 0

        def mx_transform(name, w):
            nonlocal total_bits, total_values
            restored, _ = mx_quantize(w, MXFP_FORMATS["mxfp4"])
            packed = mx_pack_bytes(w, MXFP_FORMATS["mxfp4"])
            total_bits += 8.0 * len(byte_arith_encode(packed))
            total_values += w.size
            return restored

        mx_model.apply_weight_transform(mx_transform)
        mx_accuracy = eval_accuracy(mx_model, tasks)["avg"]
        mx_bits = total_bits / total_values

        codec_model, _ = fresh(model_name)
        codec = TensorCodec(tile=128)
        names = sorted(codec_model.weight_matrices())
        compressed = {
            n: codec.encode(codec_model.weight_matrices()[n], bits_per_value=3.0)
            for n in names
        }
        codec_bits = sum(c.nbytes * 8 for c in compressed.values()) / sum(
            c.num_values for c in compressed.values()
        )
        restored = {n: codec.decode(c) for n, c in compressed.items()}
        codec_model.apply_weight_transform(lambda n, w: restored[n])
        codec_accuracy = eval_accuracy(codec_model, tasks)["avg"]
        return baseline, (mx_bits, mx_accuracy), (codec_bits, codec_accuracy)

    baseline, mx, ours = run_once(experiment)
    rows = [
        ("fp16 baseline", "16.00", f"{baseline:.3f}"),
        ("mxfp4+cabac", f"{mx[0]:.2f}", f"{mx[1]:.3f}"),
        ("three-in-one (LLM.265)", f"{ours[0]:.2f}", f"{ours[1]:.3f}"),
    ]
    print_table(
        "Figure 14(b): weight-compression accuracy vs bits",
        ("codec", "bits/value", "avg accuracy"),
        rows,
    )
    # Fewer bits, equal-or-better accuracy.
    assert ours[0] < mx[0]
    assert ours[1] >= mx[1] - 0.05
