"""Figure 8: KV-cache and activation compression on LLaMA-3-70B (sim).

Grid of (KV bits, activation bits) configurations comparing RTN dynamic
quantization, rotation-based quantization (SpinQuant/QuaRot style), and
LLM.265.  Paper result: LLM.265 reaches 2.9-bit KV + 3.5-bit
activations with <2% accuracy drop and a small perplexity increase,
while 3-bit RTN KV quantization nearly destroys the model.
"""

import numpy as np
import pytest

from bench_helpers import fresh, print_table, scaled

from repro.evals import build_suite
from repro.evals.harness import evaluate_suite
from repro.evals.tasks import COMMONSENSE_SUITE
from repro.quant.kvcache import codec_kv_hook, rotation_kv_hook, rtn_kv_hook
from repro.quant.rotation import rotate_quantize
from repro.quant.rtn import rtn_roundtrip
from repro.tensor.codec import TensorCodec

MODEL = "llama3-70b-sim"


def _activation_hook(method: str, bits: float, codec=None):
    if method == "rtn":
        return lambda x: rtn_roundtrip(x, int(bits), symmetric=False, group_size=128)
    if method == "rotation":
        return lambda x: rotate_quantize(x, int(bits), group_size=128, symmetric=False)
    if method == "llm265":
        qp_cache = {}

        def hook(x):
            key = x.shape
            if key in qp_cache:
                compressed = codec.encode(x, qp=qp_cache[key])
            else:
                compressed = codec.encode(x, bits_per_value=bits)
                qp_cache[key] = compressed.qp
            return codec.decode(compressed)

        return hook
    raise ValueError(method)


def test_fig08_kv_and_activation_compression(run_once):
    def experiment():
        base_model, corpus = fresh(MODEL)
        specs = [s for s in COMMONSENSE_SUITE if s.name == "piqa-sim"]
        tasks = build_suite(corpus, specs, num_items=scaled(35, 12))
        held_out = corpus.sample(scaled(24, 8), seed=777)
        boundaries = [1, 3]  # 4-way pipeline split of 6 blocks

        def measure(label, kv_hook=None, act_hook=None):
            model, _ = fresh(MODEL)
            if kv_hook is not None:
                model.set_kv_hook(kv_hook)
            if act_hook is not None:
                model.activation_hooks = {b: act_hook for b in boundaries}
            scores = evaluate_suite(model, tasks)
            ppl = model.perplexity(held_out)
            return label, ppl, scores["piqa-sim"]

        codec = TensorCodec(tile=128)
        results = [
            measure("BF16 baseline"),
            measure("RTN KV3", kv_hook=rtn_kv_hook(3)),
            measure("RTN KV4", kv_hook=rtn_kv_hook(4)),
            measure("RTN A4", act_hook=_activation_hook("rtn", 4)),
            measure("Rotation KV3", kv_hook=rotation_kv_hook(3)),
            measure("Rotation KV3+A4",
                    kv_hook=rotation_kv_hook(3),
                    act_hook=_activation_hook("rotation", 4)),
            measure("LLM.265 KV2.9", kv_hook=codec_kv_hook(codec, 2.9)),
            measure("LLM.265 A3.5", act_hook=_activation_hook("llm265", 3.5, codec)),
            measure("LLM.265 KV2.9+A3.5",
                    kv_hook=codec_kv_hook(codec, 2.9),
                    act_hook=_activation_hook("llm265", 3.5, codec)),
        ]
        return results

    results = run_once(experiment)
    rows = [(label, f"{ppl:.2f}", f"{acc:.3f}") for label, ppl, acc in results]
    print_table(
        "Figure 8: KV cache + activation compression (LLaMA-3-70B sim)",
        ("configuration", "perplexity", "PIQA-sim acc"),
        rows,
    )

    by_label = {label: (ppl, acc) for label, ppl, acc in results}
    base_ppl, base_acc = by_label["BF16 baseline"]
    ours_ppl, ours_acc = by_label["LLM.265 KV2.9+A3.5"]
    rtn3_ppl, rtn3_acc = by_label["RTN KV3"]

    # LLM.265 keeps accuracy within a couple points of the baseline...
    assert ours_acc >= base_acc - 0.08
    # ...with a bounded perplexity increase (paper: +7%)...
    assert ours_ppl <= base_ppl * 1.35
    # ...while plain 3-bit KV RTN hurts much more than LLM.265 at fewer bits.
    assert ours_ppl <= rtn3_ppl
    assert ours_acc >= rtn3_acc - 0.02
    # Activation-only LLM.265 beats activation-only RTN (paper: +5% vs +13%).
    assert by_label["LLM.265 A3.5"][0] <= by_label["RTN A4"][0] * 1.15
