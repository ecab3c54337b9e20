"""Figure 7: LLM.265 on non-LLM models and tasks.

Four proxies for the paper's panels: (a) sentiment analysis,
(b) embedding retrieval, (c) VQA, (d) image classification.  At each
bit budget LLM.265 should match or beat RTN and NF4 on accuracy.
"""

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.evals.extra_tasks import (
    image_classification_task,
    retrieval_task,
    sentiment_task,
    vqa_task,
)
from repro.quant.nf4 import nf_quantize
from repro.quant.rtn import rtn_roundtrip
from repro.tensor.codec import TensorCodec

BITS = 3.0


def _compress_with(bundle_factory, method):
    bundle = bundle_factory()
    if method == "fp16":
        pass
    elif method == "llm265":
        codec = TensorCodec(tile=128)
        names = sorted(bundle.model.weight_matrices())
        restored = {
            n: codec.decode(
                codec.encode(bundle.model.weight_matrices()[n], bits_per_value=BITS)
            )
            for n in names
        }
        bundle.model.apply_weight_transform(lambda n, w: restored[n])
    elif method == "rtn":
        bundle.model.apply_weight_transform(
            lambda n, w: rtn_roundtrip(w, int(BITS), symmetric=True, group_size=128)
        )
    elif method == "nf":
        bundle.model.apply_weight_transform(lambda n, w: nf_quantize(w, int(BITS)))
    else:
        raise ValueError(method)
    return bundle.evaluate()


TASKS = {
    "sentiment (T5 proxy)": sentiment_task,
    "retrieval (T5 proxy)": retrieval_task,
    "vqa (Qwen-VL proxy)": vqa_task,
    "imagenet (ViT proxy)": image_classification_task,
}


def test_fig07_other_tasks(run_once):
    def experiment():
        table = {}
        for task_name, factory in TASKS.items():
            table[task_name] = {
                method: _compress_with(factory, method)
                for method in ("fp16", "llm265", "rtn", "nf")
            }
        return table

    table = run_once(experiment)
    rows = [
        (
            task,
            f"{scores['fp16']:.3f}",
            f"{scores['llm265']:.3f}",
            f"{scores['rtn']:.3f}",
            f"{scores['nf']:.3f}",
        )
        for task, scores in table.items()
    ]
    print_table(
        f"Figure 7: four additional tasks at {BITS:.0f}-bit weights",
        ("task", "fp16", "LLM.265", "RTN-128G", f"NF{int(BITS)}"),
        rows,
    )

    for task, scores in table.items():
        # LLM.265 keeps most of the uncompressed accuracy...
        assert scores["llm265"] >= scores["fp16"] - 0.15, task
        # ...and is at least on par with the quantization baselines.
        assert scores["llm265"] >= min(scores["rtn"], scores["nf"]) - 0.05, task
