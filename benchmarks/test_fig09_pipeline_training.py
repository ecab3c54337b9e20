"""Figure 9: pipeline-parallel training with compressed communication.

Pythia-1.4B (sim) across 4 stages.  Configurations, as in the paper:
uncompressed; LLM.265(A) = 3.5-bit activations; LLM.265(A)+GQ = naive
8-bit RTN on activation gradients; LLM.265(A+G) = residual-compensated
gradient compression with the two-stage schedule.

Paper result: activation compression cuts traffic 78% without hurting
convergence (it even helps); naive gradient quantization diverges from
the uncompressed curve; residual compensation fixes it at ~10.1 bits
average.
"""

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.distributed import Channel, CodecCompressor, PipelineParallelTrainer, ResidualCompressor, RTNCompressor
from repro.models.zoo import SPECS
from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPT
from repro.tensor.codec import TensorCodec
from repro.tensor.residual import ResidualGradientCompressor

STEPS = scaled(40, 12)


def _train(label, activation, gradient, spec, corpus, steps=STEPS):
    model = GPT(spec.config, seed=0)
    trainer = PipelineParallelTrainer(
        model,
        num_stages=4,
        activation_channel=Channel(activation),
        gradient_channel=Channel(gradient),
        micro_batches=2,
    )
    history = trainer.train(corpus.batches(8, steps, seed=3), steps=steps)
    val_ppl = model.perplexity(corpus.sample(16, seed=901))
    return {
        "label": label,
        "losses": [h.loss for h in history],
        "val_ppl": val_ppl,
        "act_bits": trainer.activation_channel.average_bits_per_value,
        "grad_bits": trainer.gradient_channel.average_bits_per_value,
    }


def test_fig09_pipeline_training(run_once):
    def experiment():
        spec = SPECS["pythia-1.4b-sim"]
        corpus = SyntheticCorpus(spec.corpus)
        codec = TensorCodec(tile=128)
        return [
            _train("uncompressed", None, None, spec, corpus),
            _train("LLM.265(A)", CodecCompressor(3.5), None, spec, corpus),
            _train(
                "LLM.265(A)+GQ",
                CodecCompressor(3.5),
                RTNCompressor(8, group_size=128),
                spec,
                corpus,
            ),
            _train(
                "LLM.265(A+G)",
                CodecCompressor(3.5),
                ResidualCompressor(
                    ResidualGradientCompressor(codec, switch_step=STEPS // 2)
                ),
                spec,
                corpus,
            ),
        ]

    runs = run_once(experiment)
    rows = [
        (
            r["label"],
            f"{r['losses'][0]:.3f}",
            f"{np.mean(r['losses'][-5:]):.3f}",
            f"{r['val_ppl']:.2f}",
            f"{r['act_bits']:.2f}",
            f"{r['grad_bits']:.2f}",
        )
        for r in runs
    ]
    print_table(
        f"Figure 9: pipeline-parallel training ({STEPS} steps, 4 stages)",
        ("config", "first loss", "final loss", "val ppl", "act bits", "grad bits"),
        rows,
    )

    by_label = {r["label"]: r for r in runs}
    base = by_label["uncompressed"]
    act = by_label["LLM.265(A)"]
    residual = by_label["LLM.265(A+G)"]

    # Everyone learns.
    for r in runs:
        assert np.mean(r["losses"][-5:]) < r["losses"][0] - 0.3, r["label"]
    # Activation compression cuts traffic ~78% (16 -> 3.5 bits)...
    assert act["act_bits"] < 4.0
    # ...without hurting convergence materially (paper: it even helps).
    assert np.mean(act["losses"][-5:]) <= np.mean(base["losses"][-5:]) + 0.25
    # Residual-compensated gradients stay close to uncompressed quality
    # at well under 16 bits.
    assert residual["grad_bits"] < 13.0
    assert residual["val_ppl"] <= base["val_ppl"] * 1.4
