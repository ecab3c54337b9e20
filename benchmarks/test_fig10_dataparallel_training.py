"""Figure 10: data-parallel training with weight-gradient compression.

Pythia-160M (sim), 2 workers.  Configurations as in the paper:
uncompressed Adam; LLM.265 at 2.6 / 1.4 / 0.8 bits (no warm-up, no
optimizer change); 1-bit Adam and 1-bit LAMB (warm-up then sign bits,
avg 3.25); group-wise RTN at 4 and 2 bits.

Paper result: quality ranks LLM.265(2.6) > RTN(4) > LLM.265(1.4) >
LLM.265(0.8) ~ 1-bit LAMB > RTN(2, fails), with LLM.265(2.6) close to
uncompressed at a fraction of the bits.
"""

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.distributed import Channel, CodecCompressor, DataParallelTrainer, RTNCompressor
from repro.models.zoo import SPECS
from repro.nn.data import SyntheticCorpus
from repro.nn.optim import OneBitAdam, OneBitLAMB
from repro.nn.transformer import GPT

STEPS = scaled(50, 15)
WORKERS = 2


def _run(label, spec, corpus, channel=None, optimizer_factory=None):
    model = GPT(spec.config, seed=0)
    optimizer = optimizer_factory(model) if optimizer_factory else None
    trainer = DataParallelTrainer(
        model,
        num_workers=WORKERS,
        gradient_channel=Channel(channel) if channel else None,
        optimizer=optimizer,
        lr=3e-3,
    )
    history = trainer.train(corpus.batches(8, STEPS, seed=5), steps=STEPS)
    return {
        "label": label,
        "losses": [h.loss for h in history],
        "val_ppl": model.perplexity(corpus.sample(16, seed=902)),
        "bits": trainer.gradient_channel.average_bits_per_value,
    }


def test_fig10_dataparallel_training(run_once):
    def experiment():
        spec = SPECS["pythia-160m-sim"]
        corpus = SyntheticCorpus(spec.corpus)
        warmup = max(2, int(0.15 * STEPS))
        return [
            _run("uncompressed", spec, corpus),
            _run("LLM.265 (2.6b)", spec, corpus, channel=CodecCompressor(2.6)),
            _run("LLM.265 (1.4b)", spec, corpus, channel=CodecCompressor(1.4)),
            _run("LLM.265 (0.8b)", spec, corpus, channel=CodecCompressor(0.8)),
            _run(
                "1-bit Adam",
                spec,
                corpus,
                optimizer_factory=lambda m: OneBitAdam(
                    m.parameters(), num_workers=WORKERS, lr=3e-3, warmup_steps=warmup
                ),
            ),
            _run(
                "1-bit LAMB",
                spec,
                corpus,
                optimizer_factory=lambda m: OneBitLAMB(
                    m.parameters(), num_workers=WORKERS, lr=3e-3, warmup_steps=warmup
                ),
            ),
            _run("RTN 4-bit", spec, corpus, channel=RTNCompressor(4, group_size=128)),
            _run("RTN 2-bit", spec, corpus, channel=RTNCompressor(2, group_size=128)),
        ]

    runs = run_once(experiment)
    rows = [
        (
            r["label"],
            f"{r['bits']:.2f}",
            f"{r['losses'][0]:.3f}",
            f"{np.mean(r['losses'][-5:]):.3f}",
            f"{r['val_ppl']:.2f}",
        )
        for r in runs
    ]
    print_table(
        f"Figure 10: data-parallel training ({STEPS} steps, {WORKERS} workers)",
        ("config", "avg bits", "first loss", "final loss", "val ppl"),
        rows,
    )

    ppl = {r["label"]: r["val_ppl"] for r in runs}
    bits = {r["label"]: r["bits"] for r in runs}

    # LLM.265 at 2.6 bits lands close to uncompressed...
    assert ppl["LLM.265 (2.6b)"] <= ppl["uncompressed"] * 1.30
    # ...at a genuinely fractional budget, calibration/warm-up free.
    assert bits["LLM.265 (2.6b)"] <= 2.8
    # Lower budgets trade quality smoothly rather than collapsing.
    assert ppl["LLM.265 (1.4b)"] <= ppl["RTN 2-bit"]
    assert ppl["LLM.265 (0.8b)"] <= ppl["RTN 2-bit"] * 1.05
    # Paper's ranking: LLM.265(2.6) beats RTN(4)-ish; RTN(2) is the
    # weakest of the dense-quantization configs.
    assert ppl["LLM.265 (2.6b)"] <= ppl["RTN 4-bit"] * 1.10
    assert ppl["RTN 2-bit"] >= ppl["LLM.265 (2.6b)"]
    # 1-bit methods average ~3.25 bits because of the warm-up.
    assert 2.0 <= bits["1-bit Adam"] <= 4.5
