"""Figure 11: downstream quality of models trained with compressed gradients.

Takes the Figure 10 training setups (uncompressed vs LLM.265 at 2.6 and
1.4 bits) and evaluates the resulting checkpoints on the commonsense
suites.  Paper result: LLM.265(1.4b) keeps >=95.2% and LLM.265(2.6b)
>=96.6% of the uncompressed model's accuracy.
"""

import numpy as np
import pytest

from bench_helpers import print_table, scaled

from repro.distributed import Channel, CodecCompressor, DataParallelTrainer
from repro.evals import COMMONSENSE_SUITE, build_suite
from repro.evals.harness import average_accuracy, evaluate_suite
from repro.models.zoo import SPECS
from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPT

STEPS = scaled(60, 15)


def _train(spec, corpus, compressor):
    model = GPT(spec.config, seed=0)
    trainer = DataParallelTrainer(
        model,
        num_workers=2,
        gradient_channel=Channel(compressor) if compressor else None,
        lr=3e-3,
    )
    trainer.train(corpus.batches(8, STEPS, seed=6), steps=STEPS)
    return model


def test_fig11_trained_model_quality(run_once):
    def experiment():
        spec = SPECS["pythia-160m-sim"]
        corpus = SyntheticCorpus(spec.corpus)
        tasks = build_suite(corpus, COMMONSENSE_SUITE[:4], num_items=scaled(25, 10))
        configs = {
            "uncompressed": None,
            "LLM.265 (2.6b)": CodecCompressor(2.6),
            "LLM.265 (1.4b)": CodecCompressor(1.4),
        }
        results = {}
        for label, compressor in configs.items():
            model = _train(spec, corpus, compressor)
            scores = evaluate_suite(model, tasks)
            results[label] = scores
        return results

    results = run_once(experiment)
    task_names = list(next(iter(results.values())).keys())
    rows = [
        (label, *(f"{scores[t]:.3f}" for t in task_names),
         f"{average_accuracy(scores):.3f}")
        for label, scores in results.items()
    ]
    print_table(
        "Figure 11: task accuracy of models trained with compressed gradients",
        ("config", *task_names, "avg"),
        rows,
    )

    base = average_accuracy(results["uncompressed"])
    # Paper: >=96.6% retention at 2.6 bits, >=95.2% at 1.4 bits.  Our
    # tiny runs are noisier, so assert a slightly looser floor.
    assert average_accuracy(results["LLM.265 (2.6b)"]) >= 0.90 * base
    assert average_accuracy(results["LLM.265 (1.4b)"]) >= 0.88 * base


def test_fig11_models_beat_chance(run_once):
    def experiment():
        spec = SPECS["pythia-160m-sim"]
        corpus = SyntheticCorpus(spec.corpus)
        tasks = build_suite(corpus, COMMONSENSE_SUITE[:2], num_items=scaled(20, 8))
        model = _train(spec, corpus, CodecCompressor(2.6))
        return evaluate_suite(model, tasks), tasks

    scores, tasks = run_once(experiment)
    for name, accuracy in scores.items():
        assert accuracy > tasks[name].chance_accuracy
