"""Evaluation driver: run suites, normalise accuracies, report tables."""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

import repro.telemetry as telemetry
from repro.evals.tasks import ZeroShotTask
from repro.nn.data import SyntheticCorpus
from repro.nn.transformer import GPT


def evaluate_suite(model: GPT, tasks: Mapping[str, ZeroShotTask]) -> Dict[str, float]:
    """Per-task accuracy (each task timed under an ``eval.task.<name>`` span)."""
    results: Dict[str, float] = {}
    for name, task in tasks.items():
        with telemetry.span(f"eval.task.{name}"):
            results[name] = task.evaluate(model)
    return results


def average_accuracy(results: Mapping[str, float]) -> float:
    """Unweighted mean accuracy across suites."""
    return float(np.mean(list(results.values()))) if results else 0.0


def average_normalized_accuracy(
    results: Mapping[str, float], baseline: Mapping[str, float]
) -> float:
    """Mean of per-task accuracy relative to the uncompressed model.

    This is the y-axis of Figures 6, 7 and 14(b): 1.0 means no
    degradation from compression.
    """
    ratios = []
    for name, accuracy in results.items():
        reference = baseline.get(name, 0.0)
        if reference > 0:
            ratios.append(accuracy / reference)
    return float(np.mean(ratios)) if ratios else 0.0


def evaluate_model(
    model: GPT,
    corpus: SyntheticCorpus,
    tasks: Mapping[str, ZeroShotTask],
    ppl_sequences: int = 32,
    ppl_seed: int = 4242,
) -> Dict[str, float]:
    """Accuracy per suite plus held-out perplexity (key ``perplexity``)."""
    results = evaluate_suite(model, tasks)
    held_out = corpus.sample(ppl_sequences, seed=ppl_seed)
    with telemetry.span("eval.perplexity"):
        results["perplexity"] = model.perplexity(held_out)
    return results


def compression_sweep(
    model_factory,
    transforms: Mapping[str, callable],
    tasks: Mapping[str, ZeroShotTask],
) -> Dict[str, Dict[str, float]]:
    """Evaluate a family of weight transforms on fresh model copies.

    ``model_factory()`` must return a fresh model; each transform is a
    ``(name, weight) -> new_weight`` callable applied via
    :meth:`GPT.apply_weight_transform`.
    """
    out: Dict[str, Dict[str, float]] = {}
    for label, transform in transforms.items():
        model = model_factory()
        if transform is not None:
            model.apply_weight_transform(transform)
        out[label] = evaluate_suite(model, tasks)
    return out
