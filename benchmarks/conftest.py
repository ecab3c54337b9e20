"""Shared fixtures for the per-figure/table benchmarks.

Every benchmark regenerates one of the paper's tables or figures and
prints the rows it reports; the helpers they share (``scaled``,
``print_table``) are in ``bench_helpers.py``.  Only fixtures live here:
``benchmarks/stack/tests`` has a ``conftest`` module of its own, and
both are collected in one run.  Heavy artefacts (the trained stand-in
models) are cached under ``.repro_cache``.
"""

from __future__ import annotations

from typing import Callable

import pytest


@pytest.fixture()
def run_once(benchmark):
    """Run the expensive experiment exactly once under pytest-benchmark."""

    def runner(fn: Callable, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner


@pytest.fixture(scope="session")
def llama2_sim():
    from repro.models.zoo import load_model

    return load_model("llama2-7b-sim")


@pytest.fixture(scope="session")
def llama3_sim():
    from repro.models.zoo import load_model

    return load_model("llama3-70b-sim")


@pytest.fixture(scope="session")
def pythia160_spec():
    from repro.models.zoo import SPECS

    return SPECS["pythia-160m-sim"]


@pytest.fixture(scope="session")
def pythia14_spec():
    from repro.models.zoo import SPECS

    return SPECS["pythia-1.4b-sim"]
