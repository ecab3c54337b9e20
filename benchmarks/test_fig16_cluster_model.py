"""Figure 16: cluster-level impact of communication compression.

(a) Pareto frontiers of area budget vs normalized training performance
for uncompressed / NVENC / three-in-one scenarios over ~2000 hardware
configurations.  (b) energy-efficiency gain of compression as the model
scales.

Paper result: compression dominates the frontier (1.7x at 50k mm^2 in
the paper's calibration) and the energy win grows with model size.

Known divergence (documented in EXPERIMENTS.md): under our model the
NVENC scenario falls back to raw transmission on links faster than its
1100 MB/s engine, so its frontier ties the uncompressed one instead of
sitting between the curves.
"""

import numpy as np
import pytest

from bench_helpers import print_table

from repro.hardware.cluster import (
    NVENC_OPTION,
    THREE_IN_ONE_OPTION,
    UNCOMPRESSED,
    Workload,
    energy_efficiency_vs_model_size,
    pareto_frontier,
    performance_at_budget,
    sweep,
)

BUDGETS = (20_000, 50_000, 100_000, 200_000)


def test_fig16a_pareto_frontiers(run_once):
    def experiment():
        workload = Workload()
        frontiers = {}
        config_count = 0
        for option in (UNCOMPRESSED, NVENC_OPTION, THREE_IN_ONE_OPTION):
            points = sweep(workload, option)
            config_count += len(points)
            frontiers[option.name] = pareto_frontier(points)
        return frontiers, config_count

    frontiers, config_count = run_once(experiment)
    rows = []
    table = {}
    for budget in BUDGETS:
        row = [f"{budget:,}"]
        for name, frontier in frontiers.items():
            point = performance_at_budget(frontier, budget)
            table[(name, budget)] = point.tokens_per_s if point else 0.0
            row.append(f"{point.tokens_per_s:,.0f}" if point else "-")
        rows.append(tuple(row))
    print_table(
        f"Figure 16(a): tokens/s at area budget ({config_count} configs swept)",
        ("budget mm^2", *frontiers.keys()),
        rows,
    )

    assert config_count >= 500  # the paper sweeps >2000; we cover the space
    for budget in BUDGETS:
        base = table[("uncompressed", budget)]
        ours = table[("three-in-one", budget)]
        # Compression never loses and wins visibly at large budgets.
        assert ours >= base
    small_gain = table[("three-in-one", BUDGETS[0])] / table[("uncompressed", BUDGETS[0])]
    large_gain = table[("three-in-one", BUDGETS[-1])] / table[("uncompressed", BUDGETS[-1])]
    assert large_gain > small_gain
    assert large_gain > 1.15


def test_fig16b_energy_vs_model_size(run_once):
    sizes = (1e9, 7e9, 70e9, 175e9, 700e9)
    results = run_once(energy_efficiency_vs_model_size, sizes, THREE_IN_ONE_OPTION)
    rows = [
        (
            f"{params / 1e9:.0f}B",
            f"{entry['gain']:.2f}x",
            f"{entry['comm_fraction_uncompressed']:.2f}",
            f"{entry['comm_fraction_compressed']:.2f}",
        )
        for params, entry in results.items()
    ]
    print_table(
        "Figure 16(b): energy-efficiency gain of compression vs model size",
        ("model", "tokens/J gain", "comm frac (raw)", "comm frac (codec)"),
        rows,
    )

    gains = [entry["gain"] for entry in results.values()]
    # Compression always helps and helps more at scale.
    assert all(g > 1.0 for g in gains)
    assert gains[-1] > gains[0]
    # Communication's share of time grows with the model...
    fracs = [entry["comm_fraction_uncompressed"] for entry in results.values()]
    assert fracs[-1] > fracs[0]
    # ...and compression shrinks it at every size.
    for entry in results.values():
        assert entry["comm_fraction_compressed"] < entry["comm_fraction_uncompressed"]
