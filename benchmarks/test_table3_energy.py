"""Table 3: energy for communication vs compression.

Reproduces the table verbatim from the calibrated component catalog and
re-derives the paper's headline arithmetic: the three-in-one pair is
31.7x cheaper per bit than NCCL transfer, and a 5x compression ratio
yields a 4.32x end-to-end energy win.
"""

import pytest

from bench_helpers import print_table

from repro.hardware.components import CODEC_COMPONENTS
from repro.hardware.energy import (
    NCCL_PJ_PER_BIT,
    compression_energy_ratio,
    compression_vs_transfer_ratio,
)


def test_table3_energy(run_once):
    def experiment():
        rows = [("NCCL End to End", "-", "-", f"{NCCL_PJ_PER_BIT:.0f}")]
        for key in (
            "h264-enc",
            "h264-dec",
            "h265-enc",
            "h265-dec",
            "three-in-one-enc",
            "three-in-one-dec",
        ):
            component = CODEC_COMPONENTS[key]
            rows.append(
                (
                    component.name,
                    f"{component.power_w:.2f}",
                    f"{component.area_mm2:.2f}",
                    f"{component.energy_pj_per_bit:.1f}",
                )
            )
        return rows

    rows = run_once(experiment)
    print_table(
        "Table 3: power / area / energy-per-bit (100 Gb/s aggregates)",
        ("component", "power W", "area mm^2", "energy pJ/bit"),
        rows,
    )

    # Paper's verbatim values.
    assert CODEC_COMPONENTS["h264-enc"].energy_pj_per_bit == 167.8
    assert CODEC_COMPONENTS["h265-enc"].energy_pj_per_bit == 1707.5
    assert CODEC_COMPONENTS["three-in-one-enc"].energy_pj_per_bit == 97.8
    assert CODEC_COMPONENTS["three-in-one-dec"].energy_pj_per_bit == 63.5
    # The three-in-one codec is cheaper than every H.264/H.265 block.
    three = CODEC_COMPONENTS["three-in-one-enc"]
    assert three.power_w < CODEC_COMPONENTS["h264-enc"].power_w
    assert three.area_mm2 < CODEC_COMPONENTS["h264-enc"].area_mm2

    # Section 7.3 arithmetic.
    assert compression_vs_transfer_ratio("three-in-one") == pytest.approx(31.7, abs=0.1)
    assert compression_energy_ratio(5.0) == pytest.approx(4.32, abs=0.01)
