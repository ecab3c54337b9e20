"""Figure 12: die-area comparison of GPUs, CPUs, NICs, and video codecs.

Paper result: an H.264 enc+dec pair at 100 Gb/s occupies < 2 mm^2 --
~199x smaller than the 7 nm-normalised RTX 3090 and ~88x smaller than a
CX5 NIC -- and the encoder's area is dominated by inter prediction plus
the frame buffer, the blocks tensors do not need.
"""

import pytest

from bench_helpers import print_table

from repro.hardware.components import (
    CODEC_COMPONENTS,
    DEVICES,
    ENCODER_AREA_BREAKDOWN,
    area_ratio,
    intra_only_area_fraction,
)


def test_fig12_device_areas(run_once):
    def experiment():
        rows = []
        for key in ("rtx3090-native", "rtx3090-7nm", "server-cpu", "cx5-nic"):
            device = DEVICES[key]
            rows.append(
                (
                    device.name,
                    f"{device.area_mm2:.1f}",
                    f"{device.native_node_nm} nm",
                    "assumed" if device.assumed else "paper",
                )
            )
        for key in ("h264-enc", "h264-dec", "h265-enc", "h265-dec"):
            component = CODEC_COMPONENTS[key]
            rows.append((component.name, f"{component.area_mm2:.2f}", "7 nm", "paper"))
        return rows

    rows = run_once(experiment)
    print_table(
        "Figure 12: die areas (100 Gb/s codec aggregates)",
        ("device", "area mm^2", "node", "source"),
        rows,
    )

    pair = CODEC_COMPONENTS["h264-enc"].area_mm2 + CODEC_COMPONENTS["h264-dec"].area_mm2
    assert pair < 2.0  # "less than 2 mm^2 of die area"
    assert 150 < area_ratio("rtx3090-7nm", "h264") < 250  # "199x smaller"
    assert 60 < area_ratio("cx5-nic", "h264") < 120  # "88x smaller"
    assert DEVICES["rtx3090-7nm"].area_mm2 == pytest.approx(398.0, abs=1.0)


def test_fig12_encoder_breakdown(run_once):
    rows = run_once(
        lambda: [(k, f"{100 * v:.0f}%") for k, v in ENCODER_AREA_BREAKDOWN.items()]
    )
    print_table(
        "Figure 12(a-d): encoder die-area distribution (assumed split)",
        ("block", "share"),
        rows,
    )
    dropped = (
        ENCODER_AREA_BREAKDOWN["inter-prediction"]
        + ENCODER_AREA_BREAKDOWN["frame-buffer"]
    )
    # "a significant portion of the die area is spent on inter-frame
    # prediction and the frame buffer"
    assert dropped > 0.5
    assert intra_only_area_fraction() == pytest.approx(1.0 - dropped)
