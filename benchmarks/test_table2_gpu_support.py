"""Table 2: GPU codec support per generation.

Static data reproduced verbatim, plus the selection logic of Section
4.1.1 (H.265 is the codec that works everywhere at 8K both ways).
"""

from bench_helpers import print_table

from repro.gpu.capabilities import GPU_CODEC_SUPPORT, best_codec_for, supports


def test_table2_gpu_support(run_once):
    def experiment():
        rows = []
        for generation in ("ada-lovelace", "ampere", "volta"):
            rows.append(
                (
                    generation,
                    supports(generation, "h264").describe(),
                    supports(generation, "h265").describe(),
                    supports(generation, "av1").describe(),
                    supports(generation, "vp9").describe(),
                )
            )
        return rows

    rows = run_once(experiment)
    print_table(
        "Table 2: GPU support for video codecs",
        ("GPU gen.", "H.264", "H.265", "AV1", "VP9"),
        rows,
    )

    expected = {
        "ada-lovelace": ("4K Enc/Dec.", "8K Enc/Dec.", "8K Enc/Dec.", "8K Dec"),
        "ampere": ("4K Enc/Dec.", "8K Enc/Dec.", "-", "8K Dec"),
        "volta": ("4K Enc/Dec.", "8K Enc/Dec.", "-", "8K Dec"),
    }
    for row in rows:
        assert tuple(row[1:]) == expected[row[0]], row[0]
    # Section 4.1.1's selection: H.265 on every generation.
    for generation in GPU_CODEC_SUPPORT:
        choice = best_codec_for(generation)
        assert supports(generation, choice).usable_for_tensors
        assert supports(generation, "h265").usable_for_tensors
