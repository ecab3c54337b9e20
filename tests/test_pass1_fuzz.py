"""Pass 1's kernel against its twin on hostile planes (hypothesis).

``llm265_pass1_group`` predicts, transforms and ranks every candidate
of a group at one CU size in one call; a rate search has it write its
rows instead, then ranks them with ``llm265_cost_pick``.  Three roads
to one answer, held bitwise equal here -- picks and costs of the fused
call, the held call and the twin (``pass1._analyse_twin`` then
``_pass1_pick`` in numpy), and the held rows against the twin's -- on
the planes most likely to part them:

* constant 0 and 255 planes, where every candidate ties;
* checkerboards, the DCT's worst case;
* lone outliers at corners and edges, where the clamped windows read
  them from both sides;
* noise, for everything else;

at one-CTU and non-multiple shapes (33 x 17 pads on both axes), for
every profile's coarse modes and dead zone at every one of its CU
sizes, in groups of 1 to 64 frames (as many as a group of
``GROUP_SAMPLES`` holds) with every block on its own QP.
Derandomised, so a failure reproduces.  The kernel library must be
loaded; the twin's own identities run in the pure-Python leg elsewhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codec import pass1
from repro.codec.encoder import _LAMBDAS, _QSTEPS, GROUP_SAMPLES
from repro.codec.entropy import native
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE

pytestmark = [
    pytest.mark.fuzz,
    pytest.mark.skipif(not native.available(), reason="kernel library unavailable"),
]

PATTERNS = ("zero", "full", "checker", "outlier", "noise")
#: (row, col) of a lone outlier as fractions of the frame: corners and
#: edge midpoints.
SPOTS = ((0, 0), (0, 1), (1, 0), (1, 1), (0, 0.5), (0.5, 0), (1, 0.5), (0.5, 1))


def _frame(pattern: str, shape, rng, spot) -> np.ndarray:
    height, width = shape
    if pattern == "zero":
        return np.zeros(shape, dtype=np.uint8)
    if pattern == "full":
        return np.full(shape, 255, dtype=np.uint8)
    if pattern == "checker":
        y, x = np.indices(shape)
        return (((y + x) % 2) * 255).astype(np.uint8)
    if pattern == "outlier":
        frame = np.full(shape, int(rng.integers(0, 256)), dtype=np.uint8)
        frame[round(spot[0] * (height - 1)), round(spot[1] * (width - 1))] ^= 0xFF
        return frame
    return rng.integers(0, 256, shape).astype(np.uint8)


def _same(got, want) -> bool:
    return all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    profile=st.sampled_from((H264_PROFILE, H265_PROFILE, AV1_PROFILE)),
    shape=st.sampled_from(("ctu", (33, 17), (16, 32), (50, 70))),
    count=st.integers(1, 64),
    patterns=st.lists(st.sampled_from(PATTERNS), min_size=1, max_size=4),
    spot=st.sampled_from(SPOTS),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_held_and_twin_agree(profile, shape, count, patterns, spot, seed):
    rng = np.random.default_rng(seed)
    ctu = profile.ctu_size
    shape = (ctu, ctu) if shape == "ctu" else shape
    padded = -(-shape[0] // ctu) * ctu * -(-shape[1] // ctu) * ctu
    count = min(count, max(1, GROUP_SAMPLES // padded))  # what a group holds
    frames = [
        _frame(patterns[k % len(patterns)], shape, rng, spot) for k in range(count)
    ]
    planes = pass1._padded_planes(frames, ctu)
    modes = profile.coarse_modes()
    mode_bits = pass1._anchor_mode_bits(modes)
    table = pass1._level_rate_table()
    n = ctu
    while n >= profile.min_cu_size:
        blocks = count * (planes.shape[1] // n) * (planes.shape[2] // n)
        qp = rng.integers(0, 52, blocks)
        step, lam = _QSTEPS[qp], _LAMBDAS[qp]
        costing = (1.0 / step, step * step, lam)

        rows = (np.empty((blocks, n * n)), np.empty((blocks, len(modes), n * n)))
        pass1._analyse_twin(planes, n, modes, *rows)
        twin = pass1._pass1_pick(
            *rows, *costing, mode_bits, profile.deadzone, False
        )
        fused = native.pass1_rank(
            planes, n, modes, *costing, mode_bits, profile.deadzone, table
        )
        held_rows = (np.full_like(rows[0], np.nan), np.full_like(rows[1], np.nan))
        assert native.pass1_analyse(planes, n, modes, *held_rows)
        held = native.cost_pick(
            *held_rows, *costing, mode_bits, profile.deadzone, table
        )
        assert fused is not None and held is not None
        assert _same(held_rows, rows), f"held rows, n={n}"
        assert _same(fused, twin), f"fused picks, n={n}"
        assert _same(held, twin), f"held picks, n={n}"
        n //= 2
