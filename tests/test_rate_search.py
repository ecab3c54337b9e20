"""The interpolating QP solver against the bisection it replaced.

The bisection loops that ``TensorCodec`` and ``repro.codec.ratecontrol``
ran before ``solve_qp`` live on here as the reference: same grid, same
certificate, so on a monotone curve the solver must return the same QP
(the same float) for fewer encoder runs, and on any curve at all never
more runs than bisection's ``2 + j``.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.telemetry as telemetry
from repro.codec.entropy import native
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.codec.ratecontrol import MAX_QP, solve_qp
from repro.models.synthetic_weights import weight_like
from repro.resilience.deadline import Deadline
from repro.resilience.errors import DeadlineExceeded
from repro.tensor.codec import TensorCodec, _stream_fixed_bits

pytestmark = pytest.mark.pure_python


# -- reference: the pre-solver bisection loops ----------------------------


def bisect_rate(value_at, target, precision):
    """``search_qp_for_bitrate``'s loop: (qp or None when unreachable, runs)."""
    lo, hi, runs = 0.0, MAX_QP, 1
    if value_at(hi) > target:
        return None, runs
    runs += 1
    if value_at(lo) <= target:
        return lo, runs
    while hi - lo > precision:
        mid = (lo + hi) / 2.0
        runs += 1
        if value_at(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi, runs


def bisect_distortion(value_at, target, precision):
    """``search_qp_for_mse``'s loop: (qp or None when QP 0 misses, runs)."""
    lo, hi, runs = 0.0, MAX_QP, 1
    if value_at(lo) > target:
        return None, runs
    while hi - lo > precision:
        mid = (lo + hi) / 2.0
        runs += 1
        if value_at(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo, runs


def reference_bitrate(codec, encode_at, layout, budget):
    """``TensorCodec._search_bitrate`` as it was: 10 runs at the default."""
    best = encode_at(MAX_QP)
    fixed_bits = 8.0 * (best.nbytes - len(best.data)) + _stream_fixed_bits(
        layout.num_tiles
    )
    unmeetable = fixed_bits > 0.5 * budget * max(1, best.num_values)
    if unmeetable or best.bits_per_value > budget:
        finest = encode_at(0.0)
        finest.budget_met = False
        return finest
    qp, _ = bisect_rate(
        lambda qp: encode_at(qp).bits_per_value, budget, codec.qp_search_precision
    )
    return encode_at(qp)


def reference_mse(codec, encode_at, tensor, max_mse):
    """``TensorCodec._search_mse`` as it was."""
    qp, _ = bisect_distortion(
        lambda qp: codec._tensor_mse(encode_at(qp), tensor),
        max_mse,
        codec.qp_search_precision,
    )
    return encode_at(0.0 if qp is None else qp)


# -- (a) the bare solver on synthetic curves ------------------------------

PRECISIONS = (0.25, 0.5, 1.0)


def halvings_of(precision):
    return math.ceil(math.log2(MAX_QP / precision))


@st.composite
def step_curves(draw, monotone=True):
    """A curve on the grid, falling in plateaus, and a target near it."""
    precision = draw(st.sampled_from(PRECISIONS))
    n = 1 << halvings_of(precision)
    levels = draw(st.lists(st.integers(0, 60), min_size=1, max_size=12))
    if monotone:
        levels.sort(reverse=True)
    cuts = sorted(draw(st.lists(st.integers(1, n), max_size=len(levels) - 1)))
    curve, level = [], 0
    for k in range(n + 1):
        while level < len(cuts) and k >= cuts[level]:
            level += 1
        curve.append(levels[min(level, len(levels) - 1)] / 4.0)
    # On a level, between two, above them all or below them all.
    target = draw(st.integers(-1, 61)) / 4.0 + draw(st.sampled_from((0.0, 0.125)))
    guess = draw(st.none() | st.floats(-40.0, 90.0))
    return precision, curve, target, guess


def run_solver(precision, curve, target, guess, distortion=False):
    n = len(curve) - 1
    probed = []

    def probe(qp):
        k = round(qp * n / MAX_QP)
        assert k * MAX_QP / n == qp, "probe off the bisection grid"
        assert qp not in probed, "a grid point was encoded twice"
        probed.append(qp)
        return curve[k]

    qp, result, met = solve_qp(
        probe, lambda v: v, target, precision, distortion=distortion, guess=guess
    )
    assert len(probed) <= 2 + halvings_of(precision)
    assert result == curve[round(qp * n / MAX_QP)]
    assert met == (result <= target)
    return qp, met, len(probed)


class TestSolverAgainstBisection:
    @given(step_curves())
    @settings(max_examples=300, deadline=None)
    def test_rate_target_same_qp_no_more_runs(self, case):
        precision, curve, target, guess = case
        n = len(curve) - 1
        expected, _ = bisect_rate(
            lambda qp: curve[round(qp * n / MAX_QP)], target, precision
        )
        qp, met, _ = run_solver(precision, curve, target, guess)
        if expected is None:
            assert not met and qp == MAX_QP  # the coarsest probe, best effort
        else:
            assert met and qp == expected

    @given(step_curves())
    @settings(max_examples=300, deadline=None)
    def test_distortion_target_same_qp_no_more_runs(self, case):
        precision, falling, target, guess = case
        curve = falling[::-1]  # distortion rises with QP
        n = len(curve) - 1
        expected, _ = bisect_distortion(
            lambda qp: curve[round(qp * n / MAX_QP)], target, precision
        )
        qp, met, _ = run_solver(precision, curve, target, guess, distortion=True)
        if expected is None:
            assert not met and qp == 0.0  # the finest probe, best effort
        else:
            assert met and qp == expected

    @given(step_curves(monotone=False), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_curve_ends_on_the_certificate_within_the_cap(self, case, distortion):
        precision, curve, target, guess = case
        n = len(curve) - 1
        qp, met, _ = run_solver(precision, curve, target, guess, distortion)
        k = round(qp * n / MAX_QP)
        # The next grid point the search would rather have answered;
        # QP 51 is not a candidate of a distortion search.
        preferred = k + 1 if distortion else k - 1
        if met and 0 <= preferred < (n if distortion else n + 1):
            assert curve[preferred] > target

    def test_a_good_guess_costs_two_runs_and_a_bad_one_is_capped(self):
        curve = [8.0 - k / 32.0 for k in range(257)]
        qp, met, runs = run_solver(0.25, curve, 3.0, guess=160 * MAX_QP / 256)
        assert (qp, met, runs) == (160 * MAX_QP / 256, True, 2)
        flat = [1.0] * 200 + [0.0] * 57  # the rate law says nothing here
        for guess in (None, 0.0, 51.0, 1e9):
            qp, met, runs = run_solver(0.25, flat, 0.5, guess)
            assert (qp, met) == (200 * MAX_QP / 256, True) and runs <= 10

    def test_rejects_a_precision_bisection_could_not_reach(self):
        with pytest.raises(ValueError):
            solve_qp(lambda qp: qp, lambda v: v, 1.0, 0.0)


# -- (b) TensorCodec: same QP, same bytes, same budget_met ----------------

PROFILES = {"h264": H264_PROFILE, "h265": H265_PROFILE, "av1": AV1_PROFILE}
ALIGNMENTS = ("minmax", "mx")
BUDGETS = (0.02, 0.5, 3.0, 7.5)
SHAPES = ((16, 16), (300, 200), (512, 256))
KERNELS = ("native", "pure")

# The full product is ~1600 encodes of the larger shapes.  Tier-1 runs
# all of it on 16x16, and the larger shapes on the default profile with
# compiled kernels (the search never looks at the profile, only at the
# rate curve); RATE_SEARCH_FULL_MATRIX=1 runs every cell, and CI does.
FULL_MATRIX = bool(os.environ.get("RATE_SEARCH_FULL_MATRIX"))
MATRIX = [
    pytest.param(profile, alignment, shape, kernels,
                 id=f"{profile}-{alignment}-{shape[0]}x{shape[1]}-{kernels}")
    for profile in sorted(PROFILES)
    for alignment in ALIGNMENTS
    for shape in SHAPES
    for kernels in KERNELS
    if FULL_MATRIX
    or shape == SHAPES[0]
    or (profile == "h265" and kernels == "native")
]


def memoised_encoder(codec, tensor):
    """One encode per QP, shared by the reference and the solver under test.

    Returns ``(layout, encode_at, runs)``; ``runs`` lists the QPs the
    codec's own search asked for since it was last cleared.
    """
    frames, grids, layout, frame_shape = codec._to_frames(tensor)
    encode, cache, runs = codec._encode_at, {}, []

    def encode_at(qp):
        if qp not in cache:
            cache[qp] = encode(frames, grids, layout, frame_shape, tensor, qp)
        return dataclasses.replace(cache[qp])  # budget_met is set in place

    def spy(frames, grids, layout, frame_shape, tensor, qp, deadline=None):
        runs.append(qp)
        return encode_at(qp)

    codec._encode_at = spy
    return layout, encode_at, runs


@pytest.mark.parametrize("profile, alignment, shape, kernels", MATRIX)
def test_tensor_codec_matches_bisection(
    profile, alignment, shape, kernels, monkeypatch
):
    if kernels == "pure":  # every compiled kernel off, as the env switch does
        monkeypatch.setenv("LLM265_PURE_PYTHON", "1")
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)
    tensor = weight_like(*shape, seed=shape[0]).astype(np.float32)
    codec = TensorCodec(profile=PROFILES[profile], alignment=alignment)
    layout, encode_at, runs = memoised_encoder(codec, tensor)

    for budget in BUDGETS:
        expected = reference_bitrate(codec, encode_at, layout, budget)
        runs.clear()
        got = codec.encode(tensor, bits_per_value=budget)
        assert (got.qp, got.budget_met) == (expected.qp, expected.budget_met)
        assert got.data == expected.data
        assert len(runs) <= 10 and len(set(runs)) == len(runs)

    floor = codec._tensor_mse(encode_at(0.0), tensor)
    for target in (0.5 * floor, 4.0 * floor):
        expected = reference_mse(codec, encode_at, tensor, target)
        runs.clear()
        got = codec.encode(tensor, target_mse=target)
        assert (got.qp, got.data) == (expected.qp, expected.data)
        assert len(runs) <= 10


# -- (c) deadlines, (d) the cost pin --------------------------------------


def test_deadline_expiring_mid_search_raises_between_probes():
    tensor = weight_like(64, 64, seed=5).astype(np.float32)
    codec = TensorCodec()
    deadline = Deadline.after(3600.0)
    _, _, runs = memoised_encoder(codec, tensor)
    encode = codec._encode_at

    def expire_after_first(*args, **kwargs):
        result = encode(*args, **kwargs)
        deadline.expires_at = 0.0
        return result

    codec._encode_at = expire_after_first
    for targets in ({"bits_per_value": 3.0}, {"target_mse": 1e-5}):
        deadline.expires_at = Deadline.after(3600.0).expires_at
        runs.clear()
        with pytest.raises(DeadlineExceeded):
            codec.encode(tensor, deadline=deadline, **targets)
        assert len(runs) == 1  # stopped before the second probe, nothing returned


def test_bit_budget_on_one_tile_costs_at_most_five_encoder_runs():
    tensor = weight_like(256, 256, seed=13).astype(np.float32)
    with telemetry.session() as registry:
        compressed = TensorCodec().encode(tensor, bits_per_value=3.0)
    assert compressed.budget_met and compressed.bits_per_value <= 3.0
    assert registry.counters["tensor.encoder_runs"] <= 5
    assert (
        registry.counters["ratecontrol.iterations"]
        == registry.counters["tensor.encoder_runs"]
    )


def test_overhead_bound_tensor_gets_the_finest_encode_in_one_run():
    tensor = weight_like(8, 8, seed=1).astype(np.float32)
    with telemetry.session() as registry:
        compressed = TensorCodec().encode(tensor, bits_per_value=0.5)
    assert not compressed.budget_met and compressed.qp == 0.0
    assert registry.counters["tensor.encoder_runs"] == 1
