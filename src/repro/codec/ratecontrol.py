"""Rate control: hit a bitrate or distortion target by searching QP.

Video encoders expose exactly these two knobs ("set the bitrate
target", "constrain max distortion"); the paper's experiments sweep
both.  Fractional bitrates come out naturally because the float QP is
dithered across CTUs (see :class:`repro.codec.encoder.QpDither`).

Every search in the repo (the two functions below,
:class:`repro.tensor.codec.TensorCodec`'s two targets and the Figure
2(b) ablation in :mod:`repro.codec.pipeline`) is one call to
:func:`solve_qp`.  The production searches encode the same frames at
every probe, so each holds its frames' pass-1 analysis from the first
probe to the last (:class:`repro.codec.pass1.HeldAnalysis`): later
probes pay only the pick and pass 2, and the bytes do not move.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional, Sequence, Tuple, TypeVar

import numpy as np

import repro.telemetry as telemetry
from repro.codec.encoder import EncodeResult, EncoderConfig, FrameEncoder
from repro.codec.pass1 import HeldAnalysis
from repro.resilience.deadline import Deadline

MAX_QP = 51.0

# The codec's rate law: the quantizer step is 2**((QP - 4) / 6) (see
# :func:`repro.codec.quantizer.qstep`), so every 6 QP double it: about
# one bit per value less, and four times the MSE (~ step**2).
_QP_PER_BIT = 6.0
_QP_PER_LOG2_MSE = 3.0
_UNIT_STEP_QP = 4.0

R = TypeVar("R")


def encode_at_qp(
    frames: Sequence[np.ndarray], qp: float, config: Optional[EncoderConfig] = None
) -> EncodeResult:
    """Encode at a specific (possibly fractional) QP."""
    base = config or EncoderConfig()
    return FrameEncoder(replace(base, qp=qp)).encode(frames)


def _held_probe(
    frames: Sequence[np.ndarray], config: Optional[EncoderConfig]
) -> Callable[[float], EncodeResult]:
    """:func:`encode_at_qp` for one search: its probes share a held
    pass-1 analysis, which lives as long as the returned function."""
    base = config or EncoderConfig()
    held = HeldAnalysis()
    return lambda qp: FrameEncoder(replace(base, qp=qp)).encode(frames, held)


def rate_law_qp(frames: Sequence[np.ndarray], bits_per_value: float) -> float:
    """Where the rate law alone puts ``bits_per_value``: a first probe.

    A Gaussian source of spread ``sigma`` quantized with step ``q``
    costs ``log2(sigma * sqrt(2 pi e) / q)`` bits per sample; tensors
    are close to that source (prediction removes little), so solving
    for ``q`` at the frames' own spread lands within a QP or two of the
    answer.  May fall outside ``[0, 51]``; only ever a starting point.
    """
    sigma = max(float(np.mean([np.std(frame) for frame in frames])), 1e-9)
    bits_at_unit_step = math.log2(sigma * math.sqrt(2 * math.pi * math.e))
    return _UNIT_STEP_QP + _QP_PER_BIT * (bits_at_unit_step - bits_per_value)


def _log2(value: float) -> float:
    return math.log2(max(value, 5e-324))


def solve_qp(
    probe: Callable[[float], R],
    value: Callable[[R], float],
    target: float,
    precision: float,
    distortion: bool = False,
    guess: Optional[float] = None,
    deadline: Optional[Deadline] = None,
) -> Tuple[float, R, bool]:
    """The QP on the search grid at which ``value`` just meets ``target``.

    ``probe(qp)`` runs one encode and ``value(result)`` reads off the
    quantity under control; a result meets the target when
    ``value(result) <= target``.  For a rate target (the default)
    ``value`` falls as QP rises and the answer is the *smallest* QP that
    meets it; with ``distortion=True`` it rises with QP and the answer
    is the *largest* QP that meets it.

    The grid is the one bisection of ``[0, 51]`` down to ``precision``
    visits, ``k * 51 / 2**j`` with ``j`` the number of halvings, and the
    search ends on bisection's certificate: the returned grid point
    meets the target and the next one the search would rather answer
    (finer for a rate target, coarser for a distortion target) does
    not, or is off the grid.  On a monotone curve that is bisection's
    QP, the same float.  Probes are chosen by the rate law instead of
    by halving: the first at ``guess`` (the middle of the grid without
    one); a bracket with one measured end by stepping from it along the
    law's slope, or along the chord through the last two probes on that
    side; a bracket with two by linear interpolation (of bits/value, or
    of log2 distortion).  Whatever the curve does, a probe is never
    placed where the probes left could not finish by halving: that
    pulls a bracket interpolation fails to shrink to its midpoint and
    caps the search at bisection's ``2 + j`` encodes.  QP 0 and QP 51
    are probed only if the bracket closes in on them.

    Returns ``(qp, result, met)``.  When no grid point meets the target
    ``met`` is false and the result is the probe that came closest: QP
    51 for a rate target, QP 0 for a distortion target.  A distortion
    search never answers QP 51 itself (bisection never evaluated its
    upper end either).  ``deadline`` is checked between probes.
    """
    if not precision > 0:
        raise ValueError(f"precision must be positive, got {precision}")
    halvings = 0
    while MAX_QP / (1 << halvings) > precision:
        halvings += 1
    n = 1 << halvings
    scale = _log2 if distortion else float
    goal = scale(target)
    # One index step moves the scaled value down by about this much.
    fall = MAX_QP / n / (_QP_PER_LOG2_MSE if distortion else _QP_PER_BIT)

    # Indexes run from the expensive end, so that the value falls along
    # them for either kind of target.
    def qp_of(index: int) -> float:
        return (n - index if distortion else index) * MAX_QP / n

    if guess is None:
        first = n / 2.0
    else:
        first = (MAX_QP - guess if distortion else guess) * n / MAX_QP

    # lo misses the target and hi meets it, by measurement or, one step
    # off the grid, by definition (hi = n + 1 stands for "unreachable").
    lo, hi = (0 if distortion else -1), n + 1
    results: dict = {}
    excess: dict = {}
    while hi - lo > 1:
        # The slope runs through the bracket's measured ends; with one
        # measured end, through it and the last probe beyond it, or
        # else it is the law's.
        if lo in excess and hi in excess:
            near, far = lo, hi
        elif lo in excess:
            near, far = lo, max((i for i in excess if i < lo), default=None)
        elif hi in excess:
            near, far = hi, min((i for i in excess if i > hi), default=None)
        else:
            near = None
        if near is None:
            root = first
        else:
            if far is None:
                slope = fall
            else:
                slope = (excess[near] - excess[far]) / (far - near)
            if slope > 0:
                root = near + excess[near] / slope
            else:
                # Flat or rising where it should fall: the probes say
                # nothing about where the target is, so ask the far end.
                root = math.inf if near == lo else -math.inf
        if math.isnan(root):
            root = (lo + hi) / 2.0
        # Each side of the probe must be one the probes left after it
        # can still bisect.
        reach = 1 << (halvings + 1 - len(results))
        lowest, highest = max(lo + 1, hi - reach), min(hi - 1, lo + reach)
        index = math.ceil(min(max(root, lowest), highest))
        if deadline is not None and results:
            deadline.check("ratecontrol.search")
        telemetry.count("ratecontrol.iterations")
        results[index] = probe(qp_of(index))
        measured = value(results[index])
        excess[index] = scale(measured) - goal
        if measured <= target:
            hi = index
        else:
            lo = index
    met = hi <= n
    best = hi if met else n
    return qp_of(best), results[best], met


def search_qp_for_mse(
    frames: Sequence[np.ndarray],
    max_mse: float,
    config: Optional[EncoderConfig] = None,
    precision: float = 0.25,
) -> Tuple[float, EncodeResult]:
    """Largest QP (fewest bits) whose pixel-domain MSE stays under target.

    When even QP 0 misses the target the finest encode is returned,
    best effort.
    """
    with telemetry.span("ratecontrol.search_mse"):
        qp, result, _ = solve_qp(
            _held_probe(frames, config),
            lambda result: result.mse,
            max_mse,
            precision,
            distortion=True,
        )
    return qp, result


def search_qp_for_bitrate(
    frames: Sequence[np.ndarray],
    bits_per_value: float,
    config: Optional[EncoderConfig] = None,
    precision: float = 0.25,
) -> Tuple[float, EncodeResult]:
    """Smallest QP (best quality) whose rate stays under the bit budget.

    When even QP 51 is over budget this returns that *coarsest* encode:
    at the frame level the budget is all the caller stated, so the
    stream closest to it is the best effort.  (``TensorCodec`` makes the
    opposite choice for its own budgets, and says why.)
    """
    with telemetry.span("ratecontrol.search_bitrate"):
        qp, result, _ = solve_qp(
            _held_probe(frames, config),
            lambda result: result.bits_per_value,
            bits_per_value,
            precision,
            guess=rate_law_qp(frames, bits_per_value),
        )
    return qp, result
