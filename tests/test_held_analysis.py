"""A rate search holds pass 1's analysis across its probes; no byte notices.

Pass 1's analysis of a group -- block DCT and candidate predictions,
per CU size -- does not depend on QP, so every rate search
(``TensorCodec``'s two targets, ``ratecontrol``'s two searches) keeps
each group's from its first probe and later probes run only the pick
and pass 2 (:class:`repro.codec.pass1.HeldAnalysis`).  The contract
under test:

* *bytes* -- a search returns the stream a fresh encode at its QP
  writes: one tile, two groups, groups past the byte budget, a fan-out,
  H.264 and H.265;
* *once* -- a one-tile search analyses each CU size once, however many
  encoder runs it makes;
* *lifetime* -- nothing holds the analysis once its search returns or
  raises.

Kernel-free cases run in the ``LLM265_PURE_PYTHON=1`` leg too.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codec import encoder as encoder_mod
from repro.codec import pass1 as pass1_mod
from repro.codec.entropy import native
from repro.codec.pass1 import HeldAnalysis
from repro.codec.profiles import H264_PROFILE, H265_PROFILE
from repro.codec.ratecontrol import encode_at_qp, search_qp_for_bitrate, search_qp_for_mse
from repro.parallel import ParallelConfig
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.tensor.codec import TensorCodec

pytestmark = pytest.mark.pure_python

_TARGETS = ({"bits_per_value": 3.0}, {"target_mse": 1e-6})


def _weights(shape, seed=41):
    return np.random.default_rng(seed).normal(0.0, 0.02, shape).astype(np.float32)


def _runs(codec, tensor, **target):
    with telemetry.session() as registry:
        searched = codec.encode(tensor, **target)
    return searched, registry.counters


# -- bytes ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "profile, shape",
    [
        (H265_PROFILE, (256, 256)),  # one tile, one group: all of it held
        (H264_PROFILE, (256, 256)),
        (H265_PROFILE, (300, 200)),  # two groups: the second past the budget
        (H264_PROFILE, (300, 200)),
    ],
    ids=lambda value: getattr(value, "name", None) or f"{value[0]}x{value[1]}",
)
@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: next(iter(t)))
def test_a_search_writes_what_a_fresh_encode_writes(profile, shape, target):
    codec = TensorCodec(profile=profile)
    tensor = _weights(shape)
    searched, counters = _runs(codec, tensor, **target)
    assert counters["tensor.encoder_runs"] >= 2
    assert searched.data == codec.encode(tensor, qp=searched.qp).data


@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: next(iter(t)))
def test_groups_past_the_budget_are_analysed_per_probe(target, monkeypatch):
    tensor = _weights((300, 200))
    codec = TensorCodec()
    want = codec.encode(tensor, **target)
    monkeypatch.setattr(encoder_mod, "HELD_ANALYSIS_BYTES", 0)
    got = codec.encode(tensor, **target)
    assert (got.qp, got.data) == (want.qp, want.data)
    assert got.data == codec.encode(tensor, qp=got.qp).data


@pytest.mark.parametrize("budget", [None, 2 * encoder_mod.HELD_ANALYSIS_BYTES])
@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: next(iter(t)))
def test_a_fanned_out_search_writes_what_a_fresh_encode_writes(
    target, budget, monkeypatch
):
    # Eight 128 x 128 tiles: two groups of four, one per worker.  The
    # first fills the default budget exactly and the second is past it;
    # twice the budget holds both, the second in the second worker.
    monkeypatch.setattr(encoder_mod, "_effective_cpus", lambda: 4)
    if budget is not None:
        monkeypatch.setattr(encoder_mod, "HELD_ANALYSIS_BYTES", budget)
    tensor = _weights((512, 256))
    serial = TensorCodec(tile=128)
    fanned = TensorCodec(tile=128, parallel=ParallelConfig(workers=2))
    searched, counters = _runs(fanned, tensor, **target)
    if native.available():  # the fan-out needs the kernels
        assert counters.get("parallel.dispatches", 0) >= 1
    assert searched.data == fanned.encode(tensor, qp=searched.qp).data
    assert searched.data == serial.encode(tensor, **target).data


def test_frame_level_searches_write_what_a_fresh_encode_writes():
    frames = [
        np.random.default_rng(k).integers(0, 256, (64, 96)).astype(np.uint8)
        for k in range(3)
    ]
    qp, result = search_qp_for_bitrate(frames, 3.0)
    assert result.data == encode_at_qp(frames, qp).data
    qp, result = search_qp_for_mse(frames, 20.0)
    assert result.data == encode_at_qp(frames, qp).data


# -- once -----------------------------------------------------------------------


@pytest.fixture
def analysed(monkeypatch):
    """The CU size of every pass-1 analysis made in the test: a
    ``pass1.analyse`` into held views, or a ``pass1.rank`` that holds
    nothing (the kernel's one call, or the twin)."""
    sizes = []
    real_analyse, real_rank = pass1_mod.analyse, pass1_mod.rank

    def analyse(planes, n, *args):
        sizes.append(n)
        return real_analyse(planes, n, *args)

    def rank(planes, n, *args):
        if args[-1] is None:  # no held analysis
            sizes.append(n)
        return real_rank(planes, n, *args)

    monkeypatch.setattr(pass1_mod, "analyse", analyse)
    monkeypatch.setattr(pass1_mod, "rank", rank)
    return sizes


@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: next(iter(t)))
def test_a_one_tile_search_analyses_each_size_once(target, analysed, monkeypatch):
    tensor = _weights((256, 256))
    _, counters = _runs(TensorCodec(), tensor, **target)
    assert counters["tensor.encoder_runs"] >= 3
    assert analysed == [32, 16, 8]
    # Past the budget every probe analyses again, as a fixed-QP encode does.
    del analysed[:]
    monkeypatch.setattr(encoder_mod, "HELD_ANALYSIS_BYTES", 0)
    _, counters = _runs(TensorCodec(), tensor, **target)
    assert analysed == [32, 16, 8] * counters["tensor.encoder_runs"]


def test_a_fixed_qp_encode_holds_nothing(analysed):
    codec = TensorCodec()
    tensor = _weights((256, 256))
    codec.encode(tensor, qp=24.0)
    codec.encode(tensor, qp=24.0)
    assert analysed == [32, 16, 8] * 2


def test_a_held_analysis_serves_only_its_frames():
    held = HeldAnalysis()
    modes = H265_PROFILE.coarse_modes()
    first = held.groups([(1, 32, 32)], (32, 16, 8), modes, 1 << 20)
    assert held.groups([(1, 32, 32)], (32, 16, 8), modes, 1 << 20) is first
    with pytest.raises(ValueError):
        held.groups([(2, 32, 32)], (32, 16, 8), modes, 1 << 20)


# -- lifetime -------------------------------------------------------------------


def _held_refs(codec):
    """Weak references to the analysis each ``_encode_at`` call was handed."""
    refs = []
    real = codec._encode_at

    def spy(*args, **kwargs):
        refs.append(weakref.ref(args[7]))
        return real(*args, **kwargs)

    codec._encode_at = spy
    return refs


@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: next(iter(t)))
def test_nothing_holds_the_analysis_after_its_search(target):
    codec = TensorCodec()
    refs = _held_refs(codec)
    codec.encode(_weights((256, 256)), **target)
    gc.collect()
    # Every probe was handed the one analysis (a live referent's weak
    # references are one object), and it is gone.
    assert len(refs) >= 2 and len({id(ref) for ref in refs}) == 1
    assert all(ref() is None for ref in refs)


@pytest.mark.parametrize("target", _TARGETS, ids=lambda t: next(iter(t)))
def test_nothing_holds_the_analysis_after_a_deadline(target):
    codec = TensorCodec()
    refs = _held_refs(codec)
    deadline = Deadline.after(3600.0)
    probe = codec._encode_at

    def expire_after_first(*args, **kwargs):
        result = probe(*args, **kwargs)
        deadline.expires_at = 0.0
        return result

    codec._encode_at = expire_after_first
    with pytest.raises(DeadlineExceeded):
        codec.encode(_weights((256, 256)), deadline=deadline, **target)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None
