"""Turbo pass 1 runs once per group of frames; no frame's bytes notice.

Pass 1 predicts from source pixels, so ``FrameEncoder`` batches it over
a *group* of consecutive frames (``encoder.GROUP_SAMPLES`` padded
samples: sixty-four one-CTU KV slices, four 128 x 128 tiles, one
256 x 256 tile) and leaves pass 2 per slice.  The contract under test:

* *group invariance* -- a frame's framed slice is the same bytes coded
  alone, first or last in a group, or either side of a group boundary;
* *fan-out* -- workers are handed whole groups, so serial == thread,
  and fewer than two groups stay serial;
* *call counts* -- a KV page's four slices share one pass-1 call per
  CU size, a 256 x 256 slice makes the calls it always made;
* *deadline* -- an expiry inside a multi-group encode raises, nothing
  partial comes back.

Cases that need a C kernel skip themselves, so the file also runs in
the ``LLM265_PURE_PYTHON=1`` leg.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro.telemetry as telemetry
from repro.codec import encoder as encoder_mod
from repro.codec import pass1 as pass1_mod
from repro.codec.decoder import decode_frames
from repro.codec.encoder import (
    GROUP_SAMPLES,
    EncoderConfig,
    FrameEncoder,
    unpack_header,
)
from repro.codec.entropy import native
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.parallel import ParallelConfig, pool_stats
from repro.parallel import pool as pool_mod
from repro.resilience import deframe_slices
from repro.resilience.deadline import Deadline, DeadlineExceeded

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

needs_kernel = pytest.mark.skipif(
    not native.available(),
    reason="slice-encode kernel unavailable (no compiler or pure-python)",
)

_PROFILES = (H264_PROFILE, H265_PROFILE, AV1_PROFILE)
_QPS = (18.0, 24.5, 26.0)  # 24.5 dithers two QPs across the frames of a group
_SHAPES = ((16, 32), (32, 32), (50, 70), (33, 17), (128, 128), (256, 256))
_COUNTS = (1, 3, 4, 5, 9)


def _frames(shape, count):
    height, width = shape
    base = np.linspace(30, 220, width)[None, :] + np.linspace(-40, 40, height)[:, None]
    return [
        np.clip(
            base + np.random.default_rng([height, width, k]).normal(0, 22, shape), 0, 255
        ).astype(np.uint8)
        for k in range(count)
    ]


def _padded_samples(shape, profile):
    ctu = profile.ctu_size
    return (shape[0] + -shape[0] % ctu) * (shape[1] + -shape[1] % ctu)


def _slices(data):
    return deframe_slices(data[unpack_header(data)["header_size"] :])[0]


def _assert_group_invariant(monkeypatch, shape, counts, **config):
    """A frame's slice is the same bytes whether pass 1 sees it alone,
    in the default groups, or in groups of three -- for every prefix of
    ``counts`` frames, so each frame is tried first, last and either
    side of a boundary (3 | 4 in groups of three, 4 | 5 in the default
    groups of four 128 x 128 tiles)."""
    config = EncoderConfig(**config)
    frames = _frames(shape, max(counts))
    padded = _padded_samples(shape, config.profile)
    monkeypatch.setattr(encoder_mod, "GROUP_SAMPLES", 0)  # every frame alone
    alone = FrameEncoder(config).encode(frames)
    tried = set()
    for budget in (GROUP_SAMPLES, 3 * padded):
        monkeypatch.setattr(encoder_mod, "GROUP_SAMPLES", budget)
        per_group = max(1, budget // padded)
        for count in counts:
            layout = (count, min(count, per_group))
            if layout[1] == 1 or layout in tried:
                continue  # every frame alone again / the same groups again
            tried.add(layout)
            grouped = FrameEncoder(config).encode(frames[:count])
            moved = [
                index
                for index, (got, want) in enumerate(
                    zip(_slices(grouped.data), _slices(alone.data))
                )
                if got != want
            ]
            assert not moved, (
                f"slices {moved} of {count} depend on their group "
                f"({per_group} frames a group)"
            )
            if count == len(frames):
                assert grouped.data == alone.data and grouped.mse == alone.mse


def _cases(twin):
    """Profile x QP x shape, thinned where a case costs seconds and adds no
    new size: a 128 x 128 or 256 x 256 frame costs what dozens of KV
    slices do, so those take the dithered QP only; the twin's pass 2 is
    per-leaf Python (~0.2 s for a 256 x 256 frame) and never sees a
    group, so its shapes of more than two CTUs take one profile."""
    return [
        pytest.param(profile, qp, shape, id=f"{profile.name}-{qp}-{shape[0]}x{shape[1]}")
        for profile in _PROFILES
        for qp in _QPS
        for shape in _SHAPES
        if (shape[0] < 128 or qp == 24.5)
        and not (twin and shape[0] >= 50 and profile is not H265_PROFILE)
    ]


class TestGroupInvariance:
    @needs_kernel
    @pytest.mark.parametrize("profile, qp, shape", _cases(twin=False))
    def test_native(self, profile, qp, shape, monkeypatch):
        _assert_group_invariant(monkeypatch, shape, _COUNTS, profile=profile, qp=qp)

    # The twin's pass 1 is numpy and its pass 2 per-leaf Python: it
    # takes three and five frames.
    @pytest.mark.parametrize("profile, qp, shape", _cases(twin=True))
    def test_python(self, profile, qp, shape, monkeypatch):
        _assert_group_invariant(
            monkeypatch, shape, (3, 5), profile=profile, qp=qp, encode="python"
        )

    def test_grouped_stream_decodes(self):
        # Nine 16 x 32 slices in one group, a dithered QP across them.
        frames = _frames((16, 32), 9)
        result = FrameEncoder(EncoderConfig(qp=24.5)).encode(frames)
        decoded = decode_frames(result.data)
        sse = sum(
            float(np.sum((d.astype(np.float64) - f) ** 2))
            for d, f in zip(decoded, frames)
        )
        assert sse / (9 * 16 * 32) == pytest.approx(result.mse, rel=0.05)


# -- fan-out ------------------------------------------------------------------


def _encode_counted(frames, parallel):
    """The encode's result and how many times it dispatched to the pool."""
    before = pool_stats()["dispatches"]
    with telemetry.session():
        result = FrameEncoder(EncoderConfig(qp=24.5, parallel=parallel)).encode(frames)
    return result, pool_stats()["dispatches"] - before


class TestFanOut:
    @needs_kernel
    @pytest.mark.parametrize(
        "shape, count, per_group", [((128, 128), 9, 4), ((64, 64), 37, 16)]
    )
    def test_serial_thread_process_identical(self, shape, count, per_group, monkeypatch):
        # Frame counts that are no multiple of the group size, three
        # workers over three groups and two workers over three groups.
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 4)
        handed_out = []
        real = encoder_mod.parallel_map

        def spy(fn, tasks, *args, **kwargs):
            handed_out.append([(len(task[1]), task[2]) for task in tasks])
            return real(fn, tasks, *args, **kwargs)

        monkeypatch.setattr(encoder_mod, "parallel_map", spy)
        frames = _frames(shape, count)
        serial, _ = _encode_counted(frames, None)
        for workers in (3, 2):
            fanned, dispatched = _encode_counted(frames, ParallelConfig(workers=workers))
            assert dispatched == 1
            assert fanned.data == serial.data, workers
            assert fanned.mse == serial.mse, workers
            for key in ("bits", "counts", "qp"):
                assert fanned.stats[key] == serial.stats[key], (workers, key)
            # A fan-out never splits a group: runs are consecutive, so
            # every run starts on a group boundary and only the last may
            # end off one.
            tasks = handed_out.pop()
            assert len(tasks) == workers and not handed_out
            assert sum(length for length, _ in tasks) == count
            assert all(group == per_group for _, group in tasks)
            assert all(length % per_group == 0 for length, _ in tasks[:-1])

    def test_one_group_stays_serial(self, monkeypatch):
        # One group of four: nothing to hand a second worker.
        monkeypatch.setattr(pool_mod, "usable_cpus", lambda: 4)
        monkeypatch.setattr(native, "available", lambda: True)
        frames = _frames((128, 128), 4)
        fanned, dispatched = _encode_counted(frames, ParallelConfig(workers=2))
        assert dispatched == 0
        serial, _ = _encode_counted(frames, None)
        assert fanned.data == serial.data and fanned.mse == serial.mse
        for key in ("bits", "counts", "qp"):
            assert fanned.stats[key] == serial.stats[key], key

    @pytest.mark.parametrize("shape, count", [((128, 128), 9), ((16, 32), 4)])
    def test_ledger_exact_under_groups(self, shape, count):
        # Multi-group and one-group inputs: the instrumented encode is
        # the plain encode, and every bit of the stream has a class.
        frames = _frames(shape, count)
        plain = FrameEncoder(EncoderConfig(qp=24.5)).encode(frames)
        traced, _ = _encode_counted(frames, None)
        assert traced.data == plain.data
        assert sum(traced.stats["bits"].values()) == 8 * len(traced.data)
        assert traced.stats["counts"]["frames"] == count
        assert traced.stats["qp"]["count"] == traced.stats["counts"]["ctu"]
        assert {traced.stats["qp"]["min"], traced.stats["qp"]["max"]} == {24, 25}
        assert {"plan", "write"} <= set(traced.stats["seconds"])


# -- call counts ----------------------------------------------------------------


@pytest.fixture
def pick_calls(monkeypatch):
    """``(blocks, n * n)`` of every ``pass1.rank`` call made in the test."""
    calls = []
    real = pass1_mod.rank

    def spy(planes, n, *args):
        count, height, width = planes.shape
        calls.append((count * (height // n) * (width // n), n * n))
        return real(planes, n, *args)

    monkeypatch.setattr(pass1_mod, "rank", spy)
    return calls


class TestCallCounts:
    def test_a_kv_page_makes_one_call_per_size(self, pick_calls):
        # Four 16 x 32 frames -> four padded 32 x 32 CTUs in one group:
        # 3 calls over 4, 16 and 64 blocks, where per-slice pass 1 made 12.
        FrameEncoder(EncoderConfig(qp=26.0)).encode(_frames((16, 32), 4))
        assert pick_calls == [(4, 32 * 32), (16, 16 * 16), (64, 8 * 8)]

    def test_256_square_frames_are_groups_of_one(self, pick_calls):
        frames = _frames((256, 256), 4)
        FrameEncoder(EncoderConfig(qp=26.0)).encode(frames)
        assert [blocks for blocks, _ in pick_calls] == [64, 256, 1024] * 4
        del pick_calls[:]
        FrameEncoder(EncoderConfig(qp=26.0)).encode(frames[:1])
        assert len(pick_calls) == 3


# -- deadline ---------------------------------------------------------------------


class _ExpiresAfter(Deadline):
    """A deadline that runs out at its ``checks + 1``-th poll."""

    def __init__(self, checks):
        super().__init__(time.monotonic() + 3600.0, label="test")
        self.checks = checks

    def check(self, stage=""):
        self.checks -= 1
        if self.checks < 0:
            self.expires_at = 0.0
        super().check(stage)


class TestDeadline:
    @pytest.mark.parametrize("checks", [0, 5, 6, 11])
    def test_expiry_inside_a_multi_group_encode_raises(self, checks):
        # Nine 128 x 128 frames = groups of 4 + 4 + 1, polled at every
        # group's pass 1 and every frame's pass 2: 12 polls in all.  The
        # expiry lands before the first group, on the second group's
        # pass 1, inside it, and on the last frame.
        frames = _frames((128, 128), 9)
        deadline = _ExpiresAfter(checks)
        with pytest.raises(DeadlineExceeded):
            FrameEncoder(EncoderConfig(qp=26.0, deadline=deadline)).encode(frames)
        assert deadline.checks == -1  # raised at that poll, no further work

    def test_a_deadline_that_holds_is_invisible(self):
        frames = _frames((128, 128), 9)
        deadline = _ExpiresAfter(12)
        bounded = FrameEncoder(EncoderConfig(qp=26.0, deadline=deadline)).encode(frames)
        assert deadline.checks == 0  # exactly the 12 polls counted above
        assert bounded.data == FrameEncoder(EncoderConfig(qp=26.0)).encode(frames).data
