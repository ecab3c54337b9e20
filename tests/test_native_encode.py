"""Unit tests for the native encode kernels and their plumbing.

Covers, kernel by kernel, the exactness contracts the fuzz suite
(``test_encode_fuzz.py``) relies on at the stream level:

- the fused coefficient-block writer against the primitive-call entropy
  coder (bytes and adapted context banks);
- pass 1's pick kernel against its numpy twin, bitwise, on
  ``(best_mode, best_cost)`` (random grids, directed edge cases, real
  frames across profiles / sizes / dead zones / QPs);
- pass 1's whole-group kernel: its refusals, and batched predictions
  against the per-block predictor its twin is built from;
- the refs kernel against the original scalar boundary walk;
- the build pipeline: the one library's status, cache GC accounting,
  and the degrade-once-with-one-event behaviour when a build or a
  check fails, for every entry at once;
- the parallel-encode dispatch thresholds and fallback accounting;
- the ``encode=`` plumbing through config, codec, and the serving record.
"""

from __future__ import annotations

import dataclasses
import inspect
import os

import numpy as np
import pytest

from repro import telemetry
from repro.codec import intra
from repro.codec.encoder import (
    _PARALLEL_MIN_BYTES,
    _PARALLEL_MIN_SLICES,
    ENCODES,
    EncoderConfig,
    FrameEncoder,
)
from repro.codec import pass1 as pass1_mod
from repro.codec.pass1 import _level_rate_table, _pass1_pick, _quantize_costs
from repro.codec.entropy import native
from repro.codec.entropy.arithmetic import BinaryEncoder
from repro.codec.intra import gather_references
from repro.codec.profiles import AV1_PROFILE, H264_PROFILE, H265_PROFILE
from repro.codec.quantizer import qstep, rd_lambda
from repro.codec.reference import gather_references_scalar
from repro.codec.syntax import (
    CodecContexts,
    encode_coeff_block,
    encode_coeff_block_primitive,
)
from repro.parallel import ParallelConfig
from repro.serving.ladder import DEFAULT_LADDER, Rung
from repro.telemetry import flightrecorder
from repro.tensor.codec import TensorCodec

pytestmark = pytest.mark.pure_python

needs_library = pytest.mark.skipif(
    not native.available(), reason="kernel library unavailable"
)


def _blocks(seed: int = 0):
    rng = np.random.default_rng(seed)
    blocks = [
        rng.integers(-30, 30, (n, n)).astype(np.int64) for n in (4, 8, 16, 32)
    ]
    blocks.append(np.zeros((8, 8), dtype=np.int64))  # cbf=0 path
    sparse = np.zeros((16, 16), dtype=np.int64)
    sparse[0, 0] = 1
    sparse[15, 15] = -3
    blocks.append(sparse)
    big = np.zeros((4, 4), dtype=np.int64)
    big[0, 0] = 1 << 40  # long Exp-Golomb suffix
    big[3, 3] = -(1 << 33)
    blocks.append(big)
    return blocks


def _code(blocks, writers):
    """(stream bytes, context banks) after coding ``blocks`` in order,
    block ``i`` through ``writers[i % len(writers)]``."""
    enc = BinaryEncoder()
    ctx = CodecContexts()
    for index, block in enumerate(blocks):
        writers[index % len(writers)](enc, ctx, block)
    banks = [list(ctx.cbf.probs), list(ctx.last.probs),
             list(ctx.sig.probs), list(ctx.level.probs)]
    return enc.finish(), banks


class TestWriteKernel:
    def test_matches_primitive_coder(self):
        # Bytes AND every adapted context probability: the fused writer
        # codes the cbf bin, the last-position UEG, and the full scan
        # (the slice-encode kernel's C copy of it is held to the same
        # bytes in tests/test_slice_encode.py).
        blocks = _blocks(3)
        assert _code(blocks, [encode_coeff_block]) == _code(
            blocks, [encode_coeff_block_primitive]
        )

    def test_interleaved_with_python_blocks(self):
        # Alternating fused / primitive blocks on one shared coder: the
        # state each leaves behind must be exact mid-stream, not just at
        # the end.
        blocks = _blocks(9)
        mixed = _code(blocks, [encode_coeff_block_primitive, encode_coeff_block])
        assert mixed == _code(blocks, [encode_coeff_block])


class TestCostKernel:
    @needs_library
    @pytest.mark.parametrize("deadzone", [0.0, 0.25])
    def test_fused_matches_numpy_bitwise(self, deadzone):
        rng = np.random.default_rng(13)
        coeffs = rng.normal(0, 40, (10, 64))
        pred = rng.normal(0, 40, (10, 7, 64))
        _assert_pick_identical(coeffs, pred, *_two_qp_params(rng, 10, 7), deadzone)

    def test_huge_magnitudes_clamp_to_table_top(self):
        # The twin's rate statistics, which the pick kernel's are held
        # to: magnitudes beyond the table share its top entry.
        table = _level_rate_table()
        flat = np.array([[1e9, -1e9, 0.0, float(len(table)), 0.0]])
        levels, rate, nnz, last = _quantize_costs(flat, 0.0)
        np.testing.assert_array_equal(levels, np.rint(flat))
        assert rate.tolist() == [3 * int(table[-1])]
        assert nnz.tolist() == [3] and last.tolist() == [3]

    @needs_library
    def test_fused_rejects_noncontiguous(self):
        coeffs = np.zeros((4, 128))[:, ::2]
        params = _two_qp_params(np.random.default_rng(1), 4, 3)
        args = (np.zeros((4, 3, 64)), *params, 0.0, _level_rate_table())
        assert native.cost_pick(coeffs, *args) is None
        assert native.cost_pick(np.ascontiguousarray(coeffs), *args) is not None


def _two_qp_params(rng, n_blocks, n_modes, qps=(18.0, 24.0)):
    """``(inv_step, step2, lam, mode_bits)`` with every block on one of two QPs."""
    qp = rng.choice(qps, n_blocks)
    step = np.array([qstep(q) for q in qp])
    lam = np.array([rd_lambda(q) for q in qp])
    return 1.0 / step, step * step, lam, rng.uniform(1.0, 6.0, n_modes)


def _assert_pick_identical(*args):
    """Kernel == twin, bit for bit, on ``_pass1_pick``'s positional
    arguments up to ``deadzone``; returns the common ``(pick, cost)``."""
    with telemetry.session() as registry:
        kernel = _pass1_pick(*args, native_ok=True)
    assert "encode.kernel_refusals" not in registry.counters
    twin = _pass1_pick(*args, native_ok=False)
    assert kernel[0].dtype == twin[0].dtype == np.int64
    assert kernel[0].tobytes() == twin[0].tobytes()
    assert kernel[1].tobytes() == twin[1].tobytes()  # +0.0 / -0.0 / nan differ
    return twin


@needs_library
class TestPickKernel:
    def test_exact_tie_goes_to_the_earlier_candidate(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(0, 40, (3, 16))
        pred = rng.normal(0, 40, (3, 5, 16))
        params = list(_two_qp_params(rng, 3, 5))
        # Candidates 1 and 3 made identical (prediction and mode rate),
        # and far better than the rest: an exact tie for the minimum.
        pred[:, 1] = pred[:, 3] = coeffs + 0.25
        params[3][3] = params[3][1]
        for deadzone in (0.0, 0.15):
            pick, _ = _assert_pick_identical(coeffs, pred, *params, deadzone)
            assert pick.tolist() == [1, 1, 1]

    def test_all_zero_block_costs_one_bit(self):
        rng = np.random.default_rng(6)
        coeffs = rng.normal(0, 40, (2, 64))
        pred = coeffs[:, None, :] + rng.normal(0, 0.01, (2, 3, 64))  # |x| << 0.5
        inv_step, step2, lam, mode_bits = _two_qp_params(rng, 2, 3)
        for deadzone in (0.0, 0.2):
            pick, cost = _assert_pick_identical(
                coeffs, pred, inv_step, step2, lam, mode_bits, deadzone
            )
            # last == -1, bits == 1: the cost is the residual energy + lam * (1 + mode).
            err = (coeffs[:, None, :] - pred) * inv_step[:, None, None]
            sse = (err * err).sum(axis=2) * step2[:, None]
            want = sse + lam[:, None] * (1.0 + mode_bits)
            np.testing.assert_allclose(cost, want[np.arange(2), pick], rtol=1e-12)

    def test_magnitudes_beyond_the_rate_table(self):
        table = _level_rate_table()
        rng = np.random.default_rng(7)
        coeffs = np.zeros((2, 16))
        coeffs[0, :4] = [1e9, -1e9, float(len(table)), 3e18]
        coeffs[1, 5] = -float(len(table) - 1)
        pred = rng.normal(0, 1, (2, 4, 16))
        step = np.ones(2)
        params = (step, step, np.array([4.0, 9.0]), rng.uniform(1.0, 6.0, 4))
        for deadzone in (0.0, 0.15):
            _assert_pick_identical(coeffs, pred, *params, deadzone)

    def test_width_beyond_stack_buffer_declines_to_the_twin(self):
        rng = np.random.default_rng(8)
        coeffs = rng.normal(0, 40, (2, 4097))  # also not a multiple of four
        pred = rng.normal(0, 40, (2, 3, 4097))
        params = _two_qp_params(rng, 2, 3)
        assert native.cost_pick(
            coeffs, pred, *params, 0.15, _level_rate_table()
        ) is None
        with telemetry.session() as registry:
            got = _pass1_pick(coeffs, pred, *params, 0.15, native_ok=True)
        # The hand-back is counted, once; the pinned twin never counts.
        assert registry.counters.get("encode.kernel_refusals") == 1
        with telemetry.session() as registry:
            want = _pass1_pick(coeffs, pred, *params, 0.15, native_ok=False)
        assert "encode.kernel_refusals" not in registry.counters
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("width", [1, 2, 3, 5, 6, 7, 18])
    def test_lane_tail_matches_zero_padding(self, width):
        # Widths off the four-lane grid: the kernel's tail loop against
        # the twin's zero-padded lanes.
        rng = np.random.default_rng(width)
        coeffs = rng.normal(0, 40, (6, width))
        pred = rng.normal(0, 40, (6, 4, width))
        for deadzone in (0.0, 0.15):
            _assert_pick_identical(
                coeffs, pred, *_two_qp_params(rng, 6, 4), deadzone
            )

    @pytest.mark.parametrize("qp", [26.0, 24.5], ids=["int-qp", "frac-qp"])
    @pytest.mark.parametrize("deadzone", [0.0, 0.15, 0.2])
    @pytest.mark.parametrize(
        "profile", [H264_PROFILE, H265_PROFILE, AV1_PROFILE], ids=lambda p: p.name
    )
    def test_identical_on_real_frames(self, profile, deadzone, qp, monkeypatch):
        # Every pass-1 pick of real encodes (the 50 x 70 frame is
        # edge-padded to the CTU grid: flat borders tie candidates; the
        # fractional QP dithers two QPs into each slice), replayed
        # through kernel and twin.  The twin's encode hands the pick its
        # candidate rows; the kernel's keeps them in C.
        calls = []
        real = pass1_mod._pass1_pick

        def spy(*args):
            calls.append(args[:-1])
            return real(*args)

        monkeypatch.setattr(pass1_mod, "_pass1_pick", spy)
        rng = np.random.default_rng(31)
        config = EncoderConfig(
            profile=dataclasses.replace(profile, deadzone=deadzone),
            qp=qp,
            encode="python",
        )
        with telemetry.session() as registry:
            for height, width in ((64, 64), (50, 70)):
                base = (
                    np.linspace(30, 220, width)[None, :]
                    + np.linspace(-40, 40, height)[:, None]
                )
                noisy = base + rng.normal(0, 22, (height, width))
                FrameEncoder(config).encode(
                    [np.clip(noisy, 0, 255).astype(np.uint8)]
                )
        assert "encode.kernel_refusals" not in registry.counters
        sizes = {profile.ctu_size >> depth for depth in range(3)}
        assert {args[0].shape[1] for args in calls} == {n * n for n in sizes}
        for args in calls:
            assert args[6] == deadzone
            _assert_pick_identical(*args)


class TestPass1Kernel:
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_batched_predictions_equal_per_block_predict(self, n):
        # The twin predicts every block of a group at once; each plane is
        # what ``intra.predict`` makes of its own block's references.
        rng = np.random.default_rng(n)
        refs = rng.integers(0, 256, (5, 4 * n + 2)).astype(np.float64)
        refs[1] = 77.0  # a flat window
        top, left = refs[:, : 2 * n + 1], refs[:, 2 * n + 1 :]
        modes = H265_PROFILE.all_modes
        batched = intra.predict_many(top, left, modes, n)
        assert batched.shape == (5, len(modes), n, n)
        for b in range(5):
            for m, mode in enumerate(modes):
                want = intra.predict(top[b], left[b], mode, n)
                assert batched[b, m].tobytes() == want.tobytes(), (b, mode)

    @needs_library
    def test_declined_arguments_fall_back_counted(self):
        rng = np.random.default_rng(4)
        planes = rng.integers(0, 256, (2, 32, 48)).astype(np.float64)
        modes = H265_PROFILE.coarse_modes()
        inv_step, step2, lam, _ = _two_qp_params(rng, 2 * 4 * 6, len(modes))
        args = (inv_step, step2, lam, 0.15)
        want = pass1_mod.rank(planes, 8, modes, *args, native_ok=False)
        costing = (*args[:3], pass1_mod._anchor_mode_bits(modes), 0.15)
        costing += (_level_rate_table(),)
        # A strided plane stack, a size the codec does not have, a plane
        # that is not whole blocks: the kernel declines each.
        assert native.pass1_rank(planes[:, :, ::2], 8, modes, *costing) is None
        assert native.pass1_rank(planes, 12, modes, *costing) is None
        assert native.pass1_rank(planes[:, :30].copy(), 8, modes, *costing) is None
        assert not native.pass1_analyse(
            planes, 8, modes, np.empty((48, 63)), np.empty((48, len(modes), 64))
        )
        got = native.pass1_rank(planes, 8, modes, *costing)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        # ``rank`` copies planes of any layout; a strided per-block array
        # is declined, ranked by the twin and counted.
        strided = np.repeat(inv_step, 2)[::2]
        with telemetry.session() as registry:
            fell_back = pass1_mod.rank(
                np.asfortranarray(planes), 8, modes, strided, *args[1:],
                native_ok=True,
            )
        assert registry.counters.get("encode.kernel_refusals") == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(fell_back, want))

    @needs_library
    def test_c_refuses_out_of_range_modes(self):
        # The entry's own trust boundary, past the wrapper's checks.
        planes = np.zeros((1, 16, 16))
        coeffs, pred = np.empty((4, 64)), np.empty((4, 2, 64))
        call = native._resolve().llm265_pass1_group
        assert not native._pass1_call(call, planes, 8, (0, 35), None, (coeffs, pred))
        assert not native._pass1_call(call, planes, 8, (0, -1), None, (coeffs, pred))
        assert not native._pass1_call(call, planes, 8, (0, 1), None, None)
        assert native._pass1_call(call, planes, 8, (0, 1), None, (coeffs, pred))


class TestRefsKernel:
    @needs_library
    def test_fuzz_against_scalar_walk(self):
        rng = np.random.default_rng(17)
        for _ in range(150):
            h = int(rng.integers(8, 80))
            w = int(rng.integers(8, 80))
            recon = rng.normal(128, 40, (h, w))
            mask = rng.random((h, w)) < rng.random()
            n = int(rng.choice([4, 8, 16, 32]))
            y0 = int(rng.integers(-4, h + 4))
            x0 = int(rng.integers(-4, w + 4))
            got = native.refs(recon, mask, y0, x0, n)
            assert got is not None
            top, left = got
            ref_top, ref_left = gather_references_scalar(recon, mask, y0, x0, n)
            np.testing.assert_array_equal(top, ref_top)
            np.testing.assert_array_equal(left, ref_left)

    @needs_library
    def test_all_unavailable_is_midgrey(self):
        recon = np.zeros((16, 16))
        mask = np.zeros((16, 16), dtype=bool)
        top, left = gather_references(recon, mask, 0, 0, 8)
        assert (top == 128.0).all() and (left == 128.0).all()

    @needs_library
    def test_guards_fall_back(self):
        mask = np.ones((16, 16), dtype=bool)
        # Wrong dtype and oversized block both decline, never crash.
        assert native.refs(np.zeros((16, 16), np.float32), mask, 0, 0, 4) is None
        assert native.refs(np.zeros((16, 16)), mask, 0, 0, 600) is None


class TestBuildPipeline:
    def test_kernel_status_shape(self):
        status = native.kernel_status(resolve=False)
        assert set(status) == {"library"}
        allowed = {"unloaded", "ready", "pure-python", "no-compiler", "failed"}
        assert set(status.values()) <= allowed

    def test_cache_gc_prunes_stale_objects(self, monkeypatch):
        os.makedirs(native._BUILD_DIR, exist_ok=True)
        stale = os.path.join(native._BUILD_DIR, "write_kernel_0000dead0000.so")
        keep = os.path.join(native._BUILD_DIR, "notes.txt")
        for path in (stale, keep):
            with open(path, "w") as fh:
                fh.write("x")
        try:
            monkeypatch.setattr(native, "_pruned", False)
            with telemetry.session() as registry:
                removed = native._prune_stale()
            assert removed >= 1
            assert not os.path.exists(stale)
            assert os.path.exists(keep)  # only .so files are GC'd
            assert registry.counters.get("native.cache_pruned", 0) >= 1
            # The live library survived the sweep.
            if native.kernel_status(resolve=False)["library"] == "ready":
                assert os.path.exists(native._so_path())
        finally:
            for path in (stale, keep):
                if os.path.exists(path):
                    os.unlink(path)

    @needs_library
    def test_a_resolve_leaves_one_object(self, monkeypatch):
        # Every entry lives in one shared object: after a load and the
        # sweep, the build directory holds it and nothing else.
        assert native._resolve() is not None
        stale = os.path.join(native._BUILD_DIR, "kernels_0000dead0000.so")
        with open(stale, "w") as fh:
            fh.write("x")
        monkeypatch.setattr(native, "_pruned", False)
        native._prune_stale()
        objects = [n for n in os.listdir(native._BUILD_DIR) if n.endswith(".so")]
        assert objects == [os.path.basename(native._so_path())]

    def test_gc_runs_once_per_process(self, monkeypatch):
        monkeypatch.setattr(native, "_pruned", True)
        assert native._prune_stale() == 0

    def test_build_failure_degrades_with_one_event(self, monkeypatch):
        # The pure-python opt-out short-circuits before any build is
        # attempted; lift it so the failure path actually runs.
        monkeypatch.delenv("LLM265_PURE_PYTHON", raising=False)
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)

        def boom():
            raise FileNotFoundError("no C compiler on PATH")

        monkeypatch.setattr(native, "_build", boom)
        recorder = flightrecorder.FlightRecorder()
        previous = flightrecorder.set_recorder(recorder)
        try:
            with telemetry.session() as registry:
                assert native._resolve() is None
                assert native.kernel_status() == {"library": "no-compiler"}
                # Repeated resolves degrade silently: still one event.
                assert native._resolve() is None
                events = [
                    e for e in recorder.snapshot()
                    if e["kind"] == "native.build_failed"
                ]
                assert len(events) == 1
                assert events[0]["fields"]["stage"] == "build"
                assert registry.counters.get("native.build_failed") == 1
        finally:
            flightrecorder.set_recorder(previous)

    @needs_library
    def test_a_failing_check_declines_every_entry(self, monkeypatch):
        # The entries share code, so one failed check -- here the last,
        # the pick's -- refuses all of them, the decoder's too: each
        # declines before it reads an argument.
        monkeypatch.delenv("LLM265_PURE_PYTHON", raising=False)
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)

        def disagree(_lib):
            raise RuntimeError("cost pick disagrees with numpy")

        monkeypatch.setattr(native, "_check_pick", disagree)
        entries = (
            native.plan_slices,
            native.reconstruct_slices,
            native.encode_slices,
            native.cost_pick,
            native.refs,
            native.dct2,
        )
        recorder = flightrecorder.FlightRecorder()
        previous = flightrecorder.set_recorder(recorder)
        try:
            with telemetry.session() as registry:
                for _ in range(2):  # the second round retries nothing
                    for entry in entries:
                        required = [
                            p for p in inspect.signature(entry).parameters.values()
                            if p.default is p.empty
                        ]
                        assert not entry(*[None] * len(required)), entry.__name__
                assert registry.counters.get("native.build_failed") == 1
            events = [
                e for e in recorder.snapshot() if e["kind"] == "native.build_failed"
            ]
            assert len(events) == 1 and events[0]["fields"]["stage"] == "pick"
        finally:
            flightrecorder.set_recorder(previous)
        assert native.kernel_status() == {"library": "failed"}
        assert not native.available()

    def test_missing_kernel_never_blocks_encode(self, monkeypatch):
        # encode="native" with the pick / slice-encode kernels
        # unavailable is the pure path with the same bytes, not an error.
        frames = [np.full((32, 32), 90, dtype=np.uint8)]
        ref = FrameEncoder(EncoderConfig(qp=24.0, encode="python")).encode(frames)
        monkeypatch.setattr(native, "encode_slices", lambda *a, **k: None)
        monkeypatch.setattr(native, "cost_pick", lambda *a, **k: None)
        got = FrameEncoder(EncoderConfig(qp=24.0, encode="native")).encode(frames)
        assert got.data == ref.data


class TestParallelDispatch:
    def test_thresholds_pinned(self):
        # The dispatch gate (these constants + the >1 effective CPU
        # guard) is what backs the "parallel encode never loses to
        # serial" claim; changing either needs a deliberate re-measure.
        assert _PARALLEL_MIN_SLICES == 4
        assert _PARALLEL_MIN_BYTES == 1 << 16

    @staticmethod
    def _tiny_frames(n):
        rng = np.random.default_rng(23)
        return [
            rng.integers(0, 255, (32, 32)).astype(np.uint8) for _ in range(n)
        ]

    def test_below_threshold_falls_back_serial(self):
        frames = self._tiny_frames(2)  # < MIN_SLICES and < MIN_BYTES
        par = ParallelConfig(workers=2)
        with telemetry.session() as registry:
            got = FrameEncoder(
                EncoderConfig(qp=24.0, parallel=par)
            ).encode(frames)
        assert registry.counters.get("encode.parallel_threshold_fallbacks") == 1
        serial = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames)
        assert got.data == serial.data

    def test_single_cpu_falls_back_serial(self, monkeypatch):
        import repro.codec.encoder as encoder_mod

        monkeypatch.setattr(encoder_mod, "_effective_cpus", lambda: 1)
        frames = [
            np.zeros((128, 128), dtype=np.uint8) for _ in range(_PARALLEL_MIN_SLICES)
        ]  # above both size thresholds; the CPU guard alone must trip
        par = ParallelConfig(workers=2)
        with telemetry.session() as registry:
            got = FrameEncoder(
                EncoderConfig(qp=24.0, parallel=par)
            ).encode(frames)
        assert registry.counters.get("encode.parallel_threshold_fallbacks") == 1
        serial = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames)
        assert got.data == serial.data

    @needs_library
    def test_parallel_stream_identical_when_dispatched(self, monkeypatch):
        import repro.codec.encoder as encoder_mod

        monkeypatch.setattr(encoder_mod, "_effective_cpus", lambda: 4)
        rng = np.random.default_rng(29)
        # Two pass-1 groups of four 128 x 128 frames: a fan-out hands out
        # whole groups, and one group alone stays serial
        # (tests/test_pass1_groups.py).
        frames = [
            rng.integers(0, 255, (128, 128)).astype(np.uint8)
            for _ in range(2 * _PARALLEL_MIN_SLICES)
        ]
        # Threads fan out only where a slice is one GIL-free kernel call
        # (tests/test_slice_encode.py pins the rule).
        par = ParallelConfig(workers=2)
        with telemetry.session() as registry:
            got = FrameEncoder(
                EncoderConfig(qp=24.0, parallel=par)
            ).encode(frames)
            fallbacks = registry.counters.get(
                "encode.parallel_threshold_fallbacks", 0
            )
        assert fallbacks == 0  # this one actually fanned out
        serial = FrameEncoder(EncoderConfig(qp=24.0)).encode(frames)
        assert got.data == serial.data and got.mse == serial.mse


class TestEncodePlumbing:
    def test_encoder_config_validates(self):
        assert EncoderConfig(encode="python").encode == "python"
        with pytest.raises(ValueError):
            EncoderConfig(encode="bogus")

    @pytest.mark.parametrize(
        "qp", [60.5, 51.25, -3.0, -0.5, float("nan"), float("inf")]
    )
    def test_qp_outside_the_codable_range_is_refused(self, qp):
        # Above 51 the per-CTU dither bumped the base *down* to 51 on
        # every other CTU; below 0 the header coded 0 while the container
        # kept the caller's QP.  Either way a different QP was coded.
        with pytest.raises(ValueError, match="qp must be"):
            EncoderConfig(qp=qp)
        with pytest.raises(ValueError, match="qp must be"):
            TensorCodec(tile=64).encode(np.zeros((8, 8), np.float32), qp=qp)

    def test_qp_range_ends_are_codable(self):
        tensor = np.linspace(-1, 1, 16 * 16, dtype=np.float32).reshape(16, 16)
        for qp in (0.0, 50.999, 51.0):
            assert EncoderConfig(qp=qp).qp == qp
            assert TensorCodec(tile=64).encode(tensor, qp=qp).qp == qp

    def test_tensor_codec_forwards_backend(self):
        with pytest.raises(ValueError):
            TensorCodec(encode="bogus")
        tensor = np.linspace(-1, 1, 64 * 64, dtype=np.float32).reshape(64, 64)
        a = TensorCodec(tile=64, encode="native").encode(tensor, qp=24.0)
        b = TensorCodec(tile=64, encode="python").encode(tensor, qp=24.0)
        assert a.data == b.data

    def test_ladder_rungs_pin_backends(self):
        with pytest.raises(ValueError):
            Rung("bad", None, encode="bogus")
        # One production record: kernels, two slice threads.  Without
        # the kernels every entry falls back to the twin by itself.
        (record,) = DEFAULT_LADDER
        assert (record.name, record.encode) == ("turbo", "native")
        assert record.parallel.workers == 2

    def test_encodes_tuple_is_closed(self):
        assert ENCODES == ("native", "python")
