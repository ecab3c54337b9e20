"""The decoder's two stages run once per group of slices; no sample notices.

``FrameDecoder`` hands its entropy -> reconstruct stages a
*group* of consecutive slices (``encoder.GROUP_SAMPLES`` padded samples:
a KV page's four one-CTU slices, four 128 x 128 tiles, one 256 x 256
tile; single slices on an inter stream).  The contract under test:

* *group invariance* -- a frame's samples are the same decoded alone,
  first or last in a group, or either side of a group boundary;
* *kernel == twin* -- on the group's plan arrays, level buffer and
  per-slice report (coder end state, ``scan_bins``, leaf / level ends),
  not only on samples;
* *fan-out* -- workers are handed whole groups, so serial == thread,
  samples and ``DecodeStats`` (without the kernels a parallel config
  stays serial);
* *damage inside a group* -- a CRC-valid slice that does not parse, in
  the middle of a group: the same error (strict) or the same frames and
  report (conceal) as when every slice is decoded alone;
* *call counts* -- a KV page is 2 kernel calls, whatever its coded leaf
  sizes;
* *trust boundary* -- both C loops against starved capacities, empty
  segments and slice boundaries that are not boundaries.

Cases that need a C kernel skip themselves, so the file also runs in
the ``LLM265_PURE_PYTHON=1`` leg.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

import repro.telemetry as telemetry
from benchmarks.identity_matrix import PROFILES, QPS
from repro.codec import decoder as decoder_mod
from repro.codec import encoder as encoder_mod
from repro.codec import reference
from repro.codec.decoder import FrameDecoder, decode_frames, decode_frames_with_report
from repro.codec.encoder import (
    GROUP_SAMPLES,
    EncoderConfig,
    FrameEncoder,
    pack_header,
    unpack_header,
)
from repro.codec.entropy import native
from repro.parallel import ParallelConfig, pool_stats
from repro.resilience import CorruptStreamError, deframe_slices, frame_slices
from repro.resilience.framing import SLICE_OVERHEAD

pytestmark = [pytest.mark.fuzz, pytest.mark.pure_python]

needs_kernels = pytest.mark.skipif(
    not native.available(), reason="slice kernels unavailable (no compiler or pure-python)"
)

_SHAPES = ((16, 32), (32, 32), (50, 70), (33, 17))
_COUNTS = (1, 3, 4, 5, 9)
_REPORT = {name: column for column, name in enumerate(native.SLICE_REPORT)}


def _frames(shape, count, seed=0):
    height, width = shape
    base = np.linspace(30, 220, width)[None, :] + np.linspace(-40, 40, height)[:, None]
    return [
        np.clip(
            base + np.random.default_rng([height, width, k, seed]).normal(0, 22, shape),
            0, 255,
        ).astype(np.uint8)
        for k in range(count)
    ]


def _segments(data):
    return deframe_slices(data[unpack_header(data)["header_size"] :])[0]


def _prefix(config, shape, segments, count):
    """The stream of the first ``count`` frames: slices are independent of
    one another, so it is a new header over the same framed payloads."""
    return pack_header(config, shape[1], shape[0], count) + frame_slices(segments[:count])


def _padded_samples(shape, profile):
    ctu = profile.ctu_size
    return (shape[0] + -shape[0] % ctu) * (shape[1] + -shape[1] % ctu)


def _kv_stream(seed=0):
    """What the service makes of an 8 KiB KV page: four 16 x 32 slices at QP 26."""
    rng = np.random.default_rng(seed)
    frames = [
        np.clip(128 + rng.normal(0, 40, (16, 32)), 0, 255).astype(np.uint8)
        for _ in range(4)
    ]
    return FrameEncoder(EncoderConfig(qp=26.0)).encode(frames).data


# -- (i) group invariance ------------------------------------------------------


def _assert_group_invariant(monkeypatch, shape, counts, **config):
    """Every prefix of ``counts`` frames decodes to the samples each frame
    has alone -- in the default groups and in groups of three, so each
    frame is tried first, last and either side of a boundary."""
    config = EncoderConfig(**config)
    frames = _frames(shape, max(counts))
    segments = _segments(FrameEncoder(config).encode(frames).data)
    padded = _padded_samples(shape, config.profile)
    monkeypatch.setattr(encoder_mod, "GROUP_SAMPLES", 0)  # every slice alone
    alone = decode_frames(_prefix(config, shape, segments, len(frames)))
    for budget in (GROUP_SAMPLES, 3 * padded):
        monkeypatch.setattr(encoder_mod, "GROUP_SAMPLES", budget)
        for count in counts:
            grouped = decode_frames(_prefix(config, shape, segments, count))
            assert len(grouped) == count
            moved = [
                index
                for index, (got, want) in enumerate(zip(grouped, alone))
                if got.dtype != np.uint8 or not np.array_equal(got, want)
            ]
            assert not moved, (
                f"frames {moved} of {count} depend on their group "
                f"({max(1, budget // padded)} slices a group)"
            )


def _cases():
    """Profile x QP x shape; the twin decodes ~30x slower and joins
    per-slice plans the same way at every QP, so it takes the dithered
    one only."""
    qps = QPS if native.available() else (24.5,)
    return [
        pytest.param(profile, qp, shape, id=f"{profile.name}-{qp}-{shape[0]}x{shape[1]}")
        for profile in PROFILES
        for qp in qps
        for shape in _SHAPES
    ]


class TestGroupInvariance:
    @pytest.mark.parametrize("profile, qp, shape", _cases())
    def test_samples_do_not_depend_on_group_mates(self, monkeypatch, profile, qp, shape):
        _assert_group_invariant(monkeypatch, shape, _COUNTS, profile=profile, qp=qp)

    @needs_kernels
    @pytest.mark.parametrize("shape", [(128, 128), (256, 256)])
    def test_large_tiles_under_a_dithered_qp(self, monkeypatch, shape):
        # Four 128 x 128 tiles to a group (4 | 5 straddles it); a
        # 256 x 256 tile is a group of one whatever the bound.
        _assert_group_invariant(monkeypatch, shape, (1, 4, 5), qp=24.5)

    def test_inter_streams_are_groups_of_one(self, monkeypatch):
        frames = _frames((32, 32), 5)
        encoder = reference.ReferenceEncoder(EncoderConfig(qp=24.5, use_inter=True))
        data = encoder.encode(frames).data
        sizes = []
        real = FrameDecoder._decode_group

        def spy(self, segments, indices, qps):
            sizes.append(len(segments))
            return real(self, segments, indices, qps)

        monkeypatch.setattr(FrameDecoder, "_decode_group", spy)
        decoder = FrameDecoder(data)
        assert len(decoder.decode()) == 5
        assert sizes == [1] * 5
        # The last plane, which every frame before it fed, is the
        # encoder's.
        assert decoder._reference.tobytes() == encoder._reference.tobytes()


# -- (ii) kernel == twin, on the arrays ------------------------------------------


class _PlanProbe(FrameDecoder):
    """Keeps what stage one returned for every group."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.groups = []

    def _plan_group(self, segments, indices):
        plan, report = super()._plan_group(segments, indices)
        self.groups.append((plan, report.copy()))
        return plan, report


def _plans(data, twin=False):
    with pytest.MonkeyPatch.context() as patch:
        if twin:
            patch.setattr(native, "available", lambda: False)
        probe = _PlanProbe(data, conceal=True)
        return probe.decode(), probe.groups


def _assert_same_groups(kernel, twin):
    assert len(kernel) == len(twin)
    for (plan, report), (twin_plan, twin_report) in zip(kernel, twin):
        assert plan.n_leaves == twin_plan.n_leaves
        np.testing.assert_array_equal(
            plan.rows[:, : plan.n_leaves], twin_plan.rows[:, : twin_plan.n_leaves]
        )
        np.testing.assert_array_equal(plan.levels, twin_plan.levels)
        decoded = report[:, _REPORT["status"]] == 0
        np.testing.assert_array_equal(decoded, twin_report[:, _REPORT["status"]] == 0)
        # Coder end state, scan_bins and both ends, slice by slice; a
        # slice that failed has no state worth comparing, only its ends.
        np.testing.assert_array_equal(report[decoded, 1:], twin_report[decoded, 1:])
        np.testing.assert_array_equal(report[:, 5:], twin_report[:, 5:])


@needs_kernels
class TestKernelEqualsTwin:
    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("shape, count", [((16, 32), 4), ((50, 70), 9), ((33, 17), 5)])
    def test_group_plan_levels_and_report(self, profile, shape, count):
        data = FrameEncoder(EncoderConfig(profile=profile, qp=24.5)).encode(
            _frames(shape, count)
        ).data
        frames, kernel = _plans(data)
        twin_frames, twin = _plans(data, twin=True)
        assert sum(len(report) for _, report in kernel) == count
        assert any(len(report) > 1 for _, report in kernel)  # real groups
        _assert_same_groups(kernel, twin)
        for got, want in zip(frames, twin_frames):
            np.testing.assert_array_equal(got, want)

    def test_a_slice_of_a_group_is_the_walks_own_plan(self):
        data = _kv_stream()
        _, ((plan, report),) = _plans(data)
        probe = FrameDecoder(data)
        for k, segment in enumerate(_segments(data)):
            alone = probe._walk_slice(segment)
            own = decoder_mod._slice_of(plan.rows, plan.levels, report, k, probe._ctus)
            np.testing.assert_array_equal(own.rows, alone.rows)
            np.testing.assert_array_equal(own.levels, alone.levels)
            dec = probe._dec
            assert report[k, 1:5].tolist() == [
                dec._pos, dec._range, dec._code, dec.scan_bins
            ]


# -- (iii) fan-out hands out whole groups ---------------------------------------


def _counters(data, parallel):
    before = pool_stats()["dispatches"]
    with telemetry.session() as registry:
        frames = decode_frames(data, parallel=parallel)
    ledger = {
        name: value
        for name, value in registry.counters.items()
        if name.startswith("decode.") and ".seconds." not in name
    }
    return frames, ledger, registry.histograms["decode.qp"].to_dict(), (
        pool_stats()["dispatches"] - before
    )


class TestFanOut:
    def test_serial_thread_and_process_agree(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        rng = np.random.default_rng(3)
        # Noise clears the byte threshold; five 128 x 256 slices are
        # three groups (2 + 2 + 1), so two workers get 2 groups and 1.
        frames = [rng.integers(0, 256, (128, 256)).astype(np.uint8) for _ in range(5)]
        data = FrameEncoder(EncoderConfig(qp=20.5)).encode(frames).data
        serial, ledger, qps, dispatched = _counters(data, None)
        assert dispatched == 0 and ledger["decode.frames"] == 5
        fanned, fanned_ledger, fanned_qps, dispatched = _counters(
            data, ParallelConfig(workers=2)
        )
        # Threads dispatch only with the slice kernels loaded; without
        # them the decode stays serial and says so.
        kernels = native.available()
        assert dispatched == int(kernels)
        assert fanned_ledger.pop("decode.parallel_threshold_fallbacks", 0) == int(not kernels)
        assert fanned_ledger == ledger
        assert fanned_qps == qps
        for got, want in zip(fanned, serial):
            np.testing.assert_array_equal(got, want)

    def test_one_group_stays_serial_and_says_so(self, monkeypatch):
        monkeypatch.setattr(decoder_mod, "_effective_cpus", lambda: 8)
        rng = np.random.default_rng(4)
        frames = [rng.integers(0, 256, (128, 128)).astype(np.uint8) for _ in range(4)]
        data = FrameEncoder(EncoderConfig(qp=18.0)).encode(frames).data
        assert len(data) >= decoder_mod._PARALLEL_MIN_BYTES
        before = pool_stats()["dispatches"]
        with telemetry.session() as registry:
            decode_frames(data, parallel=ParallelConfig(workers=2))
        assert pool_stats()["dispatches"] == before
        assert registry.counters["decode.parallel_threshold_fallbacks"] == 1


# -- (iv) a slice that does not parse, inside a group ------------------------------


def _undecodable(config, shape, data, victims, seed=0):
    """``data`` with the payloads of ``victims`` damaged -- bytes flipped,
    or the tail overwritten -- until they do not parse, re-framed so
    every CRC verifies.  Whether a payload parses is its own affair, so
    each candidate is tried as a one-slice stream."""
    segments = _segments(data)
    rng = np.random.default_rng(seed)
    for victim in victims:
        for trial in range(2000):
            body = bytearray(segments[victim])
            if trial % 2:
                start = int(rng.integers(0, len(body)))
                body[start:] = rng.integers(0, 256, len(body) - start, dtype=np.uint8).tobytes()
            else:
                for _ in range(int(rng.integers(2, 9))):
                    body[int(rng.integers(0, len(body)))] ^= 1 << int(rng.integers(0, 8))
            try:
                decode_frames(_prefix(config, shape, [bytes(body)], 1))
            except CorruptStreamError:
                segments[victim] = bytes(body)
                break
        else:
            raise AssertionError(f"no undecodable mutation of slice {victim} found")
    return data[: unpack_header(data)["header_size"]] + frame_slices(segments)


def _strict(decode, data):
    with pytest.raises(CorruptStreamError) as caught:
        decode(data)
    return type(caught.value), str(caught.value)


class TestDamageInsideAGroup:
    @pytest.mark.parametrize("victims", [(2,), (1, 3), (0, 1, 2, 3, 4, 5)])
    def test_same_error_same_frames_same_report(self, monkeypatch, victims):
        config = EncoderConfig(qp=22.0)
        data = FrameEncoder(config).encode(_frames((32, 32), 6, seed=7)).data
        bad = _undecodable(config, (32, 32), data, victims)

        monkeypatch.setattr(encoder_mod, "GROUP_SAMPLES", 0)  # the per-slice loop
        want_error = _strict(decode_frames, bad)
        want_frames, want_report = decode_frames_with_report(bad)
        monkeypatch.undo()

        assert _strict(decode_frames, bad) == want_error
        with monkeypatch.context() as patch:
            patch.setattr(native, "available", lambda: False)
            assert _strict(decode_frames, bad) == want_error
        with telemetry.session() as registry:
            got_frames, got_report = decode_frames_with_report(bad)
        assert got_report.concealed == want_report.concealed == [
            (victim, "undecodable slice") for victim in victims
        ]
        assert got_report.total_slices == want_report.total_slices == 6
        for got, want in zip(got_frames, want_frames):
            np.testing.assert_array_equal(got, want)
        # One hand-back per refused slice; the twin alone refuses nothing.
        assert registry.counters.get("decode.kernel_refusals", 0) == (
            len(victims) if native.available() else 0
        )
        assert registry.counters["decode.slices_concealed"] == len(victims)

    def test_crc_damage_and_parse_damage_in_one_group(self):
        config = EncoderConfig(qp=24.5)
        data = FrameEncoder(config).encode(_frames((16, 32), 8, seed=9)).data
        clean = decode_frames(data)
        bad = bytearray(_undecodable(config, (16, 32), data, (5,)))
        size = unpack_header(data)["header_size"]
        bad[size + SLICE_OVERHEAD] ^= 0x10  # first payload byte of slice 0: its CRC fails
        decoded, report = decode_frames_with_report(bytes(bad))
        assert report.concealed == [(0, "checksum mismatch"), (5, "undecodable slice")]
        assert (decoded[0] == 128).all()  # no neighbour yet: mid-grey
        np.testing.assert_array_equal(decoded[5], clean[4])
        for index in (1, 2, 3, 4, 6, 7):
            np.testing.assert_array_equal(decoded[index], clean[index])


# -- (v) the count --------------------------------------------------------------


@needs_kernels
class TestCallCounts:
    def test_a_kv_page_is_two_kernel_calls(self, monkeypatch):
        data = _kv_stream()
        _, ((plan, _),) = _plans(data)
        coded = plan.field("coeff_offset") >= 0
        assert len(np.unique(plan.field("size")[coded])) > 1  # several sizes, one call
        calls = []
        for name in ("plan_slices", "reconstruct_slices"):
            real = getattr(native, name)
            monkeypatch.setattr(
                native, name,
                lambda *args, _real=real, _name=name, **kw: (
                    calls.append(_name) or _real(*args, **kw)
                ),
            )
        with telemetry.session() as registry:
            frames = decode_frames(data)
        assert len(frames) == 4
        assert calls == ["plan_slices", "reconstruct_slices"]
        assert "decode.kernel_refusals" not in registry.counters


# -- the trust boundary of the two C loops ---------------------------------------

_GUARD = np.int64(0x5A5A5A5A5A5A5A5A)


def _raw_plan(segments, header, profile, padded, leaf_cap, level_cap):
    """``llm265_decode_slices`` itself, every buffer it writes followed by
    guard words: (report, rows, levels) -- asserts the guards held."""
    count = len(segments)
    height, width = padded
    cols = len(native.SLICE_REPORT)
    report = np.full(count * cols + 8, _GUARD)
    banks = np.full(count * native.BANK_TOTAL + 8, 0x5A5A5A5A, dtype=np.int32)
    table = np.full(native.PLAN_ROWS * leaf_cap + 8, _GUARD)
    levels = np.full(level_cap + 8, _GUARD)
    mode_map = np.full((height // 4) * (width // 4) + 8, 0x5A, dtype=np.int8)
    lengths = np.array([len(s) for s in segments], dtype=np.int64)
    modes = np.array(profile.all_modes, dtype=np.int32)
    native._resolve().llm265_decode_slices(
        (ctypes.c_char_p * count)(*segments), lengths.ctypes.data, count,
        report.ctypes.data, banks.ctypes.data, height, width,
        header["ctu"], header["min_cu"], header["use_partition"], header["use_intra"],
        False, modes.ctypes.data, len(modes), mode_map.ctypes.data,
        table.ctypes.data, leaf_cap, levels.ctypes.data, level_cap,
    )
    assert (report[count * cols :] == _GUARD).all()
    assert (banks[count * native.BANK_TOTAL :] == 0x5A5A5A5A).all()
    assert (table[native.PLAN_ROWS * leaf_cap :] == _GUARD).all()
    assert (levels[level_cap:] == _GUARD).all()
    assert (mode_map[(height // 4) * (width // 4) :] == 0x5A).all()
    return (
        report[: count * cols].reshape(count, cols),
        table[: native.PLAN_ROWS * leaf_cap].reshape(native.PLAN_ROWS, leaf_cap),
        levels[:level_cap],
    )


@needs_kernels
class TestTrustBoundary:
    def test_starved_capacities_at_every_slice_boundary(self):
        # Four CTUs a slice: every slice has at least four leaves.
        data = FrameEncoder(EncoderConfig(qp=20.0)).encode(_frames((64, 64), 4, seed=5)).data
        probe = FrameDecoder(data)
        header, profile = probe._header, probe._profile
        segments = _segments(data)
        _, ((plan, full),) = _plans(data)
        leaf_ends = full[:, _REPORT["leaf_end"]].tolist()
        level_ends = full[:, _REPORT["level_end"]].tolist()
        assert min(np.diff([0] + leaf_ends)) > 1  # +- 1 stays inside a slice

        def run(leaf_cap, level_cap):
            report, rows, levels = _raw_plan(
                segments, header, profile, (64, 64), leaf_cap, level_cap
            )
            status = report[:, _REPORT["status"]]
            # The ends are slice boundaries whatever was refused, and
            # never pass a capacity.
            assert (np.diff(np.concatenate([[0], report[:, 5]])) >= 0).all()
            assert report[-1, 5] <= leaf_cap and report[-1, 6] <= level_cap
            # Up to the first refusal the buffers hold the full plan's prefix.
            accepted = len(status) if not status.any() else int(np.argmax(status != 0))
            n_leaves = leaf_ends[accepted - 1] if accepted else 0
            n_levels = level_ends[accepted - 1] if accepted else 0
            np.testing.assert_array_equal(rows[:, :n_leaves], plan.rows[:, :n_leaves])
            np.testing.assert_array_equal(levels[:n_levels], plan.levels[:n_levels])
            np.testing.assert_array_equal(report[:accepted], full[:accepted])
            return status.tolist()

        assert run(leaf_ends[-1], level_ends[-1]) == [0, 0, 0, 0]
        for k in range(4):
            for delta in (-1, 0, 1):
                # Leaves run out inside slice k (-1), exactly after it
                # (0), one leaf into the next (+1): the first slice that
                # does not fit is refused with the capacity status.
                status = run(leaf_ends[k] + delta, level_ends[-1])
                first = k if delta < 0 else k + 1
                assert status[:first] == [0] * first, (k, delta)
                assert first == 4 or status[first] == 6, (k, delta)
                status = run(leaf_ends[-1], level_ends[k] + delta)
                assert status[:first] == [0] * first, (k, delta)
                assert first == 4 or status[first] == 6, (k, delta)
        assert run(0, 0) == [6, 6, 6, 6]

    def test_empty_and_one_byte_segments_inside_a_group(self):
        # Past the end of its bytes a coder reads zeros: an empty or a
        # one-byte payload is a (valid) stream of zero bits to the walk
        # and must be one to the kernel, between two real slices.
        data = _kv_stream(seed=2)
        size = unpack_header(data)["header_size"]
        segments = _segments(data)
        segments[1], segments[2] = b"", b"\x00"
        mixed = data[:size] + frame_slices(segments)
        frames, kernel = _plans(mixed)
        twin_frames, twin = _plans(mixed, twin=True)
        _assert_same_groups(kernel, twin)
        assert not kernel[0][1][:, _REPORT["status"]].any()
        clean = decode_frames(data)
        for index, (got, want) in enumerate(zip(frames, twin_frames)):
            np.testing.assert_array_equal(got, want)
            if index in (0, 3):
                np.testing.assert_array_equal(got, clean[index])

    def test_slice_boundaries_that_are_not_are_refused_untouched(self):
        n = 8
        rows = np.zeros((native.PLAN_ROWS, 4), dtype=np.int64)
        rows[:, :3] = np.array([(0, 0, n, 1, 0, 0, 0, 0, -1)] * 3).T
        rows[:, 3] = (0, 0, 0, 1, 0, 0, 0, 0, -1)  # a column no slice may name

        def attempt(leaf_end, rows=rows):
            recon = np.zeros((2, n, n))
            mask = np.zeros((2, n, n), dtype=bool)
            done = native.reconstruct_slices(
                recon, mask, None, rows, np.array(leaf_end, dtype=np.int64),
                np.empty(0, dtype=np.int64), np.ones(1), True,
            )
            assert done or (not recon.any() and not mask.any())
            return done

        assert attempt([1, 2]) and attempt([0, 3]) and attempt([0, 0])
        assert not attempt([2, 1])  # runs backwards
        assert not attempt([-1, 2])
        assert not attempt([1, 4])  # into a column that is not a leaf
        assert not attempt([1, 5])  # past the table itself
        assert not attempt([1, 2, 3])  # not one end per plane
        # A bad leaf in the *second* slice: the first plane stays clean too.
        bad = rows.copy()
        bad[2, 1] = 3 * n  # leaves the frame
        assert not attempt([1, 2], rows=bad)
