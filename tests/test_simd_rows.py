"""The kernels' two vector widths compute the same bits.

The pick kernel (``_cost_kernel.c``) has a scalar row, the definition,
and a fused AVX2 row that ``llm265_cost_pick`` runs on a CPU with AVX2.
The ordered transform (``_transform_kernel.c``) has one body compiled
twice: at the baseline and for AVX2.  The library also exports the narrow
entries (``llm265_cost_pick_scalar``, ``llm265_dct2_batch_default``), so on
an AVX2 machine these tests hold wide == narrow == numpy definition bit
for bit.  Elsewhere both entries run the narrow body, and the tests
still pin it to the definition.  Around that: the load-time pick check
(``native._check_pick``) refuses a library that disagrees, and the
lanes ``llm265 stats`` reports.
"""

from __future__ import annotations

import ctypes
import types

import numpy as np
import pytest

from repro import telemetry
from repro.codec import transform
from repro.codec.pass1 import _level_rate_table, _pass1_pick
from repro.codec.entropy import native
from repro.codec.quantizer import qstep, rd_lambda

pytestmark = pytest.mark.fuzz

_STATE = native.kernel_status()["library"]
#: A library that failed its load-time check is a failure here, not a skip.
needs_library = pytest.mark.skipif(
    _STATE in ("pure-python", "no-compiler"), reason="kernel library unavailable"
)

#: Pick entries: the one pass 1 calls (widest body) and the scalar row.
PICKS = ("llm265_cost_pick", "llm265_cost_pick_scalar")
#: Transform entries: the one every caller gets and the baseline body.
DCTS = ("llm265_dct2_batch", "llm265_dct2_batch_default")


def _entry(symbol: str, argtypes):
    fn = getattr(native._resolve(), symbol)
    fn.restype = ctypes.c_int64
    fn.argtypes = argtypes
    return fn


def _rows(width: int, seed: int):
    """``_pass1_pick``'s arguments up to ``deadzone`` for six blocks of
    six candidates: random rows, and in them every edge a row body has.

    - block 0: candidate 0 is the source itself (an all-zero row) and
      candidates 2 and 4 an exact tie near the source;
    - block 1: signed zeros, ``-0.0 - 0.0`` every third coefficient;
    - block 2: unit step, magnitudes at, around and beyond the rate
      table's top and exact rint ties (``2.5``, ``-3.5``, ``0.5``);
    - block 3: every other quad of every candidate all zero;
    - block 4: a coarse step, so most levels are zero;
    - block 5: no rate term (lambda 0): the cost is the lane-ordered
      distortion alone, to its last bit.
    """
    rng = np.random.default_rng(seed)
    blocks, modes = 6, 6
    coeffs = rng.normal(0, 40, (blocks, width))
    pred = rng.normal(0, 40, (blocks, modes, width))
    qp = rng.choice([18.0, 24.0], blocks)
    qp[2], qp[4] = 4.0, 51.0  # qstep(4) == 1
    step = np.array([qstep(q) for q in qp])
    lam = np.array([rd_lambda(q) for q in qp])
    lam[5] = 0.0
    mode_bits = rng.uniform(1.0, 6.0, modes)

    pred[0, 0] = coeffs[0]
    pred[0, 2] = pred[0, 4] = coeffs[0] + 0.25
    mode_bits[0], mode_bits[2], mode_bits[4] = 6.0, 1.0, 1.0
    coeffs[1, ::3] = -0.0
    pred[1, :, ::3] = 0.0
    top = float(len(_level_rate_table()) - 1)
    edges = [top, -top, top - 0.5, top + 1.0, 1e9, -1e9, 3e18,
             2.5, -3.5, 0.5, -0.5, 1.5]
    coeffs[2, : len(edges)] = edges[:width]
    pred[2, :, : len(edges)] = 0.0
    quads = (np.arange(width) // 4) % 2 == 0
    pred[3][:, quads] = coeffs[3, quads]
    return coeffs, pred, 1.0 / step, step * step, lam, mode_bits


def _pick(symbol, args, deadzone):
    return native._pick(
        _entry(symbol, native._PICK_ARGTYPES), *args, deadzone,
        _level_rate_table(),
    )


def _assert_same(got, want):
    assert got is not None, "the entry refused"
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()  # +0.0 / -0.0 differ


@needs_library
class TestPickRows:
    @pytest.mark.parametrize("deadzone", [0.0, 0.15, 0.7])
    @pytest.mark.parametrize("width", [16, 64, 256, 1024, 4096])
    def test_entries_equal_the_twin(self, width, deadzone):
        args = _rows(width, seed=width)
        want = _pass1_pick(*args, deadzone, False)
        for symbol in PICKS:
            _assert_same(_pick(symbol, args, deadzone), want)

    @pytest.mark.parametrize("width", [5, 18, 1023])
    def test_tail_off_the_four_lane_grid(self, width):
        # Pass 1's rows are n * n wide; only a direct call reaches the
        # scalar tail after the last full quad.
        args = _rows(width, seed=width)
        for deadzone in (0.0, 0.15, 0.7):
            want = _pass1_pick(*args, deadzone, False)
            for symbol in PICKS:
                _assert_same(_pick(symbol, args, deadzone), want)

    def test_edges_are_reached(self):
        # What _rows promises, seen through the twin: the tie goes to the
        # earlier candidate and block 2 has levels beyond the table.
        args = _rows(64, seed=1)
        coeffs, pred, inv_step = args[:3]
        x = (coeffs[:, None, :] - pred) * inv_step[:, None, None]
        assert np.abs(np.rint(x[2])).max() > len(_level_rate_table())
        assert np.signbit(x[1][:, ::3]).all() and not x[1][:, ::3].any()
        assert not x[3][:, 0:4].any() and x[3][:, 4:8].all()
        pick, _ = _pass1_pick(*args, 0.15, False)
        assert pick[0] == 2

    @pytest.mark.parametrize("symbol", PICKS)
    def test_rate_table_with_nonzero_entry_zero_is_refused(self, symbol):
        # Zero levels must cost nothing for a body to skip them.
        table = np.array(_level_rate_table())
        table[0] = 1
        fn = _entry(symbol, native._PICK_ARGTYPES)
        args = _rows(16, seed=2)
        assert native._pick(fn, *args, 0.15, table) is None
        assert native._pick(fn, *args, 0.15, _level_rate_table()) is not None


@needs_library
class TestOrderedTransformWidths:
    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("n", transform.SUPPORTED_SIZES)
    def test_both_bodies_equal_the_definition(self, n, inverse):
        rng = np.random.default_rng(n)
        blocks = rng.normal(0, 40, (6, n, n))
        blocks[0] = 0.0
        blocks[1, :, 0] = -0.0
        basis = transform.dct_matrix(n)
        want = transform._ordered_dct2(blocks, basis, inverse).tobytes()
        for symbol in DCTS:
            out = np.empty_like(blocks)
            fn = _entry(symbol, native._DCT_ARGTYPES)
            assert fn(blocks.ctypes.data, out.ctypes.data, len(blocks), n,
                      basis.ctypes.data, inverse) == 0
            assert out.tobytes() == want, symbol


class _Skewed:
    """A pick entry whose costs come back one ulp high."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        status = self.fn(*args)
        n_blocks, best = args[2], args[-1]
        cost = np.ctypeslib.as_array((ctypes.c_double * n_blocks).from_address(best))
        cost[:] = np.nextafter(cost, np.inf)
        return status


@needs_library
class TestLoadTimeCheck:
    def test_loaded_library_passes(self):
        native._check_pick(native._resolve())

    def test_disagreeing_library_is_refused(self):
        real = _entry("llm265_cost_pick", native._PICK_ARGTYPES)
        with pytest.raises(RuntimeError, match="cost pick disagrees"):
            native._check_pick(types.SimpleNamespace(llm265_cost_pick=_Skewed(real)))
        with pytest.raises(RuntimeError, match="cost pick disagrees"):
            native._check_pick(
                types.SimpleNamespace(llm265_cost_pick=lambda *args: 1)
            )

    def test_refused_library_leaves_pass1_on_the_twin(self, monkeypatch):
        monkeypatch.delenv("LLM265_PURE_PYTHON", raising=False)
        monkeypatch.setattr(native, "_state", "unloaded")
        monkeypatch.setattr(native, "_lib", None)
        check = native._check_pick

        def refusing_check(_lib):
            # The load-time check, run on a library whose pick refuses.
            check(types.SimpleNamespace(llm265_cost_pick=lambda *args: 1))

        monkeypatch.setattr(native, "_check_pick", refusing_check)
        args = _rows(64, seed=3)
        with telemetry.session() as registry:
            got = _pass1_pick(*args, 0.15, True)
            assert registry.counters.get("native.build_failed") == 1
        assert native.kernel_status() == {"library": "failed"}
        assert "encode.kernel_refusals" not in registry.counters
        _assert_same(got, _pass1_pick(*args, 0.15, False))


def test_lanes_are_reported_for_both_kernels():
    # One value: the pick row and the ordered transform choose alike.
    lanes = native.simd_lanes()
    if _STATE == "ready":
        assert lanes in ("4 (avx2)", "2 (sse4.1)", "1")
    else:
        assert lanes == _STATE
