"""Optional native kernels for the codec hot loops.

One C library, built by one self-building pipeline: ``_kernels.c``
includes each of the codec's eight C files once, in dependency order,
and compiles to one shared object that exports every entry below.
``_contexts_kernel.c`` holds what the others share (the coder
constants, a slice's starting contexts, the intra modes, the leaf-plan
rows), ``_write_kernel.c`` the range encoder and block writer,
``_transform_kernel.c`` the codec's order-defined DCT pair and
``_simd_kernel.c`` the run-time choice of vector width
(:func:`simd_lanes`).  The entries:

- :func:`plan_slices` (``_slice_kernel.c``): whole-slice entropy
  *decode*.  One call walks the CTU quadtree of every slice of a group
  (split flags, modes, motion vectors, cbf, last position, fused
  coefficient scan), each from a fresh coder and fresh contexts, and
  fills the group's flat leaf plan
  (:class:`repro.codec.decoder.LeafPlan`).
- :func:`reconstruct_slices` (``_recon_kernel.c``): whole-slice
  *reconstruction* over that plan.  Per leaf the residual (dequantize,
  unscan, ordered inverse DCT, made where it is added), reference
  gather, planar / DC / angular / inter prediction, + residual, clip,
  for every leaf of every slice of the group in one call, one plane per
  slice.
- :func:`refs` (``_recon_kernel.c``): the intra reference gather with
  boundary substitution, on its own for the encoder.
- :func:`encode_slices` (``_encode_kernel.c``): whole-slice intra
  *encode*.  For every slice of a group, from a fresh coder and fresh
  contexts, the quadtree DP over the turbo search's pass-1 tables,
  exact coding of every chosen leaf (the recon file's predictors,
  ordered DCT, quantize, reconstruct) and all of the slice's entropy
  coding (the mirror of the fused path in
  :func:`repro.codec.syntax.encode_coeff_block`), in one call.
- :func:`dct2` (``_transform_kernel.c``): the ordered DCT's batch entry,
  which serves :mod:`repro.codec.transform`.
- :func:`cost_pick` (``_cost_kernel.c``): pass 1's RD costing, quantize
  -> rate -> distortion -> argmin over every candidate of a block size
  (one mode and one cost per block come back, nothing else).

The library is compiled with the system C compiler the first time an
entry is needed and cached under ``_build/`` keyed by one content hash
of every ``_*.c`` file and the compiler flags, so any edit rebuilds it.
Shared objects whose hash no longer matches are pruned on first use
(counted by the ``native.cache_pruned`` telemetry counter) so the cache
cannot accumulate orphans across source edits.

Loading runs every self-check once -- the DC sum against numpy's, the
ordered DCT against its numpy definition, the pick rows against their
twin -- and ends in one state: ``ready``, ``pure-python``
(``LLM265_PURE_PYTHON=1`` in the environment), ``no-compiler`` or
``failed`` (a failed build, ``dlopen`` or check).  Anything but
``ready`` makes *every* entry decline and each caller silently uses its
pure-Python path instead (same bits out, slower): the entries share
code, so a check that fails condemns them all.  A failure is recorded
once per process -- one ``native.build_failed`` flight-recorder event,
naming the stage or check that failed, and counter -- never a retry per
call.  Nothing is downloaded and no third-party package is involved --
the kernels are C files, ``cc``, and ``ctypes``.

The kernels release the GIL for the duration of each call (plain
``ctypes.CDLL`` behaviour).  That only buys thread parallelism where a
call covers enough work: the whole-slice kernels do (a *group* of
consecutive slices -- as many as fit in one 256 x 256 slice's samples,
a KV page's four -- is one :func:`plan_slices` call and one
:func:`reconstruct_slices` call to decode, and one
:func:`encode_slices` call to encode after pass 1), the per-block
kernels do not (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from array import array
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "available",
    "kernel_status",
    "simd_lanes",
    "plan_slices",
    "reconstruct_slices",
    "encode_slices",
    "dct2",
    "cost_pick",
    "refs",
]

_SOURCE_DIR = os.path.dirname(__file__)
_BUILD_DIR = os.path.join(_SOURCE_DIR, "_build")

_SLICE_ARGTYPES = [
    ctypes.c_void_p,  # data (const uint8 *[count], one per slice)
    ctypes.c_void_p,  # dlen (int64[count])
    ctypes.c_int64,  # count
    ctypes.c_void_p,  # report (int64, count x len(SLICE_REPORT))
    ctypes.c_void_p,  # banks (int32, count x BANK_TOTAL)
    ctypes.c_int64,  # height
    ctypes.c_int64,  # width
    ctypes.c_int64,  # ctu
    ctypes.c_int64,  # min_cu
    ctypes.c_int64,  # use_partition
    ctypes.c_int64,  # use_intra
    ctypes.c_int64,  # inter_allowed
    ctypes.c_void_p,  # all_modes (int32)
    ctypes.c_int64,  # n_modes
    ctypes.c_void_p,  # mode_map (int8)
    ctypes.c_void_p,  # plan (int64, 9 x leaf_cap)
    ctypes.c_int64,  # leaf_cap
    ctypes.c_void_p,  # levels (int64)
    ctypes.c_int64,  # level_cap
]

_RECON_ARGTYPES = [
    ctypes.c_void_p,  # recon (float64, count x height x width)
    ctypes.c_void_p,  # mask (uint8/bool, same shape)
    ctypes.c_int64,  # count
    ctypes.c_int64,  # height
    ctypes.c_int64,  # width
    ctypes.c_void_p,  # reference (float64 plane, NULL when no inter leaf)
    ctypes.c_void_p,  # plan (int64, 9 x stride)
    ctypes.c_int64,  # stride
    ctypes.c_int64,  # n_leaves
    ctypes.c_void_p,  # leaf_end (int64[count])
    ctypes.c_void_p,  # levels (int64)
    ctypes.c_int64,  # n_levels
    ctypes.c_void_p,  # ctu_step (float64, one per CTU of the group)
    ctypes.c_int64,  # n_ctus
    ctypes.c_void_p,  # basis (float64 *[5], by size class)
    ctypes.c_void_p,  # zigzag (int64 *[5], by size class)
    ctypes.c_int64,  # use_transform
]

_ENCODE_ARGTYPES = [
    ctypes.c_void_p,  # frames (float64, count x height x width)
    ctypes.c_int64,  # count
    ctypes.c_int64,  # height
    ctypes.c_int64,  # width
    ctypes.c_int64,  # ctu
    ctypes.c_int64,  # min_cu
    ctypes.c_int64,  # use_partition
    ctypes.c_void_p,  # best_mode (int64 *[depths])
    ctypes.c_void_p,  # best_cost (float64 *[depths])
    ctypes.c_void_p,  # ctu_step (float64)
    ctypes.c_void_p,  # ctu_lambda (float64)
    ctypes.c_double,  # deadzone
    ctypes.c_void_p,  # all_modes (int32)
    ctypes.c_int64,  # n_modes
    ctypes.c_void_p,  # basis (float64 *[5], by size class)
    ctypes.c_void_p,  # zigzag (int64 *[5], by size class)
    ctypes.c_void_p,  # report (int64, count x len(ENCODE_REPORT))
    ctypes.c_void_p,  # banks (int32, count x BANK_TOTAL)
    ctypes.c_void_p,  # out (uint8)
    ctypes.c_int64,  # out_cap
    ctypes.c_void_p,  # recon (float64, count x height x width)
    ctypes.c_void_p,  # mask (uint8/bool, same shape)
    ctypes.c_void_p,  # mode_map (int8)
    ctypes.c_void_p,  # plan (int64, 9 x leaf_cap)
    ctypes.c_int64,  # leaf_cap
    ctypes.c_void_p,  # levels (int64)
    ctypes.c_int64,  # level_cap
    ctypes.c_void_p,  # bits (int64, count x 6 ledger, NULL = not instrumented)
]

_DCT_ARGTYPES = [
    ctypes.c_void_p,  # x (float64)
    ctypes.c_void_p,  # out (float64)
    ctypes.c_int64,  # count
    ctypes.c_int64,  # n
    ctypes.c_void_p,  # basis (float64, n x n)
    ctypes.c_int64,  # inverse
]

_REFS_ARGTYPES = [
    ctypes.c_void_p,  # recon (float64)
    ctypes.c_void_p,  # mask (uint8/bool)
    ctypes.c_int64,  # height
    ctypes.c_int64,  # width
    ctypes.c_int64,  # y0
    ctypes.c_int64,  # x0
    ctypes.c_int64,  # n
    ctypes.c_void_p,  # top out (float64)
    ctypes.c_void_p,  # left out (float64)
]

_PICK_ARGTYPES = [
    ctypes.c_void_p,  # coeffs (float64, blocks x width)
    ctypes.c_void_p,  # pred (float64, blocks x modes x width)
    ctypes.c_int64,  # n_blocks
    ctypes.c_int64,  # n_modes
    ctypes.c_int64,  # width
    ctypes.c_void_p,  # inv_step (float64, one per block)
    ctypes.c_void_p,  # step2 (float64, one per block)
    ctypes.c_void_p,  # lambda (float64, one per block)
    ctypes.c_void_p,  # mode_bits (float64, one per mode)
    ctypes.c_double,  # deadzone
    ctypes.c_void_p,  # rate_table (int64)
    ctypes.c_int64,  # table_len
    ctypes.c_void_p,  # best_mode out (int64, candidate index)
    ctypes.c_void_p,  # best_cost out (float64)
]


#: Every entry the wrappers call, with its argument types (each returns
#: an int64), declared once when the library is loaded.
_ENTRIES = {
    "llm265_decode_slices": _SLICE_ARGTYPES,
    "llm265_reconstruct_slices": _RECON_ARGTYPES,
    "llm265_gather_refs": _REFS_ARGTYPES,
    "llm265_encode_slices": _ENCODE_ARGTYPES,
    "llm265_dct2_batch": _DCT_ARGTYPES,
    "llm265_cost_pick": _PICK_ARGTYPES,
    "llm265_simd_lanes": [],
}


def _dc_sum(lib, values: np.ndarray) -> float:
    """The reconstruct kernel's DC reduction of a float64 vector."""
    fn = lib.llm265_dc_sum
    fn.restype = ctypes.c_double
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int64]
    values = np.ascontiguousarray(values, dtype=np.float64)
    return fn(values.ctypes.data, len(values))


def _check_dc_sum(lib) -> None:
    """Load-time self-check of the one numpy-internal dependency.

    DC prediction is the only reduction on the reconstruct and encode
    paths, and the kernel reproduces the summation order of *this*
    numpy build's ``np.sum`` (pairwise, eight lanes).  A numpy that sums
    differently would make the kernels' samples drift from the Python
    paths', so the library is refused instead: 64 non-representable
    doubles whose sum depends on the order, compared bit for bit.
    """
    values = np.arange(1, 65, dtype=np.float64) / 7.0 + 1e-3
    for n in (4, 8, 16, 32, 64):
        if _dc_sum(lib, values[:n]) != float(values[:n].sum()):
            raise RuntimeError(
                f"DC reduction disagrees with numpy {np.__version__} at n={n}"
            )


def _dct2(lib, blocks: np.ndarray, basis: np.ndarray, inverse: bool) -> np.ndarray:
    """The library's ordered 2-D DCT of ``(count, n, n)`` blocks."""
    out = np.empty_like(blocks)
    n = blocks.shape[-1]
    status = lib.llm265_dct2_batch(
        blocks.ctypes.data, out.ctypes.data, blocks.size // (n * n), n,
        basis.ctypes.data, inverse,
    )
    if status:
        raise ValueError(f"ordered DCT refused n={n} (status {status})")
    return out


def _check_dct(lib) -> None:
    """Check the library's DCT entry against the definition.

    The numpy twin (:func:`repro.codec.transform._ordered_dct2`) *is*
    the definition of the codec's DCT pair; a library that disagrees
    with it on any size -- a compiler that fused or reassociated the
    accumulation -- would make kernel-coded or kernel-decoded
    reconstructions drift from the twin's, so it is refused instead and
    every caller stays on the twin.
    """
    from repro.codec import transform

    for n in transform.SUPPORTED_SIZES:
        blocks = (np.arange(3 * n * n, dtype=np.float64) % 61.0 - 30.0) / 7.0
        blocks = blocks.reshape(3, n, n) + 1e-3
        basis = transform.dct_matrix(n)
        for inverse in (False, True):
            want = transform._ordered_dct2(blocks, basis, inverse)
            if _dct2(lib, blocks, basis, inverse).tobytes() != want.tobytes():
                raise RuntimeError(f"ordered DCT disagrees with numpy at n={n}")


def _pick(fn, coeffs, pred, inv_step, step2, lam, mode_bits, deadzone, rate_table):
    """One call of a pick entry; ``None`` when it refuses the arguments."""
    n_blocks, n_modes, width = pred.shape
    pick = np.empty(n_blocks, dtype=np.int64)
    best = np.empty(n_blocks, dtype=np.float64)
    status = fn(
        coeffs.ctypes.data, pred.ctypes.data, n_blocks, n_modes, width,
        inv_step.ctypes.data, step2.ctypes.data, lam.ctypes.data,
        mode_bits.ctypes.data, deadzone, rate_table.ctypes.data,
        len(rate_table), pick.ctypes.data, best.ctypes.data,
    )
    return None if status else (pick, best)


def _check_rows(width: int) -> tuple:
    """Pick inputs that reach every branch of a row body: three blocks
    whose steps put levels at zero and one, in the tens, and beyond the
    rate table's top; candidate 0 an exact copy of the source (an
    all-zero row) and candidates 1 and 3 an exact tie."""
    ramp = np.arange(3 * 5 * width, dtype=np.float64) % 61.0 - 30.0
    pred = (ramp / 7.0 + 1e-3).reshape(3, 5, width)
    coeffs = pred[:, 2, ::-1].copy()
    pred[:, 0] = coeffs
    pred[:, 1] = coeffs + pred[:, 4] * 1e-3
    pred[:, 3] = pred[:, 1]
    step = np.array([4.0, 0.75, 1.0 / 3e4])
    mode_bits = np.array([4.0, 2.5, 3.0, 2.5, 1.0])
    return coeffs, pred, 1.0 / step, step * step, 0.85 * step, mode_bits


def _check_pick(lib) -> None:
    """Check the library's pick entry against the twin.

    The numpy form in :func:`repro.codec.encoder._pass1_pick` is the
    pick's definition, and the entry runs whichever row body the CPU
    selects; a library whose picks or costs differ from the twin's in
    one bit would make native and python streams part, so it is refused
    instead and pass 1, like every caller, stays on its twin.  Widths
    16, 64 and 1024, dead zones 0, 0.15 and 0.7 (a negative rounding
    offset).
    """
    from repro.codec.encoder import _level_rate_table, _pass1_pick

    for width in (16, 64, 1024):
        args = _check_rows(width)
        for deadzone in (0.0, 0.15, 0.7):
            want = _pass1_pick(*args, deadzone, False)
            got = _pick(lib.llm265_cost_pick, *args, deadzone, _level_rate_table())
            if got is None or any(
                a.tobytes() != b.astype(a.dtype).tobytes() for a, b in zip(got, want)
            ):
                raise RuntimeError(
                    f"cost pick disagrees with numpy at width={width}, "
                    f"deadzone={deadzone}"
                )


#: The library's state for the process: ``unloaded`` until the first
#: resolve, then ``ready`` | ``pure-python`` | ``no-compiler`` |
#: ``failed``.  ``_lib`` is the loaded library while it is ``ready``.
_state = "unloaded"
_lib = None
_lock = threading.Lock()


def _compiler() -> Optional[str]:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


# -fno-math-errno lets the compiler inline rint/trunc/copysign (their
# IEEE results are unchanged; only the unused errno side effect is
# dropped), which matters for the cost kernel's per-element rounding.
# On x86-64 the roundsd/roundpd instructions those inline to need
# SSE4.1 -- universal on hardware from the last 15+ years but not part
# of the baseline ABI, so it is opted into explicitly (never -mavx2 or
# -march=native: the cached .so must stay valid if the build directory
# travels to a different machine of the same architecture).  Wider code
# is compiled per function instead -- the AVX2 bodies of the pick row
# and the ordered transform, target("avx2") in the C files -- and chosen
# per call from the CPU's feature bits (_simd_kernel.c, simd_lanes()).
# -ffp-contract=off forbids fusing a*b+c into one FMA: the reconstruct
# kernel's planar and angular blends must round every product like
# numpy does, and GCC's default (fast) would fuse them wherever the
# target has FMA in its baseline (aarch64, or a CC/CFLAGS that adds it).
_CFLAGS = (
    "-O2",
    "-fno-math-errno",
    "-ffp-contract=off",
    *(("-msse4.1",) if platform.machine() in ("x86_64", "AMD64") else ()),
    "-shared",
    "-fPIC",
)


def _so_path() -> str:
    """The cached library of the current sources: every ``_*.c`` file
    reaches the compiler through ``_kernels.c``, so all of them -- and
    the flags -- are hashed into its name."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(_SOURCE_DIR, "_*.c"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    # Flags participate in the cache key: a flag change must rebuild.
    digest.update(" ".join(_CFLAGS).encode())
    return os.path.join(_BUILD_DIR, f"kernels_{digest.hexdigest()[:16]}.so")


_pruned = False


def _prune_stale() -> int:
    """Drop cached .so files whose content hash matches no current source.

    Runs once per process, after the first load that finds (or creates)
    the build directory.  Idempotent and best-effort: a file another
    process is mid-replace on simply survives until next time.
    """
    global _pruned
    if _pruned:
        return 0
    _pruned = True
    try:
        entries = os.listdir(_BUILD_DIR)
    except OSError:
        return 0
    live = os.path.basename(_so_path())
    removed = 0
    for name in entries:
        if not name.endswith(".so") or name == live:
            continue
        try:
            os.unlink(os.path.join(_BUILD_DIR, name))
            removed += 1
        except OSError:
            pass
    if removed:
        import repro.telemetry as telemetry

        telemetry.count("native.cache_pruned", removed)
    return removed


def _record_failure(stage: str, reason: str) -> None:
    """One flight-recorder event per process, not per call."""
    try:
        import repro.telemetry as telemetry
        from repro.telemetry import flightrecorder

        flightrecorder.record("native.build_failed", stage=stage, reason=reason)
        telemetry.count("native.build_failed")
    except Exception:
        pass


def _build() -> str:
    """The cached library's path, compiled first if it is not there;
    may raise (``FileNotFoundError`` when there is no compiler)."""
    so_path = _so_path()
    if not os.path.exists(so_path):
        cc = _compiler()
        if cc is None:
            raise FileNotFoundError("no C compiler on PATH")
        os.makedirs(_BUILD_DIR, exist_ok=True)
        # Build to a temp name and os.replace() so concurrent builders
        # (parallel test workers, other processes) never observe a
        # half-written library.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=_BUILD_DIR)
        os.close(fd)
        try:
            subprocess.run(
                [cc, *_CFLAGS, "-o", tmp, os.path.join(_SOURCE_DIR, "_kernels.c")],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp, so_path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return so_path


def _resolve():
    """The loaded library, or ``None``: built, loaded and checked once
    per process; never raises."""
    global _state, _lib
    if _state != "unloaded":
        return _lib
    with _lock:
        if _state != "unloaded":
            return _lib
        if os.environ.get("LLM265_PURE_PYTHON"):
            _state = "pure-python"
            return None
        stage = "build"
        try:
            path = _build()
            stage = "load"
            lib = ctypes.CDLL(path)
            for symbol, argtypes in _ENTRIES.items():
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int64
                fn.argtypes = argtypes
            # `stage` names the check that raises.
            for stage, check in (
                ("dc_sum", _check_dc_sum),
                ("dct", _check_dct),
                ("pick", _check_pick),
            ):
                check(lib)
        except FileNotFoundError as exc:
            _state = "no-compiler"
            _record_failure(stage, str(exc))
        except Exception as exc:
            _state = "failed"
            _record_failure(stage, repr(exc))
        else:
            _lib = lib
            _state = "ready"
            _prune_stale()
    return _lib


def available() -> bool:
    """True when the library is loaded and passed its checks.

    The decoder asks this once per group of slices and the encoder once
    per fan-out decision (threads only overlap work coded in GIL-free
    calls); tests monkeypatch it to force the pure-Python paths.  Every
    entry also declines on its own while the library is not loaded.
    """
    return _resolve() is not None


def kernel_status(resolve: bool = True) -> Dict[str, str]:
    """``{"library": state}`` for ``llm265 stats`` and the stack benchmark.

    States: ``ready`` / ``pure-python`` / ``no-compiler`` / ``failed``
    (plus ``unloaded`` when ``resolve=False`` and nothing has loaded it).
    """
    if resolve:
        _resolve()
    return {"library": _state}


#: What ``llm265_simd_lanes`` answers, for humans.
_LANES = {4: "4 (avx2)", 2: "2 (sse4.1)", 1: "1"}


def simd_lanes() -> str:
    """Lanes the library's vector bodies run at.

    The pick row and the ordered transform choose their body per call
    (``_simd_kernel.c``); ``llm265_simd_lanes`` says which:
    ``4 (avx2)``, ``2 (sse4.1)`` or ``1``.  A library that is not loaded
    reads as its :func:`kernel_status` state.
    """
    lib = _resolve()
    return _state if lib is None else _LANES[lib.llm265_simd_lanes()]


#: Length of each context bank in the order of ``CodecContexts.banks()``
#: (the kernels index them with the context layout of
#: :mod:`repro.codec.syntax`): how :func:`plan_slices` and
#: :func:`encode_slices` lay one slice's contexts out in a row.
_SLICE_BANK_SIZES = (6, 1, 1, 2, 2, 50, 15, 15, 8)
BANK_TOTAL = sum(_SLICE_BANK_SIZES)

#: Columns of :func:`plan_slices`' per-slice report (``DR_*`` in the C file).
SLICE_REPORT = ("status", "pos", "range", "code", "scan_bins", "leaf_end", "level_end")

#: Rows of a leaf-plan table, in order (``P_*`` in ``_contexts_kernel.c``);
#: :class:`repro.codec.decoder.LeafPlan` documents their meaning.
PLAN_FIELDS = (
    "y0", "x0", "size", "mode", "is_inter", "ry", "rx", "ctu_index",
    "coeff_offset",
)
PLAN_ROWS = len(PLAN_FIELDS)


def _c_array(arr: np.ndarray, dtype, ndim: int) -> bool:
    """True for a C-contiguous array of exactly this dtype and rank."""
    return arr.dtype == dtype and arr.ndim == ndim and arr.flags.c_contiguous


def _plan_table(rows: np.ndarray) -> bool:
    return _c_array(rows, np.int64, 2) and rows.shape[0] == PLAN_ROWS


def _pointer_table(arrays: Sequence[Optional[np.ndarray]]):
    """``void *[]`` over numpy arrays (``None`` -> NULL)."""
    return (ctypes.c_void_p * len(arrays))(
        *(None if a is None else a.ctypes.data for a in arrays)
    )


def plan_slices(
    segments: Sequence[bytes],
    height: int,
    width: int,
    ctu: int,
    min_cu: int,
    use_partition: bool,
    use_intra: bool,
    inter_allowed: bool,
    all_modes: Sequence[int],
    rows: np.ndarray,
    levels: np.ndarray,
    banks: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Drain a group of slices into one leaf plan; ``None`` when unavailable.

    ``segments`` are the CRC-verified payloads of consecutive slices of
    one stream (a group of one is the same call); each is decoded from a
    fresh coder and fresh equiprobable contexts, set up in C.  ``rows``
    is a C-contiguous ``(PLAN_ROWS, leaf_cap)`` int64 table and
    ``levels`` an int64 vector, shared by the group: leaves and levels
    are appended slice after slice, ``coeff_offset`` indexes the one
    level buffer and ``ctu_index`` counts on across slices
    (``k * ctus_per_frame`` at the start of slice ``k``).  Both
    capacities are taken from the arrays and enforced by the kernel.
    ``inter_allowed`` promises a reference frame of exactly
    ``height x width`` samples.  ``banks``, when given, is a
    ``(len(segments), BANK_TOTAL)`` int32 array that receives every
    slice's adapted contexts, bank after bank in ``CodecContexts.banks()``
    order (tests read it; the decoder has no use for it).

    Returns the ``(len(segments), len(SLICE_REPORT))`` int64 report: per
    slice its status, the coder's end state (``pos``, ``range``,
    ``code``), its ``scan_bins`` and the leaf / level counts of the
    group after it.  On status 0 the slice's columns, levels, coder
    state and contexts are exactly what ``FrameDecoder._walk_slice``
    produces.  Any other status means the kernel refuses that slice --
    corrupt input or an exceeded capacity: it contributes nothing (its
    ends equal the previous slice's; whatever it wrote is overwritten by
    the next slice or lies past the reported ends), the slices behind it
    are still decoded, and the caller re-decodes it alone with the
    Python walk, which raises the canonical error.
    """
    lib = _resolve()
    if lib is None:
        return None
    count = len(segments)
    if banks is None:
        banks = np.empty((count, BANK_TOTAL), dtype=np.int32)
    if (
        height <= 0
        or width <= 0
        or height % 4
        or width % 4
        or not _plan_table(rows)
        or not _c_array(levels, np.int64, 1)
        or not _c_array(banks, np.int32, 2)
        or banks.shape != (count, BANK_TOTAL)
    ):
        return None
    # c_char_p takes nothing but bytes.
    segments = [s if type(s) is bytes else bytes(s) for s in segments]
    lengths = array("q", map(len, segments))
    modes = array("i", all_modes)
    mode_map = np.empty((height // 4) * (width // 4), dtype=np.int8)
    report = np.empty((count, len(SLICE_REPORT)), dtype=np.int64)
    lib.llm265_decode_slices(
        (ctypes.c_char_p * count)(*segments),
        lengths.buffer_info()[0],
        count,
        report.ctypes.data,
        banks.ctypes.data,
        height,
        width,
        ctu,
        min_cu,
        use_partition,
        use_intra,
        inter_allowed,
        modes.buffer_info()[0],
        len(modes),
        mode_map.ctypes.data,
        rows.ctypes.data,
        rows.shape[1],
        levels.ctypes.data,
        len(levels),
    )
    return report


def reconstruct_slices(
    recon: np.ndarray,
    mask: np.ndarray,
    reference: Optional[np.ndarray],
    rows: np.ndarray,
    leaf_end: np.ndarray,
    levels: np.ndarray,
    ctu_step: np.ndarray,
    use_transform: bool,
) -> bool:
    """Residuals + prediction for every leaf of a group's plan; True iff done.

    ``recon`` (float64) and ``mask`` (bool) are zero-filled
    ``(count, height, width)`` stacks, one plane per slice; plane ``k``
    takes the leaves ``leaf_end[k - 1] .. leaf_end[k]`` of ``rows``
    (``leaf_end`` is the report column of :func:`plan_slices`: int64,
    non-decreasing, at most the table's width; a slice with no leaves
    keeps its zero plane).  ``levels`` is the group's scan-order level
    buffer (a coded leaf's ``size * size`` levels start at its
    ``coeff_offset``) and ``ctu_step`` the quantizer step of every CTU of
    the group (indexed by ``ctu_index``).  Each coded leaf's residual is
    dequantized, zigzag-unscanned and (``use_transform``) put through
    the ordered inverse DCT where it is added; on success every plane
    holds the samples ``FrameDecoder._batch_residuals`` +
    ``_apply_predictions`` compute, bit for bit, and the mask of every
    slice that has leaves is all True.  ``reference`` is the previous
    frame's plane (``height x width``) or ``None``.  The kernel
    validates every slice's leaves -- geometry, modes, reference blocks,
    level offsets, CTU indices -- before it writes a sample of any
    plane, so ``False`` (kernel unavailable, unsuitable arrays, or a
    plan it refuses) leaves the stacks untouched for the Python loop.
    """
    lib = _resolve()
    if lib is None:
        return False
    if not (
        _c_array(recon, np.float64, 3)
        and _c_array(mask, np.bool_, 3)
        and mask.shape == recon.shape
        and _plan_table(rows)
        and _c_array(leaf_end, np.int64, 1)
        and len(leaf_end) == len(recon)
        and _c_array(levels, np.int64, 1)
        and _c_array(ctu_step, np.float64, 1)
    ):
        return False
    count, height, width = recon.shape
    if reference is not None and not (
        _c_array(reference, np.float64, 2) and reference.shape == (height, width)
    ):
        return False
    basis, zigzag = _transform_tables()
    status = lib.llm265_reconstruct_slices(
        recon.ctypes.data,
        mask.ctypes.data,
        count,
        height,
        width,
        None if reference is None else reference.ctypes.data,
        rows.ctypes.data,
        rows.shape[1],
        rows.shape[1],
        leaf_end.ctypes.data,
        levels.ctypes.data,
        len(levels),
        ctu_step.ctypes.data,
        len(ctu_step),
        basis,
        zigzag,
        use_transform,
    )
    return status == 0


@functools.lru_cache(maxsize=None)
def _transform_tables():
    """``(basis, zigzag)`` pointer tables by size class, made once: the
    DCT bases and zigzag orders of :mod:`repro.codec.transform` (both
    lru-cached there, so the arrays outlive the tables)."""
    from repro.codec import transform

    sizes = transform.SUPPORTED_SIZES
    return (
        _pointer_table([transform.dct_matrix(n) for n in sizes]),
        _pointer_table([transform.zigzag_order(n) for n in sizes]),
    )


#: Element classes of the encode kernel's bit ledger, in its ``E_*``
#: order (a subset of ``telemetry.codecstats.BIT_CLASSES``).
ENCODE_BIT_CLASSES = ("split", "intra_mode", "cbf", "last", "sig", "level")

#: Columns of :func:`encode_slices`' per-slice report (``ER_*`` in the C file).
ENCODE_REPORT = ("status", "out_end", "leaf_end", "level_end")


def encode_slices(
    frames: np.ndarray,
    ctu: int,
    min_cu: int,
    use_partition: bool,
    best_mode: Sequence[np.ndarray],
    best_cost: Sequence[np.ndarray],
    ctu_step: np.ndarray,
    ctu_lambda: np.ndarray,
    deadzone: float,
    all_modes: Sequence[int],
    tables: Sequence[Optional[Tuple[np.ndarray, np.ndarray]]],
    recon: np.ndarray,
    mask: np.ndarray,
    rows: np.ndarray,
    levels: np.ndarray,
    out: np.ndarray,
    bits: Optional[np.ndarray] = None,
    banks: Optional[np.ndarray] = None,
) -> Optional[np.ndarray]:
    """Plan, code and write a group of intra slices; ``None`` when unavailable.

    ``frames`` is the ``(count, height, width)`` float64 stack of padded
    source planes of consecutive slices (a group of one is the same
    call); each is coded from a fresh coder and fresh contexts, set up
    in C.  ``best_mode`` / ``best_cost`` are the turbo search's pass-1
    tables, one ``(count, height // size, width // size)`` int64 /
    float64 array per quadtree depth (``size = ctu >> depth``, down to
    ``min_cu``; only depth 0 without partitioning), and ``ctu_step`` /
    ``ctu_lambda`` the quantizer step and Lagrangian of every CTU of the
    group, slice after slice in raster order.  ``tables`` holds, per
    size class (4, 8, 16, 32, 64), the ``(dct_matrix, zigzag_order)``
    pair or ``None`` for a size the tree cannot reach.  ``recon``
    (float64) and ``mask`` (bool) are zero-filled stacks of the frames'
    shape, ``rows`` / ``levels`` a :class:`repro.codec.decoder.LeafPlan`
    layout shared by the group (``ctu_index`` counting on across
    slices, ``coeff_offset`` into the one level buffer) and ``out`` a
    uint8 byte buffer; all three capacities are taken from the arrays
    and enforced by the kernel.  ``bits``, when given, is a
    ``(count, len(ENCODE_BIT_CLASSES))`` int64 array whose row ``k``
    receives the exact ``tell_bits`` delta of every element class of
    slice ``k``.  ``banks``, when given, is a ``(count, BANK_TOTAL)``
    int32 array that receives every slice's adapted contexts (tests read
    it; the encoder has no use for it).

    Returns the ``(count, len(ENCODE_REPORT))`` int64 report: per slice
    its status and the byte / leaf / level counts of the group after it,
    so slice ``k``'s finished bytes are ``out[out_end[k - 1]:out_end[k]]``.
    On status 0 those bytes are ``BinaryEncoder.finish()`` of what
    ``FrameEncoder``'s Python twin (``_encode_frame``) writes, and the
    slice's plane, plan columns, levels, contexts and ledger row are
    what it leaves behind, with its mask all True.  Any other status --
    a capacity that would be exceeded, an unsupported geometry -- means
    the kernel refuses that slice: it gives its bytes, leaves and levels
    back (its ends equal the previous slice's), its plane is
    part-written, the slices behind it are still coded, and the caller
    re-codes it alone with the twin.
    """
    lib = _resolve()
    if lib is None:
        return None
    if not (_c_array(frames, np.float64, 3) and frames.size):
        return None
    count, height, width = frames.shape
    depths = 1
    if use_partition:
        while ctu >> (depths - 1) > min_cu and depths <= 5:
            depths += 1
    if banks is None:
        banks = np.empty((count, BANK_TOTAL), dtype=np.int32)
    if (
        ctu <= 0
        or height % ctu
        or width % ctu
        or height % 4
        or width % 4
        or len(best_mode) != depths
        or len(best_cost) != depths
        or any(
            not _c_array(modes, np.int64, 3)
            or not _c_array(costs, np.float64, 3)
            or (ctu >> depth) < 4
            or modes.shape
            != (count, height // (ctu >> depth), width // (ctu >> depth))
            or costs.shape != modes.shape
            for depth, (modes, costs) in enumerate(zip(best_mode, best_cost))
        )
        or not _c_array(ctu_step, np.float64, 1)
        or not _c_array(ctu_lambda, np.float64, 1)
        or len(ctu_step) != count * (height // ctu) * (width // ctu)
        or len(ctu_lambda) != len(ctu_step)
        or len(tables) != 5
        or any(
            pair is not None
            and not (
                _c_array(pair[0], np.float64, 2)
                and pair[0].shape == (4 << cls, 4 << cls)
                and _c_array(pair[1], np.int64, 1)
                and len(pair[1]) == (4 << cls) ** 2
            )
            for cls, pair in enumerate(tables)
        )
        or not _c_array(recon, np.float64, 3)
        or not _c_array(mask, np.bool_, 3)
        or recon.shape != frames.shape
        or mask.shape != frames.shape
        or not _plan_table(rows)
        or not _c_array(levels, np.int64, 1)
        or not _c_array(out, np.uint8, 1)
        or not _c_array(banks, np.int32, 2)
        or banks.shape != (count, BANK_TOTAL)
        or (
            bits is not None
            and not (
                _c_array(bits, np.int64, 2)
                and bits.shape == (count, len(ENCODE_BIT_CLASSES))
            )
        )
    ):
        return None
    modes = array("i", all_modes)
    mode_map = np.empty((height // 4) * (width // 4), dtype=np.int8)
    report = np.empty((count, len(ENCODE_REPORT)), dtype=np.int64)
    lib.llm265_encode_slices(
        frames.ctypes.data,
        count,
        height,
        width,
        ctu,
        min_cu,
        use_partition,
        _pointer_table(best_mode),
        _pointer_table(best_cost),
        ctu_step.ctypes.data,
        ctu_lambda.ctypes.data,
        deadzone,
        modes.buffer_info()[0],
        len(modes),
        _pointer_table([pair and pair[0] for pair in tables]),
        _pointer_table([pair and pair[1] for pair in tables]),
        report.ctypes.data,
        banks.ctypes.data,
        out.ctypes.data,
        len(out),
        recon.ctypes.data,
        mask.ctypes.data,
        mode_map.ctypes.data,
        rows.ctypes.data,
        rows.shape[1],
        levels.ctypes.data,
        len(levels),
        None if bits is None else bits.ctypes.data,
    )
    return report


def dct2(blocks: np.ndarray, basis: np.ndarray, inverse: bool) -> Optional[np.ndarray]:
    """Ordered 2-D DCT of ``(..., n, n)`` float64 blocks; None if unavailable.

    The C form of :func:`repro.codec.transform._ordered_dct2` (forward
    ``basis @ x @ basis.T``, inverse ``basis.T @ x @ basis``, every
    output accumulated sequentially in ``k``) -- bit-identical to the
    numpy definition, which the library is checked against when it is
    loaded.
    """
    lib = _resolve()
    if lib is None:
        return None
    n = basis.shape[0]
    if (
        blocks.dtype != np.float64
        or blocks.ndim < 2
        or blocks.shape[-2:] != (n, n)
        or not _c_array(basis, np.float64, 2)
    ):
        return None
    return _dct2(lib, np.ascontiguousarray(blocks), basis, inverse)


def cost_pick(
    coeffs: np.ndarray,
    pred: np.ndarray,
    inv_step: np.ndarray,
    step2: np.ndarray,
    lam: np.ndarray,
    mode_bits: np.ndarray,
    deadzone: float,
    rate_table: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Pass 1's cost -> distortion -> argmin in one call; None = use numpy.

    ``coeffs`` is the ``(blocks, width)`` source coefficient batch and
    ``pred`` the ``(blocks, modes, width)`` candidate predictions, both
    unscaled; ``inv_step`` / ``step2`` / ``lam`` hold every block's
    ``1 / step``, ``step ** 2`` and Lagrangian, ``mode_bits`` every
    candidate's signalling rate.  Returns ``(pick, cost)``: per block the
    index of the first cheapest candidate and its RD cost, bitwise what
    the numpy form in :func:`repro.codec.encoder._pass1_pick` computes.
    The candidate rows, their levels and their errors never leave C.
    """
    lib = _resolve()
    if lib is None:
        return None
    if not (
        _c_array(coeffs, np.float64, 2)
        and _c_array(pred, np.float64, 3)
        and _c_array(mode_bits, np.float64, 1)
        and pred.shape == (len(coeffs), len(mode_bits), coeffs.shape[1])
        and all(
            _c_array(per_block, np.float64, 1) and len(per_block) == len(coeffs)
            for per_block in (inv_step, step2, lam)
        )
        and _c_array(rate_table, np.int64, 1)
    ):
        return None
    return _pick(
        lib.llm265_cost_pick, coeffs, pred, inv_step, step2, lam, mode_bits,
        deadzone, rate_table,
    )


def refs(
    recon: np.ndarray,
    mask: np.ndarray,
    y0: int,
    x0: int,
    n: int,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Native intra reference gather; None when unavailable.

    Returns ``(top, left)`` exactly as
    :func:`repro.codec.intra.gather_references` computes them.  Pure
    data movement, so the arrays are bit-identical to the numpy walk
    and the kernel is safe on every path (it does not participate in
    the native-vs-python encode identity split).
    """
    lib = _resolve()
    if lib is None:
        return None
    if (
        recon.dtype != np.float64
        or not recon.flags.c_contiguous
        or mask.dtype != np.bool_
        or not mask.flags.c_contiguous
    ):
        return None
    top = np.empty(2 * n + 1, dtype=np.float64)
    left = np.empty(2 * n + 1, dtype=np.float64)
    height, width = recon.shape
    status = lib.llm265_gather_refs(
        recon.ctypes.data,
        mask.ctypes.data,
        height,
        width,
        y0,
        x0,
        n,
        top.ctypes.data,
        left.ctypes.data,
    )
    if status != 0:
        return None
    return top, left
