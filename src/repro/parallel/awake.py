"""Keep one core awake while cluster requests flow.

On a virtual machine an idle vCPU halts, and a thread woken there waits
for the host to run that vCPU again.  A cluster request crosses two
such wake-ups -- the router's dispatch thread, then the caller -- so on
the 2-vCPU runner an idle core cost a KV-page read more than its
decode (docs/PERFORMANCE.md, "What a halted core costs").  OpenBLAS's
helper threads used to hide that: they spin for about 0.1 s after each
multi-threaded GEMM, and pass 1 ran one per CU size.

:func:`keep_awake` makes that spin deliberate and bounded.  Each call
moves a deadline to :data:`AWAKE_WINDOW_S` from now; one helper thread
spins in C, GIL released (:func:`repro.codec.entropy.native.spin_until`),
until the deadline passes, then parks until the next call.  While it
spins, a woken thread finds a running core; the spin yields at every
turn, so it takes no time from a thread with work.  It never starts without the
kernel library (a spin in Python would hold the GIL) or with one usable
CPU (the spin would take the only core); :func:`awake_stats` counts its
spins.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.parallel import pool

__all__ = ["AWAKE_WINDOW_S", "awake_stats", "keep_awake"]

#: How long a core is kept awake after the latest :func:`keep_awake`.
#: A closed-loop client's next request comes within a few ms; 2 ms
#: measured too short to keep reads fast, 10 ms as fast as 100 ms.
AWAKE_WINDOW_S = 0.01

#: ``time.monotonic_ns()`` the spin runs to; the C loop re-reads it.
_deadline = np.zeros(1, dtype=np.int64)
_wake = threading.Event()
_lock = threading.Lock()
#: None until the first call decides; then the helper thread, or False
#: when this process cannot spin.
_helper = None
_spins = 0
_spin_s = 0.0


def keep_awake() -> None:
    """Keep a core awake until :data:`AWAKE_WINDOW_S` from now."""
    global _helper
    _deadline[0] = time.monotonic_ns() + int(AWAKE_WINDOW_S * 1e9)
    if _helper is None:
        with _lock:
            if _helper is None:
                _helper = _start()
    if _helper:
        _wake.set()


def _start():
    from repro.codec.entropy import native

    if pool.usable_cpus() < 2 or not native.available():
        return False
    helper = threading.Thread(
        target=_spin_loop, args=(native.spin_until,), name="keep-awake", daemon=True
    )
    helper.start()
    return helper


def _spin_loop(spin_until) -> None:
    global _spins, _spin_s
    while True:
        _wake.wait()
        _wake.clear()
        started = time.perf_counter()
        spin_until(_deadline)
        _spins += 1
        _spin_s += time.perf_counter() - started


def awake_stats() -> dict:
    """Whether the helper runs, its spins, and the seconds they took."""
    return {"running": bool(_helper), "spins": _spins, "spin_s": _spin_s}
