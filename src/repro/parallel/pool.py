"""The thread-pool engine behind every slice/tensor fan-out.

PR 2 made every frame an independently decodable slice (fresh entropy
coder + contexts per frame), which is exactly the bitstream property
real codecs exploit for slice/wavefront parallelism.  This module is
the cash-in: a single, small engine that the frame encoder, the frame
decoder, the tensor codec, and the checkpoint writer all use to fan
work out over a pool of threads while guaranteeing that the *result
ordering* -- and therefore every byte of output -- is identical to the
serial path.

Threads, because what a fan-out overlaps is the GIL-free work: the
whole-slice C kernels and pass 1's BLAS GEMM.  The encoder and decoder
fan out only when their kernels are loaded; the pure-Python twin holds
the GIL and stays serial.

Design rules:

- **Determinism first.**  :func:`parallel_map` always returns results
  in submission order, and falls back to a plain serial loop whenever
  parallelism cannot help (no config, one worker, one item).  Callers
  never need to re-sort or re-derive state.
- **One shared pool per worker count.**  Created on first use, reused
  for the life of the process (``atexit`` tears it down).  A
  ``ThreadPoolExecutor`` starts a thread only when work arrives for
  one, so a short batch costs no more threads than it uses.
- **Every dispatch is observable.**  :func:`pool_stats` counts pooled
  and serial calls, a span wraps each fan-out, and with telemetry live
  each worker's
  counters and spans merge back under the dispatch's span, so a trace
  shows exactly which stages ran parallel and which fell back.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, TypeVar

import repro.telemetry as telemetry
from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.telemetry.propagate import TracedTask, count_lost_deltas, merge_delta

__all__ = [
    "ParallelConfig",
    "get_executor",
    "parallel_map",
    "pool_stats",
    "shutdown_pools",
]

T = TypeVar("T")
R = TypeVar("R")

@dataclass(frozen=True)
class ParallelConfig:
    """How many threads one fan-out may use.

    ``workers=0`` resolves to ``os.cpu_count()``; ``1`` always means
    the serial path.
    """

    workers: int = 0

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = cpu count)")

    def resolved_workers(self) -> int:
        """Concrete worker count (``workers=0`` -> CPU count)."""
        if self.workers == 0:
            return os.cpu_count() or 1
        return self.workers

    def is_serial(self) -> bool:
        """True when this config can never dispatch to a pool."""
        return self.resolved_workers() <= 1


# One shared pool per worker count; created lazily (under the lock, so
# racing first callers share one), torn down at interpreter exit.
_pools: Dict[int, ThreadPoolExecutor] = {}
_pools_lock = threading.Lock()
_pool_dispatches = 0
_pool_serial_fallbacks = 0


def get_executor(config: ParallelConfig) -> ThreadPoolExecutor:
    """The shared live pool for ``config`` (created on first use).

    Supervision layers use this to submit individually-tracked futures
    instead of whole batches; it is the pool :func:`parallel_map`
    dispatches to for the same config.
    """
    if config.is_serial():
        raise ValueError("a serial ParallelConfig has no executor")
    workers = config.resolved_workers()
    with _pools_lock:
        pool = _pools.get(workers)
        if pool is None:
            pool = _pools[workers] = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-parallel"
            )
    return pool


def shutdown_pools() -> None:
    """Tear down every cached pool (also registered via ``atexit``)."""
    with _pools_lock:
        pools = list(_pools.values())
        _pools.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def pool_stats() -> dict:
    """Introspection for tests/benchmarks: live pools and dispatch counts."""
    with _pools_lock:
        live = sorted(_pools)
    return {
        "live_pools": live,
        "dispatches": _pool_dispatches,
        "serial_fallbacks": _pool_serial_fallbacks,
    }


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: Optional[ParallelConfig],
    label: str = "map",
    deadline: Optional[Deadline] = None,
) -> List[R]:
    """Apply ``fn`` to ``items``, preserving order, optionally in parallel.

    The contract callers rely on: the returned list is exactly
    ``[fn(x) for x in items]`` -- same order, same exceptions.  If any
    call raises, the exception of the *earliest* item surfaces (like
    the serial loop; later items may or may not have run).

    ``deadline`` is checked between serial items and caps every pool
    wait; expiry raises :class:`~repro.resilience.errors.DeadlineExceeded`.

    With telemetry live on the dispatching thread, each item runs as a
    :class:`TracedTask` whose counters and spans merge back under this
    dispatch's span as the item is drained; an item never drained (an
    earlier failure, an expired deadline) is counted in
    ``telemetry.worker_deltas_lost``.
    """
    global _pool_dispatches, _pool_serial_fallbacks
    items = list(items)
    if config is None or config.is_serial() or len(items) <= 1:
        _pool_serial_fallbacks += 1
        results: List[R] = []
        for item in items:
            if deadline is not None:
                deadline.check("parallel_map")
            results.append(fn(item))
        return results

    if deadline is not None:
        deadline.check("parallel_map")
    _pool_dispatches += 1
    telemetry.count("parallel.dispatches")
    telemetry.count("parallel.tasks", len(items))
    with telemetry.span(f"parallel.{label}"):
        parent = telemetry.current()
        task: Callable = fn
        under = ""
        if parent is not None:
            task = TracedTask(fn, ctx=parent.trace_ctx, trace=parent.trace)
            under = parent.current_path()
        pool = get_executor(config)
        futures = [pool.submit(task, item) for item in items]
        results = []
        try:
            # Drained in submission order, so the earliest failing
            # item's exception is the one that propagates.
            for future in futures:
                try:
                    value = future.result(
                        timeout=None if deadline is None else deadline.remaining()
                    )
                except FuturesTimeoutError:
                    raise DeadlineExceeded(
                        f"{deadline.label} deadline exceeded during parallel_map"
                    ) from None
                if parent is not None:
                    merge_delta(parent, value.delta, under=under)
                    value = value.result
                results.append(value)
        finally:
            for future in futures:
                future.cancel()
            count_lost_deltas(parent, len(items) - len(results))
        return results
