"""Shared worker-pool engine behind every slice/tensor fan-out.

PR 2 made every frame an independently decodable slice (fresh entropy
coder + contexts per frame), which is exactly the bitstream property
real codecs exploit for slice/wavefront parallelism.  This module is
the cash-in: a single, small engine that the frame encoder, the frame
decoder, the tensor codec, and the checkpoint writer all use to fan
work out over a pool of workers while guaranteeing that the *result
ordering* -- and therefore every byte of output -- is identical to the
serial path.

Design rules:

- **Determinism first.**  :func:`parallel_map` always returns results
  in submission order, and falls back to a plain serial loop whenever
  parallelism cannot help (one item, one worker) or cannot be correct
  (the caller detects a cross-item dependency and passes
  ``serial=True``).  Callers never need to re-sort or re-derive state.
- **Pools are shared and lazy.**  Process pools cost real start-up
  time; one pool per (kind, worker-count) is created on first use and
  reused for the life of the process (``atexit`` tears them down).
- **Worker death is not the caller's problem.**  A crashed process
  (OOM-killed, segfaulted, ``SIGKILL``-ed) surfaces from the stdlib as
  ``BrokenProcessPool``; :func:`parallel_map` discards the dead pool
  and re-runs the batch serially, so a deterministic ``fn`` yields the
  identical result list a healthy pool would have.
- **Every dispatch is observable.**  ``parallel.*`` telemetry counters
  and a span wrap each fan-out, so a trace shows exactly which stages
  ran parallel and which fell back, and ``BENCH_codec.json`` numbers
  can be cross-checked against traces.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

import repro.telemetry as telemetry
from repro.resilience.deadline import Deadline, effective_timeout
from repro.telemetry.propagate import TracedTask, count_lost_deltas, merge_delta

__all__ = [
    "BrokenPoolError",
    "ParallelConfig",
    "WorkerTimeoutError",
    "discard_pool",
    "get_executor",
    "parallel_map",
    "pool_stats",
    "shutdown_pools",
    "warm_pool",
]

T = TypeVar("T")
R = TypeVar("R")

#: Executor kinds accepted by :class:`ParallelConfig`.
EXECUTORS = ("process", "thread", "serial")

#: The stdlib's "a worker died under the executor" family
#: (``BrokenProcessPool`` / ``BrokenThreadPool``), re-exported so
#: callers and supervisors need no ``concurrent.futures`` imports.
BrokenPoolError = BrokenExecutor


class WorkerTimeoutError(TimeoutError):
    """A dispatched item did not finish within its ``timeout_s``.

    The hung worker may still be running (a process-pool task cannot be
    preempted); a caller that re-dispatches should first discard the
    pool that owns it via :func:`discard_pool`.
    """

    def __init__(self, message: str, index: int = -1) -> None:
        super().__init__(message)
        self.index = index  # submission-order index of the late item


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for one fan-out policy.

    Parameters
    ----------
    workers:
        Worker count; ``0`` resolves to ``os.cpu_count()``.  ``1``
        always means the serial path.
    executor:
        ``"process"`` (true parallelism; workers must receive picklable
        arguments), ``"thread"`` (cheap dispatch, parallel only where
        numpy releases the GIL), or ``"serial"`` (forced fallback --
        useful to pin a config while debugging).
    chunk_size:
        Items handed to a worker per dispatch (process pools only);
        larger chunks amortise pickling for many small items.
    """

    workers: int = 0
    executor: str = "process"
    chunk_size: int = 1

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.workers < 0:
            raise ValueError("workers must be >= 0 (0 = cpu count)")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")

    def resolved_workers(self) -> int:
        """Concrete worker count (``workers=0`` -> CPU count)."""
        if self.workers == 0:
            return os.cpu_count() or 1
        return self.workers

    def is_serial(self) -> bool:
        """True when this config can never dispatch to a pool."""
        return self.executor == "serial" or self.resolved_workers() <= 1


#: Serial singleton: the fallback policy and the "parallelism off" value.
SERIAL = ParallelConfig(workers=1, executor="serial")

# One shared executor per (kind, workers); created lazily, torn down at
# interpreter exit.  Sharing matters: a ProcessPoolExecutor costs tens
# of milliseconds to spin up, which would otherwise be paid per encode.
_pools: dict = {}
_pool_dispatches = 0
_pool_serial_fallbacks = 0
_pool_breakages = 0


def _get_pool(kind: str, workers: int) -> Executor:
    key = (kind, workers)
    pool = _pools.get(key)
    if pool is None:
        if kind == "process":
            pool = ProcessPoolExecutor(max_workers=workers)
        else:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-parallel"
            )
        _pools[key] = pool
    return pool


def get_executor(config: ParallelConfig) -> Executor:
    """The shared live executor for ``config`` (created on first use).

    Supervision layers use this to submit individually-tracked futures
    instead of whole batches; the executor is the same one
    :func:`parallel_map` dispatches to, so pool reuse still holds.
    """
    if config.is_serial():
        raise ValueError("a serial ParallelConfig has no executor")
    return _get_pool(config.executor, config.resolved_workers())


def discard_pool(kind: str, workers: int) -> bool:
    """Drop (and shut down) one cached executor; True if it existed.

    The replacement is created lazily on the next dispatch.  Used after
    a pool breaks (worker crash) or goes unresponsive (hung worker):
    ``shutdown(wait=False)`` abandons rather than joins the wreckage,
    so a hung task cannot hang the supervisor too.
    """
    pool = _pools.pop((kind, workers), None)
    if pool is None:
        return False
    pool.shutdown(wait=False, cancel_futures=True)
    telemetry.count("parallel.pools_discarded")
    return True


def shutdown_pools() -> None:
    """Tear down every cached executor (also registered via ``atexit``)."""
    for pool in _pools.values():
        pool.shutdown(wait=True, cancel_futures=True)
    _pools.clear()


atexit.register(shutdown_pools)


def pool_stats() -> dict:
    """Introspection for tests/benchmarks: live pools and dispatch counts."""
    return {
        "live_pools": sorted(_pools.keys()),
        "dispatches": _pool_dispatches,
        "serial_fallbacks": _pool_serial_fallbacks,
        "breakages": _pool_breakages,
    }


def _noop() -> None:
    """Warm-up task: forces the executor to actually start a worker."""
    return None


# (kind, workers) keys whose workers have been started at least once.
_warmed: set = set()


def warm_pool(config: Optional[ParallelConfig]) -> bool:
    """Start ``config``'s workers ahead of the first real dispatch.

    Process workers cost tens of milliseconds each to fork and import;
    paying that inside the first timed fan-out makes "parallel" lose to
    serial on short batches.  This submits one no-op per worker and
    waits for all of them, so the pool is hot before real work arrives.
    Idempotent and cheap: a pool that is already warm (and still alive)
    is left alone.  Returns True when a warm-up was actually performed.

    The warmed pool is keyed by the config's *resolved* worker count; a
    later dispatch that clamps to fewer workers (fewer items than
    workers) creates its own pool lazily, which is fine -- that path
    only arises for small batches where warm-up never mattered.
    """
    if config is None or config.is_serial():
        return False
    key = (config.executor, config.resolved_workers())
    if key in _warmed and key in _pools:
        return False
    pool = _get_pool(*key)
    for future in [pool.submit(_noop) for _ in range(key[1])]:
        future.result()
    _warmed.add(key)
    telemetry.count("parallel.pool_warmups")
    return True


def _serial_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    deadline: Optional[Deadline] = None,
) -> List[R]:
    results: List[R] = []
    for item in items:
        if deadline is not None:
            deadline.check("parallel_map")
        results.append(fn(item))
    return results


def _mapped_with_timeout(
    pool: Executor,
    fn: Callable[[T], R],
    items: Sequence[T],
    timeout_s: Optional[float],
    deadline: Optional[Deadline],
    parent=None,
) -> List[R]:
    """Submit items individually and bound each wait.

    Per-item semantics: item *i*'s clock starts when the caller begins
    waiting on it, so a batch of N items on W workers gets roughly the
    same leniency a dedicated worker would -- a single hung worker
    still trips the bound.  Earlier items' exceptions surface first
    (futures are drained in submission order), matching the serial
    loop's contract.

    When ``parent`` (the dispatcher's registry) is given, ``fn`` is a
    :class:`TracedTask` and each drained result carries a telemetry
    delta, merged as it arrives; items never drained (timeout, earlier
    failure) are accounted as lost deltas.
    """
    futures = [pool.submit(fn, item) for item in items]
    results: List[R] = []
    under = parent.current_path() if parent is not None else ""
    try:
        for index, future in enumerate(futures):
            wait_s = effective_timeout(deadline, timeout_s)
            try:
                value = future.result(timeout=wait_s)
            except FuturesTimeoutError:
                telemetry.count("parallel.worker_timeouts")
                if deadline is not None and deadline.expired():
                    deadline.check("parallel_map")
                raise WorkerTimeoutError(
                    f"item {index} exceeded its {timeout_s}s timeout",
                    index=index,
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


def _drain(mapped, total: int, parent) -> List:
    """Collect mapped results, merging telemetry deltas as they arrive.

    ``parent is None`` means the batch ran unwrapped (telemetry off at
    dispatch): just drain.  Otherwise every item is a
    :class:`TracedOutcome`; merge its delta under the live span path
    and unwrap.  If draining raises (item exception, broken pool), the
    deltas of everything not yet drained are unrecoverable and are
    accounted in ``telemetry.worker_deltas_lost``.
    """
    if parent is None:
        return list(mapped)
    results: List = []
    under = parent.current_path()
    try:
        for outcome in mapped:
            merge_delta(parent, outcome.delta, under=under)
            results.append(outcome.result)
    finally:
        count_lost_deltas(parent, total - len(results))
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: Optional[ParallelConfig],
    label: str = "map",
    serial: bool = False,
    timeout_s: Optional[float] = None,
    deadline: Optional[Deadline] = None,
) -> List[R]:
    """Apply ``fn`` to ``items``, preserving order, optionally in parallel.

    The contract callers rely on: the returned list is exactly
    ``[fn(x) for x in items]`` -- same order, same exceptions.  If any
    call raises, the exception of the *earliest* item surfaces (like
    the serial loop; later items may or may not have run).

    ``serial=True`` forces the fallback regardless of ``config``; pass
    it when the caller detects a cross-item dependency (e.g. inter
    prediction between frames) that makes fan-out incorrect.

    Fault handling:

    - ``timeout_s`` bounds each item's pool wait; a straggler raises
      :class:`WorkerTimeoutError` (pool paths only -- the serial loop
      cannot preempt ``fn``).
    - ``deadline`` is checked between serial items and caps every pool
      wait; expiry raises
      :class:`~repro.resilience.errors.DeadlineExceeded`.
    - A pool whose worker died mid-batch (``BrokenProcessPool``) is
      discarded and the *entire* batch re-runs serially -- ``fn`` must
      therefore be deterministic and idempotent, which every codec
      fan-out body is.
    """
    global _pool_dispatches, _pool_serial_fallbacks, _pool_breakages
    items = list(items)
    if (
        serial
        or config is None
        or config.is_serial()
        or len(items) <= 1
    ):
        if config is not None and not config.is_serial() and not serial:
            # A parallel policy that degenerated (single item).
            telemetry.count("parallel.single_item")
        _pool_serial_fallbacks += 1
        telemetry.count("parallel.serial_fallbacks")
        return _serial_map(fn, items, deadline)

    if deadline is not None:
        deadline.check("parallel_map")
    workers = min(config.resolved_workers(), len(items))
    _pool_dispatches += 1
    telemetry.count("parallel.dispatches")
    telemetry.count("parallel.tasks", len(items))
    telemetry.observe("parallel.workers", workers)
    with telemetry.span(f"parallel.{label}"):
        pool = _get_pool(config.executor, workers)
        # With telemetry live on the dispatching thread, wrap the body
        # so each worker (thread OR process) runs a child registry and
        # ships its delta back with the result; spans recorded inside
        # workers then land under this dispatch's span path instead of
        # vanishing into the worker's thread-local void.
        parent = telemetry.current()
        task: Callable = fn
        if parent is not None:
            task = TracedTask(fn, ctx=parent.trace_ctx, trace=parent.trace)
        try:
            if timeout_s is not None or deadline is not None:
                return _mapped_with_timeout(
                    pool, task, items, timeout_s, deadline, parent
                )
            if config.executor == "process":
                mapped = pool.map(task, items, chunksize=config.chunk_size)
            else:
                mapped = pool.map(task, items)
            # Draining happens in submission order; the first failing
            # item's exception propagates here, matching the serial loop.
            return _drain(mapped, len(items), parent)
        except BrokenPoolError:
            # A worker died (SIGKILL, OOM, segfault): the pool is
            # unusable and which items completed is unknowable.
            _pool_breakages += 1
            telemetry.count("parallel.broken_pools")
            discard_pool(config.executor, workers)
            telemetry.count("parallel.broken_pool_serial_reruns")
            return _serial_map(fn, items, deadline)
