"""Trace-context propagation and cross-worker telemetry merge.

The registry in :mod:`repro.telemetry.core` is thread-local by design
(zero overhead when disabled), which means spans and counters emitted
on a *different* thread -- a pool worker, a router dispatch --
used to vanish silently.  This module closes
that gap with two pieces:

- A :class:`TraceContext`: a small, immutable request identity
  (trace id, owning span path, remaining deadline budget) minted once
  per service request and carried along every hand-off.  While a
  context is active (:func:`trace_scope`) each recorded span event is
  tagged with the trace id, so a Chrome trace groups all work --
  including worker-side work merged in later -- under the originating
  request.

- A **delta protocol**: :class:`TracedTask` wraps a callable so it
  runs under a fresh child registry on whatever thread executes it,
  then ships a compact serialized snapshot of everything
  it collected (:func:`snapshot_delta`) back with the result.  The
  dispatcher merges the delta into its own registry with
  :func:`merge_delta`: counters add, histograms combine
  (count/sum/min/max), span paths are reparented under the dispatch
  site, and trace events are rebased onto the parent clock.  Both
  directions are plain dicts of plain values: a shipped delta shares
  no live object with the worker's registry.

Accounting is honest about loss: a worker that hangs past its wait,
or is never drained because an earlier item failed, cannot ship a
delta.  Dispatchers
count every unrecovered delta in ``telemetry.worker_deltas_lost``
(and every recovered one in ``telemetry.worker_deltas_merged``), so a
trace that is missing worker-side spans says so instead of looking
mysteriously idle.

Clock note: event timestamps are rebased using each registry's
``perf_counter`` origin; every registry in the process reads the same
clock, so rebasing is exact.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

from repro.telemetry import core
from repro.telemetry.core import MAX_TRACE_EVENTS, Histogram, Registry, SpanStat

__all__ = [
    "DELTA_VERSION",
    "TraceContext",
    "TracedOutcome",
    "TracedTask",
    "count_lost_deltas",
    "current_trace",
    "merge_delta",
    "mint_trace",
    "snapshot_delta",
    "trace_scope",
]

#: Version tag carried in every serialized delta; bump on shape change.
DELTA_VERSION = 1

_trace_sequence = itertools.count(1)


@dataclass(frozen=True)
class TraceContext:
    """Immutable request identity threaded through every hand-off.

    Parameters
    ----------
    trace_id:
        Globally unique id for one request (``"<label>-<pid>-<seq>"``).
    parent_span:
        The span path that owned the work when the context was
        captured; informational (merges use the live dispatch path).
    budget_s:
        The request's remaining deadline budget at mint time, so a
        worker that only sees the context still knows how urgent the
        request was.
    """

    trace_id: str
    parent_span: str = ""
    budget_s: Optional[float] = None


def mint_trace(label: str = "req", budget_s: Optional[float] = None) -> TraceContext:
    """A fresh :class:`TraceContext` with a process-unique trace id."""
    sequence = next(_trace_sequence)
    return TraceContext(
        trace_id=f"{label}-{os.getpid():x}-{sequence:06d}",
        budget_s=budget_s,
    )


def current_trace() -> Optional[TraceContext]:
    """The calling thread's active trace context, or ``None``."""
    registry = core.current()
    return registry.trace_ctx if registry is not None else None


@contextmanager
def trace_scope(ctx: Optional[TraceContext]):
    """Activate ``ctx`` on the calling thread's registry for the block.

    A no-op when telemetry is disabled or ``ctx`` is ``None``; nests
    correctly (the prior context is restored on exit).
    """
    registry = core.current()
    if registry is None or ctx is None:
        yield ctx
        return
    previous = registry.trace_ctx
    registry.trace_ctx = ctx
    try:
        yield ctx
    finally:
        registry.trace_ctx = previous


# -- the delta protocol ----------------------------------------------------


def snapshot_delta(registry: Registry) -> dict:
    """Everything ``registry`` collected, as one plain-data dict.

    The shape is the wire format workers ship back to their
    dispatcher; it contains no live objects.
    """
    return {
        "v": DELTA_VERSION,
        "start": registry.start,
        "pid": os.getpid(),
        "counters": dict(registry.counters),
        "histograms": {
            name: {
                "count": hist.count,
                "total": hist.total,
                "min": hist.min,
                "max": hist.max,
            }
            for name, hist in registry.histograms.items()
            if hist.count
        },
        "spans": {
            path: {"calls": stat.calls, "total_s": stat.total_s}
            for path, stat in registry.spans.items()
        },
        "events": list(registry.events),
        "dropped_events": registry.dropped_events,
    }


def merge_delta(
    parent: Registry,
    delta: dict,
    under: str = "",
    trace_id: Optional[str] = None,
) -> None:
    """Fold a worker's serialized ``delta`` into ``parent``.

    Semantics (pinned by ``tests/test_telemetry_propagation.py``):

    - counters **add**;
    - histograms **combine**: counts and totals add, min/max widen;
    - span paths are **reparented** under ``under`` (the dispatch
      site's span path), then aggregate like same-path spans;
    - trace events are **rebased** onto the parent clock, their
      ``args.path`` reparented, and tagged with ``trace_id`` when
      given (worker-side events that already carry a trace id keep
      it); the parent's ``MAX_TRACE_EVENTS`` cap still applies, with
      overflow counted in ``dropped_events``;
    - the worker's own ``dropped_events`` carry over.

    Every merge bumps ``telemetry.worker_deltas_merged`` on the
    parent.
    """
    for name, value in delta["counters"].items():
        parent.count(name, value)
    for name, data in delta["histograms"].items():
        hist = parent.histograms.get(name)
        if hist is None:
            hist = parent.histograms[name] = Histogram()
        hist.count += data["count"]
        hist.total += data["total"]
        if data["min"] < hist.min:
            hist.min = data["min"]
        if data["max"] > hist.max:
            hist.max = data["max"]
    for path, data in delta["spans"].items():
        full = f"{under}/{path}" if under else path
        stat = parent.spans.get(full)
        if stat is None:
            stat = parent.spans[full] = SpanStat()
        stat.calls += data["calls"]
        stat.total_s += data["total_s"]
    if parent.trace and delta["events"]:
        offset_us = (delta["start"] - parent.start) * 1e6
        for event in delta["events"]:
            if len(parent.events) >= MAX_TRACE_EVENTS:
                parent.dropped_events += 1
                continue
            merged = dict(event)
            merged["ts"] = merged["ts"] + offset_us
            args = dict(merged.get("args") or {})
            if under and args.get("path"):
                args["path"] = f"{under}/{args['path']}"
            if trace_id and "trace" not in args:
                args["trace"] = trace_id
            merged["args"] = args
            parent.events.append(merged)
    parent.dropped_events += delta["dropped_events"]
    parent.count("telemetry.worker_deltas_merged")


def count_lost_deltas(parent: Optional[Registry], lost: int) -> None:
    """Account ``lost`` worker deltas that can never be recovered."""
    if parent is not None and lost > 0:
        parent.count("telemetry.worker_deltas_lost", lost)


# -- the worker-side wrapper -----------------------------------------------


class TracedOutcome:
    """What a :class:`TracedTask` returns: result/error + the delta."""

    __slots__ = ("result", "error", "delta")

    def __init__(
        self,
        result: object,
        error: Optional[BaseException],
        delta: dict,
    ) -> None:
        self.result = result
        self.error = error
        self.delta = delta


class TracedTask:
    """Wrapper that runs ``fn`` under a fresh child registry.

    The child registry is installed on the executing thread for the
    duration of the call (and removed after, restoring whatever was
    there), the trace context is activated inside it, and the call's
    telemetry is shipped back as a :class:`TracedOutcome`.

    Parameters
    ----------
    fn:
        The callable to wrap.
    ctx:
        Trace context to activate in the worker, if any.
    trace:
        Whether the child registry records individual span events
        (mirrors the dispatcher's ``Registry.trace`` flag).
    capture_error:
        When True, an exception from ``fn`` is captured into the
        outcome instead of propagating, so the dispatcher can merge
        the telemetry of a *failed* attempt before re-raising.  When
        False (pool fan-outs), exceptions propagate exactly as the
        unwrapped call's would -- the delta of a failing item is lost
        and must be accounted by the dispatcher.
    root:
        Optional span name wrapped around the whole call in the child
        registry (e.g. ``"shard[shard-1]/hedge"``), so sibling dispatches of the
        same work stay distinguishable after the merge.
    """

    __slots__ = ("fn", "ctx", "trace", "capture_error", "root")

    def __init__(
        self,
        fn: Callable,
        ctx: Optional[TraceContext] = None,
        trace: bool = False,
        capture_error: bool = False,
        root: Optional[str] = None,
    ) -> None:
        self.fn = fn
        self.ctx = ctx
        self.trace = trace
        self.capture_error = capture_error
        self.root = root

    def __call__(self, *args) -> TracedOutcome:
        previous = core.current()
        registry = Registry(trace=self.trace)
        registry.trace_ctx = self.ctx
        core._local.registry = registry
        result: object = None
        error: Optional[BaseException] = None
        try:
            try:
                if self.root:
                    with core.span(self.root):
                        result = self.fn(*args)
                else:
                    result = self.fn(*args)
            except BaseException as exc:
                if not self.capture_error:
                    raise
                error = exc
        finally:
            core._local.registry = previous
        return TracedOutcome(result, error, snapshot_delta(registry))
