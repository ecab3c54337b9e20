"""Zero-overhead-when-disabled tracing and metrics core.

The registry lives in a thread-local slot.  While no registry is
installed (the default), every instrumentation entry point --
:func:`span`, :func:`count`, :func:`observe` -- reduces to one
``getattr`` on a ``threading.local`` plus a ``None`` check, and
:func:`span` hands back a shared no-op context manager, so instrumented
hot paths pay essentially nothing.  Nothing is allocated and no
registry entry is created until :func:`enable` (or :func:`session`)
installs a registry on the calling thread.

Three primitive instrument kinds:

- **spans** -- hierarchical timed regions.  Nesting is tracked per
  registry: a span opened inside another is keyed by the joined path
  (``"tensor.encode/frames.encode/group"``), which is also what the
  Chrome trace export emits.
- **counters** -- monotonic numeric totals (``encode.bits.level``).
- **histograms** -- summary statistics (count/sum/min/max/mean) of an
  observed value stream (``encode.qp``).

The stable metric names used across the codebase, each with its
reader, are documented in ``docs/OBSERVABILITY.md``; they are a
contract that perf PRs regress against.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = [
    "Histogram",
    "Registry",
    "SpanStat",
    "count",
    "current",
    "disable",
    "enable",
    "enabled",
    "observe",
    "scope",
    "session",
    "span",
]

#: Hard cap on stored Chrome trace events; beyond it events are counted
#: in ``Registry.dropped_events`` instead of growing memory unboundedly.
MAX_TRACE_EVENTS = 200_000

_local = threading.local()


def current() -> Optional["Registry"]:
    """The calling thread's active registry, or ``None`` when disabled."""
    return getattr(_local, "registry", None)


def enabled() -> bool:
    """True when telemetry is collecting on the calling thread."""
    return current() is not None


def enable(trace: bool = False) -> "Registry":
    """Install a fresh registry on the calling thread and return it.

    ``trace=True`` additionally records individual span events for the
    Chrome ``chrome://tracing`` export (costs memory; aggregates alone
    do not).
    """
    registry = Registry(trace=trace)
    _local.registry = registry
    return registry


def disable() -> Optional["Registry"]:
    """Remove the calling thread's registry (if any) and return it."""
    registry = current()
    _local.registry = None
    return registry


@contextmanager
def session(trace: bool = False):
    """Scoped :func:`enable`: yields the registry, restores the prior state."""
    previous = current()
    registry = Registry(trace=trace)
    _local.registry = registry
    try:
        yield registry
    finally:
        _local.registry = previous


@contextmanager
def scope():
    """Yield the active registry, else a fresh :func:`session`'s.

    A run inside a caller's registry (the CLI's ``--trace`` session)
    reports into it, so the trace file covers the run too; a run with
    none still has a registry to report from.
    """
    active = current()
    if active is not None:
        yield active
    else:
        with session() as registry:
            yield registry


class Histogram:
    """Streaming summary of an observed value series."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class SpanStat:
    """Aggregate for one span path: invocation count and total wall time."""

    __slots__ = ("calls", "total_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "total_s": self.total_s}


class Registry:
    """All telemetry collected on one thread between enable/disable."""

    def __init__(self, trace: bool = False) -> None:
        self.trace = trace
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Dict[str, SpanStat] = {}
        self.events: List[dict] = []
        self.dropped_events = 0
        self.start = time.perf_counter()
        self._stack: List[str] = []
        #: Active :class:`~repro.telemetry.propagate.TraceContext`, if a
        #: request identity is being propagated (see ``trace_scope``).
        #: Span events record its trace_id so cross-process/thread
        #: merges can attribute work to the owning request.
        self.trace_ctx = None

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def current_path(self) -> str:
        """The innermost open span path ('' at top level)."""
        return self._stack[-1] if self._stack else ""

    def reset(self) -> None:
        """Drop all collected data but keep the registry installed."""
        self.counters.clear()
        self.histograms.clear()
        self.spans.clear()
        self.events.clear()
        self.dropped_events = 0
        self._stack.clear()
        self.start = time.perf_counter()


class _NullSpan:
    """Shared no-op span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("_registry", "_name", "path", "_start")

    def __init__(self, registry: Registry, name: str) -> None:
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        registry = self._registry
        parent = registry._stack[-1] if registry._stack else ""
        self.path = f"{parent}/{self._name}" if parent else self._name
        registry._stack.append(self.path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        end = time.perf_counter()
        registry = self._registry
        if registry._stack and registry._stack[-1] == self.path:
            registry._stack.pop()
        stat = registry.spans.get(self.path)
        if stat is None:
            stat = registry.spans[self.path] = SpanStat()
        stat.calls += 1
        duration = end - self._start
        stat.total_s += duration
        if registry.trace:
            if len(registry.events) < MAX_TRACE_EVENTS:
                args = {"path": self.path}
                if registry.trace_ctx is not None:
                    args["trace"] = registry.trace_ctx.trace_id
                registry.events.append(
                    {
                        "name": self._name,
                        "cat": "llm265",
                        "ph": "X",
                        "ts": (self._start - registry.start) * 1e6,
                        "dur": duration * 1e6,
                        "pid": 0,
                        "tid": threading.get_ident() & 0xFFFFFF,
                        "args": args,
                    }
                )
            else:
                registry.dropped_events += 1
        return False


def span(name: str):
    """Open a timed region; a no-op context manager when disabled."""
    registry = current()
    if registry is None:
        return _NULL_SPAN
    return _Span(registry, name)


def count(name: str, value: float = 1) -> None:
    """Bump a monotonic counter; no-op when disabled."""
    registry = current()
    if registry is not None:
        registry.count(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation; no-op when disabled."""
    registry = current()
    if registry is not None:
        registry.observe(name, value)
