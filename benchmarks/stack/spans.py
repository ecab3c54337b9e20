"""Spans and sample statistics recorded by the benchmark's own code.

A span is (id, name, op, parent, start, end): one per public call into
a layer, made around the call from the benchmark's side -- nothing is
recorded inside the program.  Spans of one op share its ``op`` id and
hang under that op's root span.  Durations are always kept as samples
(the medians come from them); the span records themselves are kept only
by a tracing recorder, in memory, and written out once at exit.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: Percentiles the tail report may choose from.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10


class Recorder:
    """Per-thread sample and span sink (merge several with :func:`merged`)."""

    def __init__(self, trace: bool = False, first_id: int = 1) -> None:
        self.trace = trace
        self.samples: Dict[str, List[float]] = {}
        self.spans: List[dict] = []
        self._next_id = first_id

    def sample(self, name: str, seconds: float) -> None:
        """Keep a duration without a span (an alias of a span already recorded)."""
        bucket = self.samples.get(name)
        if bucket is None:
            bucket = self.samples[name] = []
        bucket.append(seconds)

    def add(self, name: str, op: str, start: float, end: float, parent: int = 0) -> int:
        """Record one call; returns the span id (0 when not tracing)."""
        self.sample(name, end - start)
        if not self.trace:
            return 0
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(
            {"id": span_id, "name": name, "op": op, "parent": parent,
             "start": start, "end": end}
        )
        return span_id

    def reserve(self) -> int:
        """Id for a root span whose children are recorded before it ends."""
        if not self.trace:
            return 0
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def add_root(self, span_id: int, name: str, op: str, start: float, end: float) -> None:
        self.sample(name, end - start)
        if self.trace:
            self.spans.append(
                {"id": span_id, "name": name, "op": op, "parent": 0,
                 "start": start, "end": end}
            )


def merged(recorders: Iterable[Recorder]) -> Recorder:
    out = Recorder(trace=True)
    for recorder in recorders:
        for name, values in recorder.samples.items():
            out.samples.setdefault(name, []).extend(values)
        out.spans.extend(recorder.spans)
    return out


def write_trace(path: str, spans: Sequence[dict], header: dict) -> None:
    with open(path, "w") as handle:
        json.dump({"header": header, "spans": list(spans)}, handle)


# -- statistics -----------------------------------------------------------


def _rank(count: int, p: float) -> int:
    # round() first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return min(count, math.ceil(round(p * count / 100.0, 6)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (the smallest sample with >= p % at or below)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[max(0, _rank(len(ordered), p) - 1)]


def median_ms(samples: Sequence[float]) -> float:
    return 1e3 * percentile(samples, 50.0)


def fast_ms(samples: Sequence[float]) -> float:
    """The 10th percentile: what an op costs while the machine is undisturbed.

    Disturbance on a shared runner only ever adds time.  The median of
    a run moves with the share of the run that was disturbed (here by
    10-40 % between runs of the same code); the 10th percentile stays
    inside the undisturbed ops until nine tenths of the run are hit,
    and repeated two to three times better in the acceptance runs.
    """
    return 1e3 * percentile(samples, 10.0)


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it.

    Falls back to the median when even that is not supported (fewer
    than twenty samples): the report then says so by printing ``p50``.
    """
    best = TAIL_CANDIDATES[0]
    for candidate in TAIL_CANDIDATES:
        if count - _rank(count, candidate) >= TAIL_MIN_BEYOND:
            best = candidate
    return best


def tail_ms(samples: Sequence[float]) -> Tuple[float, float]:
    p = tail_percentile(len(samples))
    return p, 1e3 * percentile(samples, p)
