"""Flight recorder: a bounded ring of recent structured events.

Telemetry aggregates answer "how much, how fast"; they cannot answer
"what just happened" when a request fails or the chaos soak catches
a contract violation.  The flight recorder keeps the last N structured
events -- breaker trips, failovers, hedges, sheds, typed errors -- in a
fixed-size ring that is always on
(one lock + one ``deque.append`` per event; the serving layer only
records *notable* events, never per-span), so a postmortem can be
assembled after the fact without having had tracing enabled.

:func:`dump_bundle` writes the postmortem: the ring contents, a
snapshot of the active telemetry registry, the request trace tree,
and the seed that reproduces the run.  The chaos soak dumps one on
any violation, and ``llm265 chaos`` prints the bundle path on
exit 2.  Bundle shape is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = [
    "BUNDLE_SCHEMA",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "dump_bundle",
    "get_recorder",
    "record",
    "set_recorder",
]

#: Schema tag written into every postmortem bundle.
BUNDLE_SCHEMA = "llm265-postmortem-v1"

#: Default ring size.  Events are small dicts; 512 of them comfortably
#: cover the interesting tail of a soak while staying trivial to dump.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Thread-safe fixed-size ring of ``{seq, t_mono, kind, fields}``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=capacity)
        self._seq = 0
        self.total_recorded = 0

    def record(self, kind: str, /, **fields) -> None:
        """Append one event; oldest events fall off past the capacity.

        ``kind`` is positional-only so a field may itself be named
        ``kind`` (e.g. a request kind) without colliding.
        """
        with self._lock:
            self._seq += 1
            self.total_recorded += 1
            self._ring.append(
                {
                    "seq": self._seq,
                    "t_mono": time.monotonic(),
                    "kind": kind,
                    "fields": fields,
                }
            )

    def snapshot(self) -> List[dict]:
        """The ring contents, oldest first (copies, JSON-ready)."""
        with self._lock:
            return [dict(event) for event in self._ring]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "stored": len(self._ring),
                "total_recorded": self.total_recorded,
                "evicted": max(0, self.total_recorded - len(self._ring)),
            }

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()


#: Process-wide default recorder.  Always installed: recording must
#: never depend on a setup step, or the events leading up to the first
#: failure are exactly the ones missing.
_recorder = FlightRecorder()


def get_recorder() -> FlightRecorder:
    return _recorder


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the process-wide recorder (tests); returns the previous one."""
    global _recorder
    previous = _recorder
    _recorder = recorder
    return previous


def record(kind: str, /, **fields) -> None:
    """Record one event on the process-wide recorder."""
    _recorder.record(kind, **fields)


def _json_safe(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def dump_bundle(
    directory: str,
    reason: str,
    registry=None,
    seed: Optional[int] = None,
    extra: Optional[dict] = None,
) -> str:
    """Write a postmortem bundle into ``directory``; returns its path.

    The bundle holds the flight-recorder ring, a full snapshot of
    ``registry`` (or the calling thread's active registry when omitted)
    plus its span trace tree, the reproducing ``seed``, and any
    caller-supplied ``extra`` document (e.g. the chaos invariant
    verdict).
    """
    from repro.telemetry import core
    from repro.telemetry.export import to_json, trace_tree

    if registry is None:
        registry = core.current()
    recorder = get_recorder()
    slug = "".join(c if c.isalnum() or c == "-" else "-" for c in reason)[:48]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory,
        f"postmortem-{slug}-{os.getpid()}-{recorder.total_recorded}.json",
    )
    bundle = {
        "schema": BUNDLE_SCHEMA,
        "created_unix": time.time(),
        "reason": reason,
        "seed": seed,
        "ring": recorder.snapshot(),
        "ring_stats": recorder.stats(),
        "telemetry": to_json(registry) if registry is not None else None,
        "trace_tree": trace_tree(registry) if registry is not None else None,
        "extra": extra,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle, handle, indent=2, default=_json_safe)
        handle.write("\n")
    return path
