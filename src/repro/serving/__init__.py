"""repro.serving: the fault-tolerant layer that turns the codec into a service.

The codec library raises or hangs like any library; a serving system
cannot.  This package composes the PR 2 resilience mechanisms (CRC
framing, typed errors, concealment, fault injection) and the PR 3
parallel engine into a supervised request path with measured
availability:

- :mod:`repro.serving.broker` -- bounded admission (typed
  :class:`Overloaded` backpressure instead of unbounded queues).
- :mod:`repro.serving.breaker` -- per-backend circuit breaking.
- :mod:`repro.serving.supervisor` -- crash/hang detection, bounded
  retry with seeded backoff.
- :mod:`repro.serving.ladder` -- the degradation ladder (one search;
  kernels + threads -> kernels -> pure-Python twin).
- :mod:`repro.serving.slo` -- latency percentiles, availability, and
  shed/degraded/retried accounting exported as ``serving.*`` telemetry.
- :mod:`repro.serving.service` -- :class:`CodecService`, the request
  path itself.
- :mod:`repro.serving.chaos` -- the seeded chaos soak harness behind
  ``llm265 chaos``.

The contract every response obeys (asserted by the chaos harness over
seeded fault schedules): a completed request is bit-exact with its
serial reference, or a typed error (:class:`Overloaded`,
:class:`~repro.resilience.errors.DeadlineExceeded`,
:class:`~repro.resilience.errors.CorruptStreamError`), or explicitly
flagged ``degraded=True`` -- never a silent wrong answer.  See
``docs/SERVING.md``.
"""

from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.serving.breaker import CircuitBreaker
from repro.serving.broker import Overloaded, RequestBroker
from repro.serving.chaos import ChaosConfig, run_chaos
from repro.serving.ladder import DEFAULT_LADDER, DegradationLadder, Rung
from repro.serving.service import CodecService, ServeResponse, ServiceConfig
from repro.serving.slo import SloTracker
from repro.serving.supervisor import RetriesExhausted, Supervisor, WorkerCrashed

__all__ = [
    "ChaosConfig",
    "CircuitBreaker",
    "CodecService",
    "DEFAULT_LADDER",
    "Deadline",
    "DeadlineExceeded",
    "DegradationLadder",
    "Overloaded",
    "RequestBroker",
    "RetriesExhausted",
    "Rung",
    "ServeResponse",
    "ServiceConfig",
    "SloTracker",
    "Supervisor",
    "WorkerCrashed",
    "run_chaos",
]
