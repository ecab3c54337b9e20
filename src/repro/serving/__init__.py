"""repro.serving: the tensor codec behind a typed-response contract.

- :mod:`repro.serving.service` -- :class:`CodecService`: one
  :class:`~repro.tensor.codec.TensorCodec` call per request, with
  deadline checks, concealment of damaged decodes and the typed
  :class:`ServeResponse`.
- :mod:`repro.serving.ladder` -- :data:`DEFAULT_LADDER`, the one
  production codec record.
- :mod:`repro.serving.broker` -- bounded admission (typed
  :class:`Overloaded`), one per cluster shard.
- :mod:`repro.serving.breaker` -- the circuit breaker behind the
  router's per-shard health.
- :mod:`repro.serving.slo` -- latency percentiles and availability.
- :mod:`repro.serving.chaos` -- the concealment soak behind
  ``llm265 chaos``.

A completed request is bit-exact with its serial reference, or a typed
error, or explicitly flagged ``degraded=True`` -- never a silent wrong
answer.  See ``docs/CLUSTER.md``.
"""

from repro.serving.broker import Overloaded
from repro.serving.chaos import ChaosConfig, run_chaos
from repro.serving.service import (
    CodecFault,
    CodecService,
    ServeResponse,
    ServiceConfig,
)

__all__ = [
    "ChaosConfig",
    "CodecFault",
    "CodecService",
    "Overloaded",
    "ServeResponse",
    "ServiceConfig",
    "run_chaos",
]
