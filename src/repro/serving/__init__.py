"""repro.serving: the tensor codec behind a typed-response contract.

- :mod:`repro.serving.service` -- :class:`CodecService`: one
  :class:`~repro.tensor.codec.TensorCodec` call per request, with
  deadline checks, concealment of damaged decodes and the typed
  :class:`ServeResponse`.
- :mod:`repro.serving.ladder` -- :data:`DEFAULT_LADDER`, the one
  production codec record.
- :mod:`repro.serving.broker` -- bounded admission (typed
  :class:`Overloaded`), one per cluster shard.
- :mod:`repro.serving.slo` -- latency percentiles and availability.

A completed request is bit-exact with its serial reference, or a typed
error, or explicitly flagged ``degraded=True`` -- never a silent wrong
answer.  See ``docs/CLUSTER.md``.
"""

from repro.serving.broker import Overloaded
from repro.serving.service import (
    CodecFault,
    CodecService,
    ServeResponse,
    ServiceConfig,
)

__all__ = [
    "CodecFault",
    "CodecService",
    "Overloaded",
    "ServeResponse",
    "ServiceConfig",
]
