"""Sharded cluster serving for the codec.

One :class:`~repro.cluster.router.ClusterRouter` fronts N
:class:`~repro.cluster.shard.ClusterShard` instances (each bounded
admission around a thin :class:`~repro.serving.service.CodecService`);
the router is the one resilience layer:

- :mod:`repro.cluster.ring` -- consistent-hash routing with virtual
  nodes; ``tensor_id`` picks the replica set, membership changes move
  only the departed shard's key range.
- :mod:`repro.cluster.health` -- :class:`ShardHealth`, one per shard:
  a breaker and a failure-rate EWMA; unhealthy shards are drained from
  the ring and re-admitted by bounded probes.
- :mod:`repro.cluster.router` -- replication with failover, hedged
  requests (p99-derived delay, commit-once dedupe), the typed cluster
  response contract; quorum-acknowledged durable ``put``/``get`` when
  the shards carry stores.
- :mod:`repro.cluster.store` -- per-shard append-only log store (one
  ``journal.log`` of CRC-framed headers each followed by its payload):
  an acknowledged write is one append + one fsync and survives
  SIGKILL; every read is CRC-verified or a typed error; crash
  recovery truncates torn tails and quarantines damaged payloads.
- :mod:`repro.cluster.repair` -- anti-entropy: per-shard key digests,
  (version, hash) winner election, re-replication until the ring's
  R-way invariant holds again after death/revive.
- :mod:`repro.cluster.traffic` -- open-loop workload generation
  (bursty/diurnal arrivals, session affinity, mixed tensor sizes).
- :mod:`repro.cluster.chaos` -- the one soak behind ``llm265 chaos``:
  every fault family at once (request hangs and stragglers, damaged
  decode payloads, mid-write shard kills and hangs, disk rot) over a
  durable router, asserting the typed-response contract, acknowledged-
  write durability, healed replication and two availability floors.
  Not imported here: nothing on the request path loads it.
"""

from repro.cluster.health import ShardHealth
from repro.cluster.ring import HashRing
from repro.cluster.router import (
    ClusterConfig,
    ClusterResponse,
    ClusterRouter,
    ClusterUnavailable,
    WriteQuorumFailed,
)
from repro.cluster.shard import ClusterShard, ShardDown
from repro.cluster.store import (
    NotFound,
    Quarantined,
    ShardStore,
    StoreClosed,
    StoreError,
)
from repro.cluster.repair import RepairReport, repair_until_converged, run_anti_entropy

__all__ = [
    "ClusterConfig",
    "ClusterResponse",
    "ClusterRouter",
    "ClusterShard",
    "ClusterUnavailable",
    "HashRing",
    "NotFound",
    "Quarantined",
    "RepairReport",
    "ShardDown",
    "ShardHealth",
    "ShardStore",
    "StoreClosed",
    "StoreError",
    "WriteQuorumFailed",
    "repair_until_converged",
    "run_anti_entropy",
]
