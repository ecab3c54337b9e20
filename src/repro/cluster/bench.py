"""The tracked cluster bench: shard sweep, hedge A/B, chaos verdict.

Produces the ``BENCH_cluster.json`` document (schema
``llm265-cluster-bench-v1``) the perf-regression sentinel gates on.
Three sections, all self-normalized (no cross-machine absolute-time
claims):

- ``shard_sweep`` -- the same open-loop workload against 2, 4, 8
  shards: p50/p99/p999 and availability per shard count.  The claim is
  *shape*, not speed: availability holds and tails do not explode as
  the cluster scales.
- ``hedge`` -- the tail-at-scale experiment: an identical straggler-
  injected workload with hedging off, then on, provisioned as a
  controlled experiment (steady arrivals at ~50% capacity) so the tail
  is the stragglers, not queueing collapse.  The pair runs three times
  and the median-ratio trial is reported (virtualized CPU steal can
  fabricate a tail in either arm).  ``p99_ratio`` (no-hedge p99 over
  hedged p99) is the tracked number; > 1 means hedges cut the tail
  they exist to cut.
- ``chaos`` -- one cluster chaos soak's invariant verdict (contract
  violations, availability through shard kills), so the tracked
  baseline carries the robustness claim alongside the latency one.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.harness import fault_gate
from repro.resilience.faults import FaultConfig, FaultInjector
from repro.serving.slo import _nearest_rank
from repro.cluster.chaos import (
    ClusterChaosConfig,
    _PooledReferences,
    _send,
    _warm_router,
    run_cluster_chaos,
)
from repro.cluster.router import ClusterConfig, ClusterRouter
from repro.cluster.traffic import (
    OpenLoopDriver,
    TrafficConfig,
    generate_arrivals,
)

__all__ = ["format_cluster_bench", "run_cluster_bench"]

SCHEMA = "llm265-cluster-bench-v1"


def _latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    samples = sorted(latencies_s)  # no samples: every quantile reads 0.0
    return {
        "p50": 1e3 * _nearest_rank(samples, 50.0),
        "p99": 1e3 * _nearest_rank(samples, 99.0),
        "p999": 1e3 * _nearest_rank(samples, 99.9),
        "max": 1e3 * samples[-1] if samples else 0.0,
    }


def _run_point(
    shards: int,
    requests: int,
    seed: int,
    qp: float,
    tile: int,
    base_rate_rps: float,
    gate: Optional[Callable[[str], None]] = None,
    traffic_seed_salt: int = 0,
    burst_factor: float = 2.0,
    **hedging,
) -> dict:
    """One open-loop run against a fresh router; returns its point doc.

    ``hedging`` overrides the router's hedge settings (``hedge``,
    ``hedge_quantile``, ``hedge_budget``).
    """
    config = ClusterConfig(
        shards=shards,
        replication=min(2, shards),
        tile=tile,
        default_qp=qp,
        seed=seed,
        **hedging,
    )
    router = ClusterRouter(config)
    references = _PooledReferences(
        ClusterChaosConfig(qp=qp, tile=tile, seed=seed)
    )
    arrivals = generate_arrivals(
        TrafficConfig(
            requests=requests,
            base_rate_rps=base_rate_rps,
            # Default bursts (3x) would exceed the single-core capacity
            # the soak is provisioned against; the tail would then
            # measure queueing, not routing or hedging.
            burst_factor=burst_factor,
            seed=seed + 101 + traffic_seed_salt,
        )
    )
    references.prebuild(arrivals)
    _warm_router(router, references)
    warm_requests = router.slo.snapshot()["requests"]

    started = time.perf_counter()
    responses = OpenLoopDriver(
        lambda arrival: _send(router, references, arrival, qp, gate)
    ).run(arrivals)
    elapsed_s = time.perf_counter() - started
    router.close()

    responses = [r for r in responses if r is not None]
    # Availability over the measured responses only (the warmup
    # requests sit in the router's SLO tracker but not in the bench).
    served = sum(1 for r in responses if r.ok)
    slo = router.slo.snapshot()
    return {
        "shards": shards,
        "replication": config.replication,
        "requests": len(responses),
        "warm_requests": warm_requests,
        "hedge": config.hedge,
        "elapsed_s": elapsed_s,
        "offered_rps": base_rate_rps,
        "latency_ms": _latency_summary([r.latency_s for r in responses]),
        "availability": served / len(responses) if responses else 0.0,
        "outcomes": slo["outcomes"],
        "router": dict(router.counters),
    }


def run_cluster_bench(
    shard_counts: Sequence[int] = (2, 4, 8),
    requests: int = 1200,
    seed: int = 0,
    qp: float = 26.0,
    tile: int = 32,
    base_rate_rps: float = 80.0,
    hedge_rate_rps: float = 30.0,
    straggler_prob: float = 0.05,
    straggler_delay_s: float = 0.25,
    hedge_trials: int = 3,
    include_chaos: bool = True,
    chaos_requests: int = 2000,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Run the full ladder; returns the ``BENCH_cluster.json`` document."""
    say = progress or (lambda message: None)

    sweep: List[dict] = []
    for shards in shard_counts:
        say(f"shard sweep: {shards} shards, {requests} requests")
        sweep.append(
            _run_point(
                shards, requests, seed, qp, tile, base_rate_rps,
            )
        )

    # -- hedge A/B under injected stragglers ---------------------------
    hedge_shards = max(s for s in shard_counts if s >= 2)

    def straggler_gate() -> Callable[[str], None]:
        return fault_gate(
            FaultInjector(
                seed=seed + 31,
                config=FaultConfig(
                    straggler_prob=straggler_prob,
                    straggler_delay_s=straggler_delay_s,
                ),
            )
        )

    # The A/B is a controlled experiment, not a stress test: steady
    # Poisson arrivals at ~1/3 of single-core capacity, so the measured
    # tail is the injected stragglers (the thing hedging addresses).
    # The service-time distribution has an intrinsic tail (encodes with
    # rate-distortion search run ~5x the median), so even 50% mean
    # utilization queues enough to swamp the straggler signal.
    # With 2x bursts the offered peak sits at ~100% utilization and the
    # tail becomes a knife-edge queueing collapse -- bimodal across
    # runs and uninformative about hedging either way.  Overload and
    # burst behavior are the chaos soak's job.
    #
    # The firing quantile must sit *below* the straggler mass: with 5%
    # injected stragglers the default p95 delay rides exactly on the
    # straggler boundary, and the self-limiting estimator can settle at
    # the straggler latency itself (hedges then fire too late to
    # rescue anything).  Firing at p90 keeps the delay anchored to
    # healthy latency -- and makes structural hedge demand ~10% of
    # requests, so the A/B arm gets budget headroom (0.2) above it:
    # the cap should stop storms, not by-design rescues.
    #
    # The pair runs ``hedge_trials`` times and the median-ratio trial
    # is reported: a virtualized host can steal the CPU for hundreds
    # of milliseconds at a stretch, and a single steal burst landing
    # in one arm fabricates (or erases) a tail difference no routing
    # policy produced.  All trial ratios are kept in the document.
    trials = []
    for trial in range(max(1, hedge_trials)):
        say(
            f"hedge A/B trial {trial + 1}/{max(1, hedge_trials)}: "
            f"{hedge_shards} shards, stragglers on"
        )
        no_hedge = _run_point(
            hedge_shards, requests, seed + trial, qp, tile, hedge_rate_rps,
            hedge=False, gate=straggler_gate(), traffic_seed_salt=7,
            burst_factor=1.0,
        )
        hedged = _run_point(
            hedge_shards, requests, seed + trial, qp, tile, hedge_rate_rps,
            hedge=True, gate=straggler_gate(), traffic_seed_salt=7,
            burst_factor=1.0, hedge_quantile=90.0, hedge_budget=0.2,
        )
        hedged_p99 = hedged["latency_ms"]["p99"]
        trials.append({
            "no_hedge": no_hedge,
            "hedged": hedged,
            "p99_ratio": (
                no_hedge["latency_ms"]["p99"] / hedged_p99
                if hedged_p99 > 0 else 0.0
            ),
        })
    trials.sort(key=lambda t: t["p99_ratio"])
    median = trials[len(trials) // 2]
    hedge_section = {
        "shards": hedge_shards,
        "straggler_prob": straggler_prob,
        "straggler_delay_ms": 1e3 * straggler_delay_s,
        "no_hedge": median["no_hedge"],
        "hedged": median["hedged"],
        "p99_ratio": median["p99_ratio"],
        "trial_ratios": [t["p99_ratio"] for t in trials],
    }

    chaos_section = None
    if include_chaos:
        say(f"chaos soak: {chaos_requests} requests with shard kills")
        chaos_report = run_cluster_chaos(
            ClusterChaosConfig(requests=chaos_requests, seed=seed,
                               qp=qp, tile=tile)
        )
        chaos_section = {
            "requests": chaos_report["slo"]["requests"],
            "latency_ms": chaos_report["slo"]["latency_ms"],
            "invariant": {
                key: value
                for key, value in chaos_report["invariant"].items()
                if key != "violations"
            },
            "violation_count": len(chaos_report["invariant"]["violations"]),
            "hedged_requests": chaos_report["hedged_requests"],
            "router": chaos_report["cluster"]["router"],
        }

    return {
        "schema": SCHEMA,
        "config": {
            "shard_counts": list(shard_counts),
            "requests": requests,
            "seed": seed,
            "qp": qp,
            "tile": tile,
            "base_rate_rps": base_rate_rps,
            "chaos_requests": chaos_requests if include_chaos else 0,
        },
        "shard_sweep": sweep,
        "hedge": hedge_section,
        "chaos": chaos_section,
    }


def format_cluster_bench(document: dict) -> str:
    """Human-readable bench summary for the CLI."""
    lines = [f"cluster bench ({document['schema']})"]
    lines.append("shard sweep:")
    for point in document["shard_sweep"]:
        latency = point["latency_ms"]
        lines.append(
            f"  {point['shards']} shards (R={point['replication']}): "
            f"p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms "
            f"p999={latency['p999']:.1f}ms "
            f"availability={point['availability']:.4f}"
        )
    hedge = document["hedge"]
    lines.append(
        f"hedge A/B ({hedge['shards']} shards, "
        f"{100 * hedge['straggler_prob']:.0f}% stragglers of "
        f"{hedge['straggler_delay_ms']:.0f}ms):"
    )
    lines.append(
        f"  no-hedge p99={hedge['no_hedge']['latency_ms']['p99']:.1f}ms  "
        f"hedged p99={hedge['hedged']['latency_ms']['p99']:.1f}ms  "
        f"ratio={hedge['p99_ratio']:.2f}x "
        f"(hedges={hedge['hedged']['router']['hedges']}, "
        f"wins={hedge['hedged']['router']['hedge_wins']})"
    )
    if len(hedge.get("trial_ratios", [])) > 1:
        lines.append(
            "  median of trials: "
            + ", ".join(f"{r:.2f}x" for r in hedge["trial_ratios"])
        )
    chaos = document.get("chaos")
    if chaos:
        inv = chaos["invariant"]
        lines.append(
            f"chaos: {chaos['requests']} requests, "
            f"availability={inv['availability']:.4f} "
            f"(slo {inv['availability_slo']:.3f}), "
            f"violations={chaos['violation_count']} -> "
            + ("PASS" if inv["passed"] else "FAIL")
        )
    return "\n".join(lines)
