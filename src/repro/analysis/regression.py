"""Perf-regression sentinel: compare a fresh bench run against a baseline.

``llm265 bench --check`` / ``llm265 serve-bench --check`` re-run the
benchmark and hand both documents (the tracked ``BENCH_*.json`` and the
fresh run) to this module.  The hard problem is that raw MB/s and raw
latency milliseconds are *machine* numbers -- a laptop baseline checked
on a CI runner would always "regress".  The sentinel therefore compares
only statistics that are **self-normalized within one run**:

- encode/decode *speedups* (each rung's time over the same run's
  reference rung) -- the quantity the optimisation PRs actually claim;
- the paired parallel-vs-serial decode ratio (median of per-round
  ratios from interleaved sampling, see ``bench._paired_ratio``);
- compression ratio proxies (bytes, mse) at fixed seed/config, which
  are decision-deterministic, not timing-dependent;
- serving availability and the p99/p50 tail-amplification ratio.

Noise handling is explicit rather than wished away:

- every perf check has a relative tolerance, scaled by a ``slack``
  multiplier so CI (shared, noisy runners) can loosen all thresholds
  with one knob;
- **min-sample guards**: checks whose statistic is meaningless on tiny
  runs (best-of-1 timing, percentiles over a handful of requests) are
  *skipped* -- reported as ``skipped`` with the guard that fired, never
  silently passed;
- config mismatches (different seed, tensor size, QP ladder, worker
  count) skip the affected checks instead of comparing apples to
  oranges.

Findings are classified, and the classes map to exit codes in the CLI:

- ``divergence`` -- a correctness invariant failed in the *fresh* run
  (bitstreams diverged, chaos contract violated).  Exit 2, same as the
  pre-sentinel behaviour.
- ``regression`` -- fresh perf fell outside tolerance of baseline.
  Exit 3, so CI can distinguish "broken" from "slower".
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

__all__ = [
    "EXIT_DIVERGENCE",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "compare_cluster_bench",
    "compare_codec_bench",
    "compare_serving_bench",
    "format_comparison",
    "load_baseline",
]

EXIT_OK = 0
EXIT_DIVERGENCE = 2
EXIT_REGRESSION = 3

#: Relative tolerance on within-run speedup ratios (before slack).
#: Interleaved best-of-N sampling keeps run-to-run speedup drift well
#: under this on an idle box; CI passes ``--slack`` to widen it.
SPEEDUP_REL_TOL = 0.25
#: Compressed size / mse may drift only this much before it's flagged
#: (decisions are deterministic at fixed seed; real drift means a codec
#: change that should update the baseline deliberately).
SIZE_REL_TOL = 0.10
#: Availability is compared absolutely (it is already in [0, 1]).
AVAILABILITY_ABS_TOL = 0.02
#: Tail amplification (p99/p50) may grow by this factor before flagged.
TAIL_RATIO_FACTOR = 3.0
#: Min-sample guards.
MIN_REPEATS = 2  # best-of-1 timing is a coin flip
MIN_REQUESTS = 100  # percentiles/availability need a population
#: The hedge A/B's tracked statistic is ``p99_ratio`` (no-hedge p99 over
#: hedged p99).  The *claim* is ratio > 1, but on a loaded single-core
#: box the ratio swings widely run to run (the p99 of a few hundred
#: requests moves with scheduler noise), so the sentinel only flags
#: hedging that made the tail distinctly *worse*: fresh ratio below
#: ``1 - HEDGE_RATIO_TOL * slack``.  Improvements of any size pass.
HEDGE_RATIO_TOL = 0.30
#: A hedge A/B whose hedged run fired fewer backups than this proves
#: nothing either way; the check is skipped, not passed.
MIN_HEDGES = 8


class _Comparison:
    """Accumulates findings and renders the final report document."""

    def __init__(self, kind: str, slack: float) -> None:
        if slack <= 0:
            raise ValueError("slack must be > 0")
        self.kind = kind
        self.slack = slack
        self.findings: List[dict] = []

    def _add(self, status: str, metric: str, detail: str,
             baseline=None, fresh=None) -> None:
        self.findings.append({
            "status": status,
            "metric": metric,
            "detail": detail,
            "baseline": baseline,
            "fresh": fresh,
        })

    def ok(self, metric, detail, baseline=None, fresh=None):
        self._add("ok", metric, detail, baseline, fresh)

    def skip(self, metric, guard):
        self._add("skipped", metric, guard)

    def regression(self, metric, detail, baseline, fresh):
        self._add("regression", metric, detail, baseline, fresh)

    def divergence(self, metric, detail, baseline=None, fresh=None):
        self._add("divergence", metric, detail, baseline, fresh)

    def bound_check(self, metric: str, baseline, fresh: float, bound: float,
                    why: str, ceiling: bool = False) -> None:
        """Fresh must be >= ``bound`` (<= for a ceiling, where bigger is
        worse); ``why`` says how the bound was derived."""
        name = "ceiling" if ceiling else "floor"
        if (fresh <= bound) if ceiling else (fresh >= bound):
            self.ok(metric, f"{fresh:.4g} within {name} {bound:.4g}",
                    baseline, fresh)
        else:
            self.regression(
                metric, f"{fresh:.4g} past {name} {bound:.4g} ({why})",
                baseline, fresh,
            )

    def floor_check(self, metric: str, baseline: float, fresh: float,
                    rel_tol: float) -> None:
        """Fresh must be >= baseline * (1 - rel_tol * slack)."""
        self.bound_check(
            metric, baseline, fresh,
            baseline * (1.0 - rel_tol * self.slack),
            f"baseline {baseline:.3f}, tol {rel_tol:.0%} x "
            f"slack {self.slack:g}",
        )

    def schema_guard(self, baseline: dict, fresh: dict) -> None:
        if fresh.get("schema") != baseline.get("schema"):
            self.skip("schema", f"schema changed "
                      f"({baseline.get('schema')} -> {fresh.get('schema')}); "
                      f"only correctness checked")

    def invariant(self, metric: str, held: bool, detail_ok: str,
                  detail_broken: str) -> None:
        """A correctness gate of the *fresh* run: broken is a divergence."""
        if held:
            self.ok(metric, detail_ok)
        else:
            self.divergence(metric, detail_broken)

    def population(self, prefix: str, base: dict, fresh: dict,
                   tail: bool = True) -> None:
        """Availability floor and (with ``tail``) p99/p50 ceiling of one
        request population -- an SLO snapshot or a bench point -- behind
        the min-sample guard."""
        requests = min(base.get("requests", 0), fresh.get("requests", 0))
        if requests < MIN_REQUESTS:
            self.skip(prefix, f"min-sample guard: requests={requests} < "
                      f"{MIN_REQUESTS}; availability and tail skipped")
            return
        was, now = base.get("availability"), fresh.get("availability")
        if was is None or now is None:
            self.skip(f"{prefix}.availability", "availability missing")
        else:
            self.bound_check(
                f"{prefix}.availability", was, now,
                was - AVAILABILITY_ABS_TOL * self.slack,
                f"baseline {was:.4f} - {AVAILABILITY_ABS_TOL:g} x "
                f"slack {self.slack:g}",
            )
        if not tail:
            return
        try:
            # p99/p50 tail amplification: self-normalized, so portable.
            was = base["latency_ms"]["p99"] / base["latency_ms"]["p50"]
            now = fresh["latency_ms"]["p99"] / fresh["latency_ms"]["p50"]
        except (KeyError, ZeroDivisionError):
            self.skip(f"{prefix}.tail",
                      "latency percentiles missing or degenerate")
            return
        self.bound_check(
            f"{prefix}.tail", was, now,
            was * TAIL_RATIO_FACTOR * self.slack,
            f"baseline {was:.3f}, factor {TAIL_RATIO_FACTOR:g} x "
            f"slack {self.slack:g}",
            ceiling=True,
        )

    def report(self) -> dict:
        tally = Counter(finding["status"] for finding in self.findings)
        if tally["divergence"]:
            exit_code = EXIT_DIVERGENCE
        elif tally["regression"]:
            exit_code = EXIT_REGRESSION
        else:
            exit_code = EXIT_OK
        return {
            "kind": self.kind,
            "slack": self.slack,
            "checked": tally["ok"],
            "skipped": tally["skipped"],
            "regressions": tally["regression"],
            "divergences": tally["divergence"],
            "passed": exit_code == EXIT_OK,
            "exit_code": exit_code,
            "findings": self.findings,
        }


def load_baseline(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


# -- codec bench (BENCH_codec.json) ----------------------------------------


def compare_codec_bench(baseline: dict, fresh: dict,
                        slack: float = 1.0) -> dict:
    """Check a fresh ``run_benchmark`` document against the baseline."""
    cmp = _Comparison("codec", slack)
    cmp.schema_guard(baseline, fresh)
    cmp.invariant(
        "all_identical",
        fresh.get("summary", {}).get("all_identical", False),
        "fresh bitstreams and decodes identical",
        "fresh run's bitstream/decode identity checks failed",
    )

    bcfg, fcfg = baseline.get("config", {}), fresh.get("config", {})
    same_data = all(bcfg.get(k) == fcfg.get(k)
                    for k in ("seed", "size_mb", "tile", "qps", "profile"))
    same_shape = same_data and bcfg.get("workers") == fcfg.get("workers")

    # Deterministic drift: bytes / mse at fixed seed and config.
    if not same_data:
        cmp.skip("bytes,mse", "config differs (seed/size/tile/qps/profile); "
                 "deterministic checks skipped")
    else:
        brows = {row["qp"]: row for row in baseline.get("results", [])}
        for row in fresh.get("results", []):
            brow = brows.get(row["qp"])
            if brow is None:
                continue
            for rung, enc in row["encode"].items():
                base_enc = brow["encode"].get(rung)
                if base_enc is None:
                    continue
                metric = f"qp{row['qp']:g}.{rung}"
                if enc["bytes"] > base_enc["bytes"] * (
                        1.0 + SIZE_REL_TOL * slack):
                    cmp.regression(f"{metric}.bytes",
                                   "compressed size grew past tolerance",
                                   base_enc["bytes"], enc["bytes"])
                elif enc["mse"] > base_enc["mse"] * (
                        1.0 + SIZE_REL_TOL * slack) + 1e-9:
                    cmp.regression(f"{metric}.mse",
                                   "reconstruction error grew past tolerance",
                                   base_enc["mse"], enc["mse"])
                else:
                    cmp.ok(metric, "bytes/mse within tolerance",
                           base_enc["bytes"], enc["bytes"])

    # Perf: within-run speedups (machine-portable by construction).
    min_repeats = min(bcfg.get("repeats", 0), fcfg.get("repeats", 0))
    if not same_shape:
        cmp.skip("speedups", "config differs (data shape or workers); "
                 "speedup comparison skipped")
    elif min_repeats < MIN_REPEATS:
        cmp.skip("speedups", f"min-sample guard: repeats={min_repeats} < "
                 f"{MIN_REPEATS}; best-of-N timing too noisy to compare")
    else:
        bsum, fsum = baseline["summary"], fresh["summary"]
        for metric, rel_tol in (
            ("mean_encode_speedup", SPEEDUP_REL_TOL),
            ("best_encode_speedup", SPEEDUP_REL_TOL),
            # v3: the serial native-kernel rung's median speedup over
            # baseline -- the claim of the native-encode PR.  Guarded by
            # presence in both summaries so a v2 baseline is skipped,
            # not failed.
            ("median_native_encode_speedup", SPEEDUP_REL_TOL),
            ("mean_decode_speedup", SPEEDUP_REL_TOL),
            ("best_decode_speedup", SPEEDUP_REL_TOL),
            # The paired ratio is the steadiest statistic in the file;
            # still, parallel decode hovering at ~1.0x on small payloads
            # makes a tight floor false-positive-prone.
            ("parallel_vs_serial_decode", 2 * SPEEDUP_REL_TOL),
        ):
            if metric in bsum and metric in fsum:
                cmp.floor_check(metric, bsum[metric], fsum[metric], rel_tol)
    return cmp.report()


# -- serving bench (BENCH_serving.json) ------------------------------------


def compare_serving_bench(baseline: dict, fresh: dict,
                          slack: float = 1.0) -> dict:
    """Check fresh chaos + serve-bench sections against the baseline.

    Both documents use the ``BENCH_serving.json`` layout: a ``chaos``
    section (``run_chaos`` report) and/or a ``serve_bench`` section
    (``run_serve_bench`` report); sections absent from either side are
    skipped with a guard.
    """
    cmp = _Comparison("serving", slack)

    bchaos, fchaos = baseline.get("chaos"), fresh.get("chaos")
    if fchaos is None or bchaos is None:
        cmp.skip("chaos", "chaos section missing from "
                 + ("fresh" if fchaos is None else "baseline"))
    else:
        inv = fchaos.get("invariant", {})
        cmp.invariant(
            "chaos.invariant", inv.get("passed", False),
            "fresh chaos contract holds",
            "fresh chaos run violated the serving contract "
            f"({inv.get('silent_corruptions', '?')} silent, "
            f"{inv.get('untyped_errors', '?')} untyped)",
        )
        cmp.population("chaos", bchaos.get("slo", {}), fchaos.get("slo", {}))

    bsb, fsb = baseline.get("serve_bench"), fresh.get("serve_bench")
    if fsb is None or bsb is None:
        cmp.skip("serve_bench", "serve_bench section missing from "
                 + ("fresh" if fsb is None else "baseline"))
    else:
        cmp.population("sequential", bsb.get("sequential", {}),
                       fsb.get("sequential", {}))
        if bsb.get("shed_typed", 0) > 0 and fsb.get("shed_typed", 0) == 0:
            # Not a perf number: the burst phase exists to prove typed
            # shedding.  Zero sheds where the baseline had some means
            # admission control stopped engaging under the same load.
            cmp.regression("shed_typed",
                           "burst produced no typed Overloaded responses "
                           "where baseline shed under identical load",
                           bsb.get("shed_typed"), fsb.get("shed_typed"))
        else:
            cmp.ok("shed_typed", "typed shedding engaged (or baseline idle)",
                   bsb.get("shed_typed"), fsb.get("shed_typed"))
    return cmp.report()


# -- cluster bench (BENCH_cluster.json) ------------------------------------


def compare_cluster_bench(baseline: dict, fresh: dict,
                          slack: float = 1.0) -> dict:
    """Check a fresh ``run_cluster_bench`` document against the baseline.

    Gates, in order of severity:

    - the fresh chaos section's invariant (contract violations through
      shard kills) -- any violation is a **divergence**, exit 2;
    - per-shard-count availability floors against the baseline sweep;
    - per-shard-count tail amplification (p99/p50) ceilings;
    - the hedge A/B: backups must actually fire, and the tracked
      ``p99_ratio`` must not show hedging making the tail distinctly
      worse (see ``HEDGE_RATIO_TOL`` for why the floor is loose).
    """
    cmp = _Comparison("cluster", slack)
    cmp.schema_guard(baseline, fresh)

    # -- chaos: the robustness claim ------------------------------------
    bchaos, fchaos = baseline.get("chaos"), fresh.get("chaos")
    if fchaos is None:
        cmp.skip("chaos", "chaos section missing from fresh run")
    else:
        inv = fchaos.get("invariant", {})
        violations = fchaos.get("violation_count",
                                0 if inv.get("passed") else 1)
        cmp.invariant(
            "chaos.invariant",
            not violations and inv.get("passed", False),
            "contract held through shard kills "
            f"(availability {inv.get('availability', 0.0):.4f})",
            "fresh cluster chaos run violated the typed-response "
            f"contract ({violations} violations, "
            f"availability {inv.get('availability', 0.0):.4f} vs "
            f"slo {inv.get('availability_slo', 0.0):.3f})",
        )
        if bchaos is not None:
            cmp.population(
                "chaos",
                {"requests": bchaos.get("requests", 0),
                 "availability": bchaos.get("invariant", {}).get(
                     "availability")},
                {"requests": fchaos.get("requests", 0),
                 "availability": inv.get("availability")},
                tail=False,
            )

    # -- shard sweep: availability + tail shape per shard count ---------
    bsweep = {p.get("shards"): p for p in baseline.get("shard_sweep", [])}
    for point in fresh.get("shard_sweep", []):
        shards = point.get("shards")
        base_point = bsweep.get(shards)
        if base_point is None:
            continue
        prefix = f"sweep[{shards}]"
        if base_point.get("replication") != point.get("replication"):
            cmp.skip(prefix, "replication factor differs between runs")
            continue
        cmp.population(prefix, base_point, point)

    # -- hedge A/B: the tail-at-scale claim -----------------------------
    bhedge, fhedge = baseline.get("hedge"), fresh.get("hedge")
    if fhedge is None or bhedge is None:
        cmp.skip("hedge", "hedge section missing from "
                 + ("fresh" if fhedge is None else "baseline"))
        return cmp.report()

    hedged_point = fhedge.get("hedged", {})
    fired = hedged_point.get("router", {}).get("hedges", 0)
    base_fired = bhedge.get("hedged", {}).get("router", {}).get("hedges", 0)
    requests = min(hedged_point.get("requests", 0),
                   fhedge.get("no_hedge", {}).get("requests", 0))
    if requests < MIN_REQUESTS:
        cmp.skip("hedge.p99_ratio",
                 f"min-sample guard: requests={requests} < {MIN_REQUESTS}")
    elif fired >= MIN_HEDGES:
        wins = hedged_point.get("router", {}).get("hedge_wins", 0)
        cmp.bound_check(
            "hedge.p99_ratio", bhedge.get("p99_ratio"),
            fhedge.get("p99_ratio", 0.0), 1.0 - HEDGE_RATIO_TOL * slack,
            f"no-hedge/hedged p99 ratio; below the floor hedging made "
            f"the tail distinctly worse ({fired} hedges, {wins} wins)",
        )
    elif base_fired >= MIN_HEDGES:
        # Baseline fired plenty under the same workload: zero/few
        # fresh hedges means the mechanism disengaged, not that the
        # tail got quiet.
        cmp.regression(
            "hedge.fired",
            f"only {fired} hedges fired (baseline {base_fired}); "
            "hedging appears disengaged",
            base_fired, fired,
        )
    else:
        cmp.skip("hedge.p99_ratio",
                 f"min-sample guard: hedges={fired} < {MIN_HEDGES}")
    return cmp.report()


def format_comparison(report: dict) -> str:
    """Human-readable sentinel verdict for the CLI."""
    lines = [
        f"regression check ({report['kind']}, slack {report['slack']:g}): "
        f"{report['checked']} ok, {report['skipped']} skipped, "
        f"{report['regressions']} regressions, "
        f"{report['divergences']} divergences"
    ]
    for finding in report["findings"]:
        if finding["status"] == "ok":
            continue
        tag = finding["status"].upper()
        lines.append(f"  {tag:<10s} {finding['metric']}: {finding['detail']}")
    lines.append("verdict: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)
