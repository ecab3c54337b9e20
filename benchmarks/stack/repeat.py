#!/usr/bin/env python3
"""Does the benchmark agree with itself?  Two alternated sets of runs.

    python benchmarks/stack/repeat.py --sets 2 --runs 5 [--seconds 12]

Runs the same checkout ``sets x runs`` times per workload, alternating
the sets (A1 B1 A2 B2 ...) so slow drift of the machine lands on both.
Run ``i`` of every set uses seed ``--seed + i``, as the driver gives
each run another seed.  Per workload and end-to-end metric it prints
each set's median and quartiles, the spread (distance between the
quartiles over the median, across the runs of a set), the relative
difference of the set medians in the metric's worse direction, and
PASS/FAIL against the bound in BENCHMARK.json.

Rule: a timing metric that cannot pass here is demoted to a per-layer
metric in BENCHMARK.json (the per-op medians were: the gated latencies
are 10th percentiles).  The timing bounds sit at the contract's cap of
0.25 because of this runner's noise (README, "Noise"); they are never
loosened further, and a quieter runner should tighten them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def one_run(workload: str, seed: int, extra: List[str]) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"run of {workload} seed {seed} exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--seconds", type=float)
    group.add_argument("--scale", type=float)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    extra: List[str] = []
    if args.scale is not None:
        extra += ["--scale", str(args.scale)]
    else:
        extra += ["--seconds", str(args.seconds or spec["run_seconds"])]
    if args.smoke:
        extra.append("--smoke")
    chosen = args.workload or [w["name"] for w in spec["workloads"]]

    # values[workload][set][metric] -> one value per run
    values = {w: [dict() for _ in range(args.sets)] for w in chosen}
    for run in range(args.runs):
        for which in range(args.sets):
            for workload in chosen:
                metrics = one_run(workload, args.seed + run, extra)
                for name, value in metrics.items():
                    values[workload][which].setdefault(name, []).append(value)
                print(f"# set {which} run {run} {workload}: "
                      + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)

    failures = 0
    print(f"{'workload':<20}{'metric':<16}{'set':>4}{'q1':>12}{'median':>12}"
          f"{'q3':>12}{'spread':>9}{'worse_by':>10}{'bound':>7}  verdict")
    for workload in chosen:
        for entry in spec["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            sign = 1.0 if entry["better"] == "lower" else -1.0
            medians = []
            for which in range(args.sets):
                q1, q2, q3 = quartiles(values[workload][which][name])
                medians.append(q2)
                spread = (q3 - q1) / q2
                worse = sign * (q2 - medians[0]) / medians[0]
                ok = worse <= bound and (name == "setup_s" or spread <= bound)
                failures += not ok
                print(f"{workload:<20}{name:<16}{which:>4}{q1:>12.5g}{q2:>12.5g}"
                      f"{q3:>12.5g}{spread:>9.4f}{worse:>10.4f}{bound:>7.3g}  "
                      f"{'PASS' if ok else 'FAIL'}"
                      + ("" if spread <= bound / 3 or name == "setup_s" else "  (spread over a third of the bound)"))
    print(f"{failures} failing row(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
