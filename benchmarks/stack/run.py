#!/usr/bin/env python3
"""Stack benchmark: four workloads, seven end-to-end metrics, a ladder per layer.

    python benchmarks/stack/run.py [--workload NAME] [--seed S]
                                   [--scale F | --seconds T] [--trace [0|1|both]]

Runs each named workload in fresh child processes, checks every output
and prints every metric by name with its unit.  The last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0`` (default), the per-layer
metrics with ``--trace 1``; ``--trace both`` (or a bare ``--trace``)
prints both tables and ends with the per-layer object.  Without
``--workload`` all four run and the metric names in the last line are
prefixed ``<workload>/``.  Exit status is non-zero when any op failed.

See README.md in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import machine
import workloads
from child import RESULT_MARK
from inputs import FULL_OPS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(HERE, ".run")
CHILD = os.path.join(HERE, "child.py")

#: Fewest timed ops a gated (non ``--smoke``) run accepts: below these
#: the medians stop repeating, so the total-time cap is met by choosing
#: ``--seconds``/``--scale``, never by shrinking past them.
GATED_FLOOR = {
    "weights_fixed_qp": 24,
    "weights_bit_budget": 16,
    "cluster_kv_pages": 400,
    "store_put_get": 20_000,  # 2000 puts
}
#: ``--seconds T`` sizes each workload's timed phase to last about T
#: seconds on the 2-core runner the baseline was taken on: ops =
#: round(T x rate).  The count is a pure function of the arguments
#: (fixed work, not fixed time), so ``bits_per_value`` and ``nmse``
#: repeat exactly for a seed and a faster program simply finishes
#: sooner.  Units: tensors, tensors, encode+decode pairs, put/get ops.
OPS_PER_SECOND = {
    "weights_fixed_qp": 2.0,
    "weights_bit_budget": 1.2,
    "cluster_kv_pages": 33.0,
    "store_put_get": 3500.0,
}
SETUP_SAMPLES = 5
RUN_BUDGET_S = 172.0  # the contract allows one invocation 180 s


def metric_units() -> Dict[str, Dict[str, str]]:
    """Names and units of both metric lists, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {
        part: {entry["name"]: entry["unit"] for entry in spec[part]}
        for part in ("end_to_end", "per_layer")
    }


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child processes one at a time and never leaves one behind."""

    def __init__(self, deadline: float, smoke: bool = False) -> None:
        self.deadline = deadline
        self.smoke = smoke
        self.env = dict(os.environ)
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
        # same dict order and hash collisions in every child; the C
        # compiler's temporaries stay inside the checkout
        self.env["PYTHONHASHSEED"] = "0"
        self.env["TMPDIR"] = RUN_ROOT

    def child(self, role: str, workload: str, seed: int, ops: int,
              run_dir: str, root: str = "", header: Optional[dict] = None) -> dict:
        command = [
            sys.executable, CHILD, "--role", role, "--workload", workload,
            "--seed", str(seed), "--ops", str(ops), "--run-dir", run_dir,
            "--root", root, "--header", json.dumps(header or {}),
            *(["--smoke"] if self.smoke else []),
            "--spawned-at", repr(time.monotonic()),
        ]
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, text=True
        )
        try:
            out, _ = process.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            raise ChildFailed(f"{role} child of {workload} ran out of time") from None
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        lines = [line for line in out.splitlines() if line.startswith(RESULT_MARK)]
        if process.returncode != 0 or not lines:
            raise ChildFailed(
                f"{role} child of {workload} exited {process.returncode} without a result"
            )
        return json.loads(lines[-1][len(RESULT_MARK):])


def fresh_root(run_dir: str, name: str) -> str:
    """A private copy of the populated store template (untimed)."""
    template = os.path.join(run_dir, workloads.TEMPLATE_DIR)
    if not os.path.isdir(template):
        return ""
    root = os.path.join(run_dir, name)
    shutil.copytree(template, root)
    return root


def bench_workload(runner: Runner, workload: str, seed: int, ops: int,
                   mode: str, smoke: bool) -> dict:
    """Measure one workload; returns {"header", "e2e", "layers"} reports."""
    run_dir = os.path.join(RUN_ROOT, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    report: dict = {"workload": workload, "seed": seed, "ops": ops}
    try:
        prepared = runner.child("prepare", workload, seed, ops, run_dir)
        header = machine.envelope(ROOT, RUN_ROOT)
        header["kernels"] = prepared["kernels"]
        report["header"] = header
        if mode in ("0", "both"):
            main = runner.child(
                "run", workload, seed, ops, run_dir, fresh_root(run_dir, "root-run")
            )
            samples = [main["setup"]]
            attempted, failed = main["attempted"], main["failed"]
            reasons = list(main["reasons"])
            for index in range(1, 1 if smoke else SETUP_SAMPLES):
                extra = runner.child(
                    "setup", workload, seed, ops, run_dir,
                    fresh_root(run_dir, f"root-setup{index}"),
                )
                samples.append(extra["setup"])
                attempted += extra["attempted"]
                failed += extra["failed"]
                reasons += extra["reasons"]
            metrics = dict(main["metrics"])
            metrics["setup_s"] = statistics.median(s["setup_s"] for s in samples)
            report["e2e"] = {
                "metrics": metrics, "attempted": attempted, "failed": failed,
                "reasons": reasons[:5], "report": main["report"],
                "setup_samples": [s["setup_s"] for s in samples],
            }
        if mode in ("1", "both"):
            traced = runner.child(
                "trace", workload, seed, ops, run_dir,
                fresh_root(run_dir, "root-trace"), header,
            )
            kept = os.path.join(RUN_ROOT, f"{workload}.trace.json")
            os.replace(os.path.join(run_dir, "trace.json"), kept)
            traced["trace_file"] = os.path.relpath(kept, ROOT)
            report["layers"] = traced
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return report


# -- printing ----------------------------------------------------------------


def print_report(report: dict, units: Dict[str, Dict[str, str]]) -> None:
    header = report["header"]
    print(f"== {report['workload']}  seed={report['seed']} timed_ops={report['ops']}")
    print(
        "   machine: git={git_rev} python={python} numpy={numpy} cpus={cpu_count} "
        "usable={usable_cpus} scratch={scratch} ({scratch_fs})".format(**header)
    )
    print("   kernels: " + " ".join(f"{k}={v}" for k, v in sorted(header["kernels"].items())))
    if "e2e" in report:
        e2e = report["e2e"]
        extra = e2e["report"]
        print(
            f"   timed phase: {extra['timed_ops']} ops in {extra['timed_wall_s']:.2f} s, "
            f"{extra['clients']} client(s); samples write={extra['write_samples']} "
            f"read={extra['read_samples']}; p{extra['tail_percentile']:g} "
            f"write={extra['tail_write_ms']:.3f} ms read={extra['tail_read_ms']:.3f} ms"
        )
        mib = extra["op_bytes"] / 2**20
        print(
            f"   medians: write_p50={extra['write_p50_ms']:.3f} ms read_p50={extra['read_p50_ms']:.3f} ms"
            f" -> {mib / extra['write_p50_ms'] * 1e3:.2f} / {mib / extra['read_p50_ms'] * 1e3:.2f}"
            f" MiB/s of {extra['op_bytes']}-byte ops (paper's NVENC: ~1100 MB/s)"
        )
        print(
            f"   machine.calib_ms before={extra['calib_before_ms']:.3f} "
            f"after={extra['calib_after_ms']:.3f}; setup samples: "
            + " ".join(f"{value:.3f}" for value in e2e["setup_samples"])
        )
        for name, unit in units["end_to_end"].items():
            print(f"   {name:<34}{e2e['metrics'][name]:>14.6g} {unit}")
        print(f"   ops_attempted={e2e['attempted']} ops_failed={e2e['failed']}")
        for reason in e2e["reasons"]:
            print(f"   FAILED {reason}")
    if "layers" in report:
        layers = report["layers"]
        print(f"   per-layer (traced run, spans in {layers['trace_file']}):")
        for name, unit in sorted(units["per_layer"].items()):
            print(f"   {name:<34}{layers['metrics'][name]:>14.6g} {unit}")
        print(f"   ops_attempted={layers['attempted']} ops_failed={layers['failed']}")
        for reason in layers["reasons"]:
            print(f"   FAILED {reason}")


def contract_object(reports: List[dict], mode: str, units: Dict[str, Dict[str, str]],
                    prefix: bool) -> dict:
    """The last line: exactly ``correct``, ``attempted``, ``failed``, ``metrics``."""
    part, listed = ("layers", "per_layer") if mode in ("1", "both") else ("e2e", "end_to_end")
    attempted = failed = 0
    metrics: Dict[str, dict] = {}
    for report in reports:
        section = report[part]
        attempted += section["attempted"]
        failed += section["failed"]
        if mode == "both":
            attempted += report["e2e"]["attempted"]
            failed += report["e2e"]["failed"]
        for name, unit in units[listed].items():
            value = section["metrics"][name]
            if not math.isfinite(value):
                raise ValueError(f"{report['workload']}/{name} is not finite")
            key = f"{report['workload']}/{name}" if prefix else name
            metrics[key] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- command line --------------------------------------------------------------


def resolve_ops(args, chosen: List[str]) -> Dict[str, int]:
    """Timed op count per workload from ``--scale`` or ``--seconds``."""
    if args.scale is not None and args.seconds is not None:
        raise SystemExit("pass --scale or --seconds, not both")
    if args.seconds is not None:
        ops = {w: int(round(args.seconds * OPS_PER_SECOND[w])) for w in chosen}
    else:
        scale = 1.0 if args.scale is None else args.scale
        ops = {w: int(round(FULL_OPS[w] * scale)) for w in chosen}
    for workload, count in ops.items():
        if count < 2:
            raise SystemExit(f"{workload}: nothing to run at this size")
        if not args.smoke and count < GATED_FLOOR[workload]:
            raise SystemExit(
                f"{workload}: {count} timed ops is below the gated floor of "
                f"{GATED_FLOOR[workload]}; raise --seconds/--scale or pass --smoke "
                "for an ungated look"
            )
    return ops


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float,
                        help="multiply the full op counts (100/40 tensors, 1000 pairs, 80000 ops)")
    parser.add_argument("--seconds", type=float,
                        help="size each timed phase to about this long on the reference runner")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--smoke", action="store_true",
                        help="allow scales below the gated floor; one set-up sample")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    chosen = [args.workload] if args.workload else list(WORKLOADS)
    ops = resolve_ops(args, chosen)
    units = metric_units()
    # one invocation per workload has the contract's 180 s; all four get four times that
    runner = Runner(started + RUN_BUDGET_S * len(chosen), args.smoke)
    reports = []
    try:
        for workload in chosen:
            report = bench_workload(runner, workload, args.seed, ops[workload], args.trace, args.smoke)
            print_report(report, units)
            reports.append(report)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    result = contract_object(reports, args.trace, units, prefix=args.workload is None)
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
