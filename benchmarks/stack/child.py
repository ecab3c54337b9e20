"""The measuring process: one workload, one role, one result line.

``run.py`` starts this file in a fresh interpreter per role, so set-up
(imports, kernel load, construction, first ops) is paid and measured
from a cold process every time.  Roles:

``prepare``  build/load the C kernels before any clock starts; for the
             store workload also pre-encode the payload pool and fill
             the template root the other roles get copies of.
``setup``    set-up only (one sample of ``setup_s``).
``run``      set-up, warm-up, the timed phase, quality and memory.
``trace``    set-up, then the traced run (``tracerun.py``).

The last line on stdout is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Dict, Tuple

import inputs
import machine
import tracerun
import workloads
from check import Tally
from spans import fast_ms, median_ms, tail_ms

RESULT_MARK = "RESULT "


def kernel_states() -> Dict[str, str]:
    from repro.codec.entropy import native

    return dict(native.kernel_status(resolve=True))


def measure_setup(workload, spawned_at: float) -> Tuple[Dict[str, float], object, Tally]:
    """Process start to ready, in three parts (seconds each).

    ``import_s`` runs from the parent's spawn call to the program and
    its kernels being loaded (so it holds the interpreter's own start
    and numpy); ``construct_s`` builds the workload's entry object --
    for the store workload a router over the populated root, i.e.
    journal replay on every shard; ``first_op_s`` is the first op of
    each kind, less the benchmark's own input making and checking.
    """
    workload.import_program()
    kernel_states()
    imported = time.monotonic()
    level = workload.construct()
    constructed = time.monotonic()
    tally, harness = workload.first_ops(level)
    ready = time.monotonic()
    parts = {
        "import_s": imported - spawned_at,
        "construct_s": constructed - imported,
        "first_op_s": ready - constructed - harness,
    }
    parts["setup_s"] = sum(parts.values())
    return parts, level, tally


def role_prepare(args) -> dict:
    states = kernel_states()
    if args.workload == workloads.StoreWorkload.name:
        pool = workloads.encode_pool(args.seed)
        workloads.write_pool(os.path.join(args.run_dir, workloads.POOL_FILE), pool)
        template = os.path.join(args.run_dir, workloads.TEMPLATE_DIR)
        os.makedirs(template)
        workloads.populate_cluster_root(template, pool, inputs.STORE_KEYS)
    return {"kernels": states}


def role_setup(args) -> dict:
    workload = workloads.make_workload(args.workload, args.seed, args.run_dir, args.root)
    parts, level, tally = measure_setup(workload, args.spawned_at)
    level.close()
    return {"setup": parts, "attempted": tally.attempted, "failed": tally.failed,
            "reasons": tally.reasons}


def role_run(args) -> dict:
    workload = workloads.make_workload(args.workload, args.seed, args.run_dir, args.root)
    parts, level, first = measure_setup(workload, args.spawned_at)
    ops = args.ops
    warm_ops = max(1, int(round(ops * workloads.WARMUP_SHARE)))
    is_store = isinstance(workload, workloads.StoreWorkload)
    if is_store:
        warm_plan = workload.schedule(max(workload.clients, warm_ops), workloads.GEN_WARMUP)
        timed_plan = workload.schedule(ops, workloads.GEN_TIMED)
    else:
        share = max(1, warm_ops // workload.clients)
        warm_plan = [
            list(range(workloads.WARMUP_BASE, workloads.WARMUP_BASE + share))
            for _ in range(workload.clients)
        ]
        timed_plan = workload.timed_plan(ops)

    calib = machine.calib_samples()
    warm = workload.run_phase(level, warm_plan)
    timed = workload.run_phase(level, timed_plan)
    calib_after = machine.calib_samples()

    total = Tally(args.workload)
    for tally in (first, warm.tally):
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.reasons += tally.reasons
    total.absorb(timed.tally)
    if is_store:
        # quality and stored size come from what the store holds at the end
        total.err2 = total.ref2 = 0.0
        workload.final_quality(level, total)
        bits_per_value = 8.0 * workloads.disk_bytes(workload.root) / workload.live_values()
    else:
        bits_per_value = timed.tally.bits_per_value
    level.close()

    writes = timed.recorder.samples["write"]
    reads = timed.recorder.samples["read"]
    tail_p, tail_write = tail_ms(writes)
    verified = timed.tally.attempted - timed.tally.failed
    return {
        "setup": parts,
        "metrics": {
            "write_p10_ms": fast_ms(writes),
            "read_p10_ms": fast_ms(reads),
            "ops_per_s": verified / timed.wall_s,
            "bits_per_value": bits_per_value,
            "nmse": total.nmse,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "attempted": total.attempted,
        "failed": total.failed,
        "reasons": total.reasons[: 5],
        "report": {
            "timed_ops": timed.tally.attempted,
            "timed_wall_s": timed.wall_s,
            "write_samples": len(writes),
            "read_samples": len(reads),
            "write_p50_ms": median_ms(writes),
            "read_p50_ms": median_ms(reads),
            "op_bytes": workload.op_bytes(),
            "tail_percentile": tail_p,
            "tail_write_ms": tail_write,
            "tail_read_ms": tail_ms(reads)[1],
            "calib_before_ms": median_ms(calib),
            "calib_after_ms": median_ms(calib_after),
            "clients": workload.clients,
        },
    }


def role_trace(args) -> dict:
    workload = workloads.make_workload(args.workload, args.seed, args.run_dir, args.root)
    parts, level, first = measure_setup(workload, args.spawned_at)
    level.close()  # the ladders open their own entry objects
    header = json.loads(args.header)
    header.update(workload=args.workload, seed=args.seed, timed_ops=args.ops)
    metrics, tallies = tracerun.run(
        workload, parts, args.ops, args.run_dir, header, args.smoke
    )
    attempted = first.attempted + sum(t.attempted for t in tallies)
    failed = first.failed + sum(t.failed for t in tallies)
    reasons = first.reasons + [r for t in tallies for r in t.reasons]
    return {"setup": parts, "metrics": metrics, "attempted": attempted,
            "failed": failed, "reasons": reasons[:5]}


ROLES = {"prepare": role_prepare, "setup": role_setup, "run": role_run, "trace": role_trace}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=sorted(ROLES), required=True)
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True,
                        help="ops of the timed phase (tensors, pairs or put/get ops)")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--root", default="")
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--header", default="{}")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = ROLES[args.role](args)
    sys.stdout.flush()
    print(RESULT_MARK + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
