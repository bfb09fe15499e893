#!/usr/bin/env python3
"""xtrace benchmark runner.

    python3 xbench/run.py --workload cold_predict|warm_serve|sweep_targets \
        --seed N --seconds S --trace 0|1 [--quick]

Run from the root of an xtrace checkout. Builds `xtrace` and the traced-run
binary (release, offline), runs the workload for S seconds, checks every
answer, and prints one JSON object as the last line of stdout:

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of the traced run. Exits non-zero when an output check fails or the
run cannot complete. `--quick` shrinks every workload for the benchmark's
own tests.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import BenchError, build, log, repo_root  # noqa: E402
import traced  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description="xtrace benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true")
    return ap.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    try:
        root = repo_root()
        xtrace, traced_bin = build(root)
        work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        try:
            ctx = workloads.Ctx(xtrace, traced_bin, work, args.seed, args.seconds, args.quick)
            if args.trace:
                attempted, failed, problems, metrics = traced.run(args.workload, ctx)
            else:
                attempted, failed, problems, metrics = workloads.WORKLOADS[args.workload](ctx)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    if len(problems) > 20:
        log(f"... and {len(problems) - 20} more failed checks")
    for name, (value, unit) in metrics.items():
        log(f"{args.workload:14s} {name:34s} {value:14.4f} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
