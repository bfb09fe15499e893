#!/usr/bin/env python3
"""Steadiness command: runs each workload once per seed 1..10, for
BENCHMARK.json's run_seconds, and prints, per end-to-end metric, the median,
the quartiles and the spread (interquartile range over median) against the
metric's bound, plus the attempted and failed op counts.

    python3 xbench/steady.py [--workload W ...] [--out runs.jsonl]

Run from the root of an xtrace checkout. Exits non-zero when a run fails, a
check fails, or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def main(argv):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", help="append every run's result line to this JSONL file")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for w in args.workload or names:
        results = []
        for seed in SEEDS:
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = r.stdout.strip().splitlines()
            if r.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed (exit {r.returncode})")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok &= res["correct"]
            results.append(res)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **res}) + "\n")
        if len(results) < 2:
            continue
        att = [r["attempted"] for r in results]
        fail = [r["failed"] for r in results]
        print(f"\n{w}: {len(results)} runs, attempted {min(att)}..{max(att)}, "
              f"failed {sum(fail)} of {sum(att)}")
        print(f"  {'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag, ok = "  OVER", False
            elif spread > m["bound"] / 3:
                flag = "  >1/3"
            print(f"  {name:22s} {q2:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} "
                  f"{m['bound']:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
