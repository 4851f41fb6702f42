#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload snap_md --seeds 1-10 --seconds 20

For every metric: the median over seeds and the quartile spread
(Q3 - Q1) / median, with quartiles from statistics.quantiles(n=4). With
--trace 0 each end-to-end spread is compared with a third of its bound
in BENCHMARK.json. Raw results are appended to
.bench_build/spread-<workload>-trace<t>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    log = os.path.join(ROOT, ".bench_build", "spread-%s-trace%d.jsonl" % (
        args.workload, args.trace))
    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.splitlines()
        if not lines:
            print("seed %d: FAILED (no result, exit %d)" % (seed, proc.returncode))
            continue
        result = json.loads(lines[-1])
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "seconds": round(
                time.monotonic() - start, 1), "result": result}) + "\n")
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d: FAILED (%d of %d gates)" % (
                seed, result["failed"], result["attempted"]))
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: ok" % seed, flush=True)

    print("%-32s %14s %-14s %8s %8s" % ("metric", "median", "unit", "spread",
                                        "bound/3"))
    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name) if args.trace == 0 else None
        flag = ""
        if bound is not None:
            limit = bound / 3
            if name != "setup_s" and spread >= limit:
                flag, steady = "  WIDE", False
            print("%-32s %14.6g %-14s %8.4f %8.4f%s" % (
                name, med, units[name], spread, limit, flag))
        else:
            print("%-32s %14.6g %-14s %8.4f" % (name, med, units[name], spread))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
