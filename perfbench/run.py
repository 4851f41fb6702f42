#!/usr/bin/env python3
"""Build and run the full-StepLoop MD benchmark.

    python3 perfbench/run.py --workload snap_md --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures the repository's
own CMake project with perfbench/hook.cmake added (so the benchmark links
the ember_* libraries exactly as a user build compiles them) into
.bench_build/, and builds the perfbench_md target; later calls only let
the build tool confirm it is up to date. The binary's output is passed
through; its last line is the result object. Exit status is the binary's:
non-zero when a correctness gate failed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("snap_md", "tersoff_dump", "tersoff_ranks")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "src")):
        sys.exit("perfbench: no repository sources next to perfbench/ "
                 "(need CMakeLists.txt and src/ at %s)" % root)
    # Compiler and program temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", root, "-B", build_dir, *generator,
                        "-DCMAKE_PROJECT_INCLUDE=" +
                        os.path.join(HERE, "hook.cmake")],
                       check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench_md",
                    "-j", jobs], check=True, **quiet)
    return os.path.join(build_dir, "perfbench_md")


def expected_metrics(root, traced):
    """Metric names BENCHMARK.json promises for this kind of run."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    build_dir = os.path.join(root, ".bench_build")
    try:
        binary = build(root, build_dir)
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)

    out_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    proc = subprocess.run([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace), "--out", out_dir],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        sys.exit("perfbench: benchmark printed nothing (exit %d)"
                 % proc.returncode)
    result = json.loads(lines[-1])
    expected = expected_metrics(root, args.trace == 1)
    if proc.returncode == 0 and expected is not None and \
            set(result["metrics"]) != expected:
        sys.exit("perfbench: metrics %s do not match BENCHMARK.json %s"
                 % (sorted(result["metrics"]), sorted(expected)))
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
