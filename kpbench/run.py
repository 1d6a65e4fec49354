#!/usr/bin/env python3
"""Builds kpbench from this checkout's sources and runs one workload.

    python3 kpbench/run.py --workload dense_doubling --seed 1 --seconds 10 --trace 0

Run from the repository root.  The build goes to .bench_build/kpbench (the
first run configures and compiles, later runs only check it is up to date);
its log is .bench_build/kpbench-build.log.

An untraced run is PROCESSES fresh processes one after another, each with a
cold set-up and a timed phase of --seconds / PROCESSES.  Process k draws its
inputs from seed PROCESSES * --seed + k, so one run covers PROCESSES input
sets.  The result sums their request counts and takes, for every metric,
the median of the processes' values, so that a process that runs slow as a
whole (placement, host load) or one unusual input set does not decide the
figure.  A traced run is one process with seed --seed; it writes its spans
to .bench_build/traces/<workload>-<seed>.json.  Either way the last two
stdout lines are the environment block and the result.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "kpbench")
LOG = os.path.join(OUT, "kpbench-build.log")
WORKLOADS = ("dense_doubling", "sparse_block", "service_stream", "exact_rational")
PROCESSES = 3
TIMEOUT_S = 170


def die(message):
    print(f"kpbench: {message}", file=sys.stderr)
    sys.exit(1)


def source_digest():
    """sha256 over the library sources and the benchmark, so results from
    different code can be told apart even outside a git checkout."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the library sources (CMakeLists.txt, src/) are not next to the benchmark")
    os.makedirs(OUT, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "kpbench", "--parallel", jobs])
    with open(LOG, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(LOG) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (" + " ".join(cmd[:2]) + ")")
    return os.path.join(BUILD, "kpbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    deadline = time.monotonic() + TIMEOUT_S
    cmd = [binary, "--workload", args.workload, "--trace", str(args.trace),
           "--source-digest", source_digest()]
    if args.trace:
        runs = [cmd + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace-out", os.path.join(OUT, "traces",
                                                   f"{args.workload}-{args.seed}.json")]]
    else:
        runs = [cmd + ["--seed", str(PROCESSES * args.seed + k),
                       "--seconds", repr(args.seconds / PROCESSES)]
                for k in range(PROCESSES)]
    results = []
    for run in runs:
        try:
            out = subprocess.run(run, stdout=subprocess.PIPE, text=True,
                                 timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            die(f"the benchmark did not finish in {TIMEOUT_S} s")
        lines = out.stdout.splitlines()
        if out.returncode != 0 or len(lines) < 2:
            sys.stdout.write(out.stdout)
            die(f"kpbench exited with status {out.returncode}")
        env, result = lines[-2], json.loads(lines[-1])
        results.append(result)
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median([r["metrics"][name]["value"]
                                                       for r in results]),
                           "unit": m["unit"]}
                    for name, m in results[0]["metrics"].items()},
    }
    print(env)
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
