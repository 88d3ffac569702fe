#!/usr/bin/env python3
"""Build and run the FluentPS end-to-end benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the library under src/) into
.bench_build/perfbench at the root of the checkout, then runs one workload.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. The traced run (--trace 1) also writes the last traced episode
of a dense workload as a Chrome trace under .bench_build/perfbench/traces/.
`--workload all` runs every workload listed in BENCHMARK.json in turn.
Exits non-zero if the build fails, an output check fails or the run stalls.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170  # the benchmark's own watchdog fires well before this


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(workload, args):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (workload, args.seed))]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s and was killed" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    build()
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    # Popen.wait() gives a negative code for a child killed by a signal.
    codes = [run(w, args) for w in workloads]
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
