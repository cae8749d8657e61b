#!/usr/bin/env python3
"""Builds and runs one workload of the appscope end-to-end benchmark.

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (the repository's libraries plus the benchmark binary) in Release
under $CARGO_TARGET_DIR, or .bench_build/ when that is unset; later runs
only bring the build up to date. The benchmark binary prints human-readable
lines and a JSON result; this script checks the metric names against
BENCHMARK.json, reports every per-layer metric a workload does not exercise
as 0, and prints the result as the last line of standard output. The exit
status is the binary's: 0 only when every correctness check passed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per tree
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "appscope_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "appscope_perfbench")


def main():
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("no BENCHMARK.json next to perfbench/")
    with open(spec_path) as f:
        spec = json.load(f)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the appscope sources (src/) are missing; nothing to build")
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(ROOT, build_root)),
                             "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("the benchmark printed no result (exit status %d)"
             % proc.returncode)
    result = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in declared]
    extra = sorted(set(result["metrics"]) - set(names))
    if extra:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(extra))
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            got = {"value": 0, "unit": m["unit"]}  # layer not exercised here
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    result["metrics"] = metrics

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
