#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench driver from source and runs it.

    python3 perfbench/run.py --workload square|serve|apps --seed N \
        --seconds S --trace 0|1

Run it from the repository root.  The first run configures and builds the
library and the driver (Release) under .bench_build/perfbench; later runs
rebuild incrementally.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the metrics are the
end_to_end list of BENCHMARK.json with --trace 0 and its per_layer list with
--trace 1, each as {"value": ..., "unit": ...}.  Build output and
diagnostics go to standard error.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
# A measured run must end within 180 s of its start, build check included.
RUN_DEADLINE_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (OSError, subprocess.SubprocessError) as err:
        fail("step failed: %s (%s)" % (" ".join(cmd), err))


def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        fail("library sources not found; run from the repository root")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    start = time.monotonic()
    # The driver fixes its own thread counts; library tuning variables from
    # the caller's environment would change what is measured.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("SPGEMM_", "OMP_"))}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_DEADLINE_S)
    except (OSError, subprocess.SubprocessError) as err:
        fail("driver failed: %s" % err)
    if proc.returncode != 0:
        fail("driver exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("driver printed no result")

    metrics = {}
    for m in wanted:
        if m["name"] not in raw["metrics"]:
            fail("driver did not measure %s" % m["name"])
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    print("perfbench: %s seed %d measured in %.1f s" %
          (args.workload, args.seed, time.monotonic() - start),
          file=sys.stderr)


if __name__ == "__main__":
    main()
