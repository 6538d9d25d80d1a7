#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

from the root of a source checkout. The script builds perfbench (the C++
program in this directory) against the checkout's sources into
.bench_build/, then, each step in its own process and its own work
directory under .bench_build/work/:

  1. `perfbench selfcheck` checks the benchmark's arithmetic;
  2. `perfbench gen` writes the seeded inputs, so the generator's memory
     never counts toward the measured process's peak RSS;
  3. `perfbench run` measures the workload and checks every output.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0. With --trace 1 the run is made twice, untraced then traced, and
the metrics are the per-layer ones from the traced run plus
trace.overhead_share, the traced run's op time over the untraced run's,
minus one. Any failure to build, generate or run exits non-zero without a
result line. README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("paper_sweep", "long_rows", "serve_query", "serve_mixed")
END_TO_END = ("setup_s", "op_p50_ms", "op_tail_ms", "throughput_per_s",
              "peak_rss_mb")
TAIL_BEYOND = 10  # ops above the reported tail (stats.h kTailBeyond)

BUILD_TIMEOUT_S = 840
# Everything after the build (selfcheck, gen, one or two runs) ends within
# this many seconds, or the script fails.
RUN_BUDGET_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def call(argv, cwd, timeout, what):
    try:
        proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (what, timeout))
    except OSError as err:
        die("%s could not start: %s" % (what, err))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        die("%s failed with exit code %d" % (what, proc.returncode))
    return proc.stdout


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no seqhide sources next to %s; run from a source checkout" % HERE)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        call(["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ROOT, BUILD_TIMEOUT_S, "cmake configure")
    jobs = str(min(4, os.cpu_count() or 1))
    call(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
         ROOT, BUILD_TIMEOUT_S, "cmake build")


def remaining(deadline):
    return max(1, int(deadline - time.monotonic()))


def measure(args, work, trace, deadline):
    out = call([BINARY, "run", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "1" if trace else "0"],
               work, remaining(deadline), "perfbench run")
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    call([BINARY, "selfcheck"], ROOT, remaining(deadline),
         "perfbench selfcheck")

    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        call([BINARY, "gen", "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)],
             work, remaining(deadline), "perfbench gen")
        runs = [measure(args, work, False, deadline)]
        if args.trace:
            runs.append(measure(args, work, True, deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    last = runs[-1]
    if args.trace:
        metrics = {k: v for k, v in last["metrics"].items()
                   if k not in END_TO_END}
        untraced = runs[0]["metrics"]["throughput_per_s"]["value"]
        traced = last["metrics"]["throughput_per_s"]["value"]
        metrics["trace.overhead_share"] = {"value": untraced / traced - 1,
                                           "unit": "ratio"}
    else:
        metrics = {k: last["metrics"][k] for k in END_TO_END}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    n = last["attempted"]
    print("%s seed %d: %d ops per run, op_tail_ms = p%.4g (rank %d of %d)"
          % (args.workload, args.seed, n, 100.0 * (n - TAIL_BEYOND) / n,
             n - TAIL_BEYOND, n), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
