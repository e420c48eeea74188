#!/usr/bin/env python3
"""Runs one benchmark workload from the root of a checkout.

    python3 qbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the driver, its arithmetic self-test and quasii_server from source
with CMake (Release, into .bench_build/qbench), runs the self-test, then the
driver in several worker processes, each measuring an equal share of the
seconds, and prints their combined result as the last stdout line. Build
output and diagnostics go to stderr. The QUASII_* environment knobs are cleared so every run measures
the shipped defaults.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "qbench")
WORK = os.path.join(ROOT, ".bench_build", "qbench-run")
# Worker processes per run. On a virtual machine a process's speed depends
# on the physical memory it happens to get (first-query times per process
# are bimodal, ~60 or ~90 ms, at the same seed), so each run measures in
# several fresh processes and combines them.
WORKERS = {"explore_cold": 4, "served_rw": 3}
KNOBS = ("QUASII_FORCE_SCALAR", "QUASII_NO_PACK", "QUASII_EXEC_THREADS",
         "QUASII_GRAIN", "QUASII_FAILPOINTS")


def log(msg):
    print(f"qbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    """SHA-256 over the library sources and the benchmark's own files."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def run_worker(cmd, env, deadline):
    """Runs one worker process; returns (exit code, stdout lines)."""
    # The worker and any server it starts share a new process group, so
    # whatever happens to the worker, nothing it started outlives it.
    worker = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        out, _ = worker.communicate(timeout=max(1.0, deadline - time.time()))
        code = worker.returncode
    except subprocess.TimeoutExpired:
        log("worker timed out")
        out, code = "", 1
    try:
        os.killpg(worker.pid, signal.SIGKILL)
    except OSError:
        pass  # the group is already empty
    worker.wait()
    return code, out.strip().splitlines()


# Set-up time is combined by the median over workers (set up several times,
# report the median). The tail latency takes the lowest worker's value:
# host stalls only ever add to it, and on served_rw each worker already
# reports the tail of its quietest second (see served.h).
MEDIAN_OVER_WORKERS = ("setup_s",)
MIN_OVER_WORKERS = ("latency_p99_ms",)


# Work counts that must repeat exactly in every worker of a traced run.
EXACT = ("quasii.cracks", "quasii.objects_moved", "quasii.first_query_moved",
         "quasii.tested_per_result", "server.window_cracks")


def combine(results):
    """One result from the workers': counts add up, MEDIAN_OVER_WORKERS
    take the median, MIN_OVER_WORKERS the minimum, every other metric the
    mean (a value all workers agree on, such as an exact count, is kept as
    is)."""
    out = {"correct": all(r["correct"] for r in results),
           "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in MEDIAN_OVER_WORKERS:
            value = statistics.median(values)
        elif name in MIN_OVER_WORKERS:
            value = min(values)
        elif all(v == values[0] for v in values):
            value = values[0]
        elif name in EXACT:
            log(f"check failed: {name} differs between workers: {values}")
            out["correct"] = False
            value = statistics.fmean(values)
        else:
            value = statistics.fmean(values)
        out["metrics"][name] = {"value": value, "unit": first["unit"]}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()
    deadline = time.time() + 170
    if args.workload not in WORKERS:
        log(f"unknown workload {args.workload}")
        return 2

    if not build():
        return 1
    env = {k: v for k, v in os.environ.items() if k not in KNOBS}
    selftest = subprocess.run([os.path.join(BUILD, "qbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, env=env)
    if selftest.returncode != 0:
        log("arithmetic self-test failed")
        return 1
    os.makedirs(WORK, exist_ok=True)
    parts = WORKERS[args.workload]
    stamp = ["--git=" + git_commit(), "--digest=" + source_digest()]
    results = []
    fingerprint = None
    for part in range(parts):
        cmd = [os.path.join(BUILD, "qbench_driver"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds / parts:g}", f"--trace={args.trace}",
               f"--part={part}", f"--parts={parts}",
               "--server=" + os.path.join(BUILD, "quasii_server"),
               "--work-dir=" + os.path.relpath(WORK, os.getcwd())] + stamp
        code, lines = run_worker(cmd, env, deadline)
        try:
            result = json.loads(lines[-1])
            fingerprint = fingerprint or json.loads(lines[-2])
        except (IndexError, ValueError):
            log(f"worker {part} exited {code} without a result")
            return 1
        results.append(result)
    fingerprint["fingerprint"]["workers"] = parts
    fingerprint["fingerprint"]["seconds"] = args.seconds
    print(json.dumps(fingerprint))
    combined = combine(results)
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
