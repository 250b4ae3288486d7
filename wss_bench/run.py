#!/usr/bin/env python3
"""Benchmark entry point: build wss_bench from source, run one workload,
print one JSON result line.

    python3 wss_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
the harness (CMake, RelWithDebInfo) into .bench_build/; later calls
only check that the build is current. The harness's own metric lines
are echoed, and the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). Exits non-zero, printing no result, when
the harness cannot be built or run.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wss_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no wss sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, "lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", BUILD, "--target", "wss_bench",
                      "-j", str(os.cpu_count() or 1)])
        with open(log_path, "w") as log:
            for cmd in steps:
                try:
                    rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
                except subprocess.TimeoutExpired:
                    fail("build timed out (log: %s)" % log_path)
                if rc != 0:
                    with open(log_path) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    fail("build failed (log: %s)" % log_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    build()

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    record_path = os.path.join(BUILD, "record-%s.jsonl" % tag)
    workdir = os.path.join(BUILD, "work-%s" % tag)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", record_path,
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace", os.path.join(BUILD, "spans-%s.jsonl" % args.workload)]
    try:
        try:
            rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            fail("wss_bench did not finish within %d s" % RUN_TIMEOUT_S)
        if rc not in (0, 1) or not os.path.isfile(record_path):
            fail("wss_bench exited %d without a record" % rc)
        with open(record_path) as f:
            record = json.loads(f.read().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(record_path):
            os.remove(record_path)

    measured = record["metrics"]
    metrics = {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
               for n in names if n in measured}
    correct = (rc == 0 and not record["checks"]["failed"]
               and len(metrics) == len(names))
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
