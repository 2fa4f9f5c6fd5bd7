#!/usr/bin/env python3
"""Builds the perfbench harness and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The harness and the library are built from
source into $CARGO_TARGET_DIR (default .bench_build) on first use. The last
line of standard output is the result: {"correct", "attempted", "failed",
"metrics"}, where metrics are BENCHMARK.json's end_to_end names (--trace 0)
or its per_layer names (--trace 1). Everything above it is the human report.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the binary is killed (and the run fails) after this
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            return -1


def build(build_dir):
    """Configures once, then builds incrementally (a no-op when current)."""
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
        if rc != 0:
            sys.stderr.write(open(log).read()[-4000:])
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    rc = run_logged(["cmake", "--build", build_dir, "-j", jobs], log,
                    BUILD_TIMEOUT_S)
    if rc != 0:
        sys.stderr.write(open(log).read()[-4000:])
        fail("build failed")


def select_metrics(raw, spec, trace):
    """Picks the declared metrics. A per-layer metric of a layer the workload
    does not exercise reads 0; any other missing metric is an error."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    unexercised = raw.get("unexercised", [])
    metrics = {}
    for entry in declared:
        name, unit = entry["name"], entry["unit"]
        if name in raw["metrics"]:
            measured = raw["metrics"][name]
            if measured["unit"] != unit:
                fail("%s measured in %s, declared in %s" %
                     (name, measured["unit"], unit))
            metrics[name] = {"value": measured["value"], "unit": unit}
        elif trace and any(name == p or name.startswith(p + ".")
                           for p in unexercised):
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail("workload did not measure " + name)
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    selftest = subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest"),
         os.path.join(ROOT, "BENCHMARK.json")],
        capture_output=True, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stderr)
        fail("harness self-test failed")

    # Stores and temp files stay inside the checkout.
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    result_line = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result_line = line[len("PERFBENCH_RESULT "):]
        else:
            print(line)
    if result_line is None:
        fail("workload exited with code %d and no result" % proc.returncode)
    raw = json.loads(result_line)
    attempted, failed = raw["attempted"], raw["failed"]
    print("  failed_ratio %.6g (%d of %d operations)" %
          (failed / max(attempted, 1), failed, attempted))
    result = {
        "correct": bool(raw["correct"]) and proc.returncode == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select_metrics(raw, spec, args.trace == 1),
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
