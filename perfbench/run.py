#!/usr/bin/env python3
"""Benchmark of record for HADES (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library and the benchmark from source into .bench_build/perfbench
(CMake, Release), runs one workload, and prints the metric table followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json
is the one metric catalogue: the benchmark program reports the median and
sample count of every metric it measured, and this script names them with
their units. A per-layer metric of a layer the workload never exercises
reads 0. Exits non-zero, without a result line, when the build fails or an
end-to-end metric was not measured; exits 1 with the result line when a
correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def catalogue(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def result(line, trace):
    """The result object built from the program's last line, and the table
    rows, or a problem string."""
    try:
        got = json.loads(line)
    except ValueError:
        return None, None, "the last line is not JSON"
    if set(got) != {"correct", "attempted", "failed", "samples"}:
        return None, None, "unexpected keys in the program's last line"
    if got["attempted"] < 1:
        return None, None, "nothing was attempted"
    metrics, rows = {}, []
    for m in catalogue(trace):
        s = got["samples"].get(m["name"])
        if s is None:
            if not trace:
                return None, None, f"end-to-end metric {m['name']} was not measured"
            s = {"median": 0, "n": 0}  # a layer this workload never exercises
        metrics[m["name"]] = {"value": s["median"], "unit": m["unit"]}
        rows.append(f"{m['name']:<36} {s['median']:>16.6g} {m['unit']:<6} {s['n']}")
    if "host_factor" in got["samples"]:
        h = got["samples"]["host_factor"]
        rows.append(f"host speed factor {h['median']:.4g} (median of {h['n']} "
                    "repetitions; reference host = 1): setup_s, verify_s and "
                    "simulated sim_speed are in reference-host seconds")
    res = {"correct": got["correct"], "attempted": got["attempted"],
           "failed": got["failed"], "metrics": metrics}
    return res, rows, None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the unit test of the metric math")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    if not build():
        return 3
    if args.selftest:
        return subprocess.run([os.path.join(BUILD, "perfbench_math_test")]).returncode

    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "hades_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"no result within {RUN_TIMEOUT_S} s")
        return 4
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        log(f"benchmark exited with {proc.returncode}")
        return proc.returncode or 5
    res, rows, problem = result(lines[-1], args.trace == 1)
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    if problem:
        log(problem)
        return 5
    print(f"{'metric':<36} {'median':>16} {'unit':<6} samples")
    print("\n".join(rows))
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
