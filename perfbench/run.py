#!/usr/bin/env python3
"""Builds the benchmark driver from the checkout's sources and runs one pass.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The first run builds the library
sources under src/ and the driver with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the checkout; later runs only re-check the build.  The
driver's output is passed through, and its last line -- one JSON object with
`correct`, `attempted`, `failed` and `metrics` -- is checked against
BENCHMARK.json: with --trace 0 the metrics must be exactly the end_to_end
list, with --trace 1 exactly the per_layer list, each with its unit and a
finite value.  Exit code 0 only when the build worked, every correctness
check passed and the result matches BENCHMARK.json.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(out_dir):
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def expected_metrics(trace):
    """{name: unit} the result must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def result_problems(result, expected):
    """Ways the driver's JSON result breaks the benchmark's contract."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    metrics = result["metrics"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append("missing metrics: %s" % ", ".join(missing))
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % ", ".join(extra))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s has unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s has no finite value" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    out_dir = build_dir()
    try:
        build(out_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    # Socket ranks rendezvous in a directory under TMPDIR; keep it inside
    # the checkout and relative, so socket paths stay short.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.relpath(tmp, ROOT))
    cmd = [os.path.join(out_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S,
              file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print("perfbench: driver printed no result (exit %d)"
              % proc.returncode, file=sys.stderr)
        return 2
    problems = result_problems(result, expected_metrics(args.trace))
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            print("perfbench: %s" % p, file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        print("perfbench: %d of %d correctness checks failed"
              % (result["failed"], result["attempted"]), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
