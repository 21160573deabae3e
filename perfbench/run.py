#!/usr/bin/env python3
"""Build and run the mpsim benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch_modes --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the libraries and the driver under
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild
incrementally.  Build output goes to stderr.  The driver's report goes to
stdout; its last line is the JSON result, which this script checks against
BENCHMARK.json (metric names, units, the end-to-end or per-layer set)
before passing it on.  See perfbench/README.md.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate_spec(spec):
    """Problems with BENCHMARK.json's metric tables (empty when sound)."""
    problems = []
    names = set()
    for table in ("end_to_end", "per_layer"):
        for metric in spec.get(table, []):
            name = metric.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{table}: invalid name {name!r}")
            if name in names:
                problems.append(f"{table}: {name} used twice")
            names.add(name)
            if not UNIT_RE.match(metric.get("unit", "")):
                problems.append(f"{table}: {name} has no valid unit")
            if metric.get("better") not in ("higher", "lower"):
                problems.append(f"{table}: {name} has no direction")
            if table == "end_to_end":
                bound = metric.get("bound")
                if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
                    problems.append(f"{table}: {name} needs a bound in (0, 0.25]")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        problems.append("end_to_end: setup_s (s, lower) is required")
    return problems


def validate_result(result, spec, trace):
    """Problems with one result line against BENCHMARK.json (empty when it
    holds exactly the expected metrics, each finite and in its unit)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    table = spec["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    metrics = result["metrics"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        value = entry.get("value")
        if entry.get("unit") != expected[name]:
            problems.append(f"metric {name} unit {entry.get('unit')!r}, "
                            f"expected {expected[name]!r}")
        if not isinstance(value, (int, float)) or value != value or \
                value in (float("inf"), float("-inf")):
            problems.append(f"metric {name} value {value!r} is not finite")
    return problems


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, target)


def run(args, spec):
    binary = build("mpsim_perfbench")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(os.path.dirname(build_dir()), "work",
                        f"{tag}-{os.getpid()}")
    traces = os.path.join(os.path.dirname(build_dir()), "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work-dir={work}",
               f"--trace-out={os.path.join(traces, tag + '.json')}"]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"run.py: driver exited {proc.returncode} without a result",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    problems = validate_result(result, spec, args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problems:
        for problem in problems:
            print(f"run.py: {problem}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def self_test():
    subprocess.run([build("perfbench_tests")], check=True)
    suite = unittest.defaultTestLoader.discover(
        os.path.join(HERE, "tests"), pattern="test_*.py")
    ok = unittest.TextTestRunner(stream=sys.stderr).run(suite).wasSuccessful()
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        with open(SPEC_PATH) as f:
            spec = json.load(f)
        problems = validate_spec(spec)
        workloads = [w["name"] for w in spec["workloads"]]
        if args.workload not in workloads:
            problems.append(f"unknown workload {args.workload!r} "
                            f"(one of {', '.join(workloads)})")
        if problems:
            for problem in problems:
                print(f"run.py: {problem}", file=sys.stderr)
            return 2
        return run(args, spec)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
