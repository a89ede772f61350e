#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It configures and builds perfbench/ (a
CMake package that compiles the program from ../src in Release) under
.bench_build/perfbench, runs the statistics self-test, then runs the
perfbench driver and passes its output and exit code through. Build output
goes to stderr, so the last stdout line is the driver's JSON result. Spans
are written to .bench_build/perfbench/spans/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def configured():
    """True when BUILD holds a generated tree for this source directory."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
    except OSError:
        return False
    return (home == [HERE] and os.path.exists(os.path.join(BUILD, "Makefile")))


def build():
    """Configures (when needed) and builds the package; False on failure."""
    steps = []
    if not configured():
        shutil.rmtree(BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    steps.append([os.path.join(BUILD, "perfbench_selftest")])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: step failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def check_metrics(result, traced):
    """The metrics must be exactly the ones BENCHMARK.json declares for the
    run's mode, with the same units; returns a description of a mismatch."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if want != got:
        return "metrics do not match BENCHMARK.json: missing %s, extra or mis-unit %s" % (
            sorted(set(want) - set(got)),
            sorted(k for k in got if want.get(k) != got[k]))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(
        spans_dir, "%s-seed%s-trace%s.json" % (args.workload, args.seed, args.trace))
    run = subprocess.run([
        os.path.join(BUILD, "perfbench"), "--workload", args.workload,
        "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
        "--spans-out", spans,
    ], stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.splitlines()
    problem = check_metrics(json.loads(lines[-1]), args.trace == "1") if lines else "no output"
    if problem:
        print("perfbench: " + problem, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
