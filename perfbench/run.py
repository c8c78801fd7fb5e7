#!/usr/bin/env python3
"""Build and run the aetr layered benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-catchup --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

The first call configures and builds perfbench/ (and the library under
src/, from source) into .bench_build/perfbench/build as a Release build;
later calls rebuild only what changed. Build output goes to stderr, so the
last line on stdout is the benchmark's JSON result.

--smoke runs every workload at a tiny size, untraced and traced, and checks
that each run reports exactly the metrics BENCHMARK.json names, with their
units, and that no operation failed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench", "build")
BINARY = os.path.join(BUILD_DIR, "aetr_perfbench")
WORKLOADS = ["serve-catchup", "serve-live", "sweep-fig8", "fleet-saturated"]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # A configure that failed leaves a cache but no build file behind.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "aetr_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            proc = subprocess.run(
                [BINARY, "--workload", workload, "--seed", "7",
                 "--seconds", "0.2", "--trace", str(trace), "--smoke"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
            label = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                missing = sorted(set(expected) - set(got))
                extra = sorted(set(got) - set(expected))
                units = sorted(k for k in set(got) & set(expected)
                               if got[k] != expected[k])
                problems.append("%s: missing %s, extra %s, unit mismatch %s"
                                % (label, missing, extra, units))
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append("%s: error_rate %d/%d" % (
                    label, result["failed"], result["attempted"]))
            print("smoke %-28s %d metrics, error_rate %d/%d" % (
                label, len(got), result["failed"], result["attempted"]))
    for p in problems:
        print("smoke FAIL " + p)
    return 1 if problems else 0


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--smoke"]:
        return smoke()
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
