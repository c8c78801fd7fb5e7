#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and record how steady it is.

    python3 perfbench/steady.py --workloads serve-catchup,sweep-fig8 --seeds 10
    python3 perfbench/steady.py --seeds 10 --out perfbench/steadiness.json

For each workload and seed it runs `perfbench/run.py ... --trace 0` once,
in sequence. For each end-to-end metric it reports the median of the runs
and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A bound in
BENCHMARK.json is steady enough when the spread is under a third of it;
setup_s is exempt from the spread rule. With --out the figures are merged
into that JSON file, next to the bounds and the build record.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: exit %d" % (workload, seed,
                                                   proc.returncode))
    build = next((json.loads(l[len("# build "):]) for l in lines
                  if l.startswith("# build ")), None)
    return json.loads(lines[-1]), build, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="merge the figures into this JSON file")
    args = ap.parse_args()

    record = {}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record.setdefault("workloads", {})
    record["run_seconds"] = args.seconds
    worst = 0.0
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, build, wall = run_once(workload, seed, args.seconds)
            record["build"] = build
            walls.append(wall)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                 "failed": failed, "attempted": attempted,
                 "run_wall_s_max": max(walls), "metrics": {}}
        for name, vals in sorted(values.items()):
            s = summarize(vals)
            s["bound"] = bounds.get(name)
            s["steady"] = name == "setup_s" or (
                s["bound"] is not None and s["spread"] < s["bound"] / 3)
            entry["metrics"][name] = s
            print("%-16s %-18s median %12.6g  spread %6.3f  bound %s%s" % (
                workload, name, s["median"], s["spread"], s["bound"],
                "" if s["steady"] else "  NOT STEADY"))
        print("%-16s error_rate %d/%d, slowest run %.1f s" % (
            workload, failed, attempted, max(walls)))
        worst = max(worst, max(walls))
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
