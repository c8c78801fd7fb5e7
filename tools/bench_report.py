#!/usr/bin/env python3
"""Record benchmark results as BENCH_<name>.json at the repo root.

    tools/bench_report.py <name>|all [label]
    tools/bench_report.py validate [BENCH_*.json ...]

Every record has one shape (docs/RUNTIME.md, "Benchmark records"):

    {label, date, host, cpu_count,
     metrics: {name: number|null}, gates: {name: bool}, history: [...]}

Writing a record appends the previous one, minus its own history, to
`history`. A false gate makes the run exit 1 and leaves the file as it
was. Binaries come from build/bench/ next to this script's checkout.
`validate` checks the shape of every BENCH_*.json (or the given files).
"""
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BIN = ROOT / "build" / "bench"
CPUS = os.cpu_count() or 1
JOBS_N = max(4, CPUS)


def run(*cmd):
    proc = subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"error: {' '.join(map(str, cmd))} exited "
                 f"{proc.returncode}\n{proc.stderr}")
    return proc.stdout


def bench(name, *args):
    """A bench binary's own {"metrics", "gates"} record fragment."""
    out = json.loads(run(BIN / name, *args))
    return out["metrics"], out["gates"]


def sweep(tmp, tag, *args):
    """Run `aetr-sweep ARGS` into its own directory. Returns (directory,
    seconds): the sweep time from --report, or for `opt` (no --report) the
    process wall time."""
    out = tmp / tag
    report = out / "report.json"
    cmd = [BIN / "aetr-sweep", *args, "--quiet", "--out", out]
    if args[0] != "opt":
        cmd += ["--report", report]
    t0 = time.monotonic()
    run(*cmd)
    wall = time.monotonic() - t0
    if report.exists():
        wall = sum(e["wall_sec"] for e in json.loads(report.read_text()))
        report.unlink()
    return out, wall


def same_files(a, b):
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    return files == sorted(p.relative_to(b) for p in b.rglob("*")
                           if p.is_file()) and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files)


# --- one function per record: returns (metrics, gates) ------------------------

def scheduler(tmp):
    data = json.loads(run(BIN / "micro_kernels",
                          "--benchmark_filter=BM_Scheduler",
                          "--benchmark_format=json",
                          "--benchmark_repetitions=9",
                          "--benchmark_report_aggregates_only=true"))
    scale = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}
    return {b["name"].removesuffix("_mean") + "_ns":
            b["real_time"] * scale[b.get("time_unit", "ns")]
            for b in data["benchmarks"] if b["name"].endswith("_mean")}, {}


def runtime(tmp):
    one, t1 = sweep(tmp, "j1", "fig8", "--jobs", "1")
    many, tn = sweep(tmp, "jN", "fig8", "--jobs", JOBS_N)
    # On one CPU --jobs N time-slices a core: the ratio is noise, not scaling.
    return ({"fig8_wall_sec_jobs1": t1, "fig8_wall_sec_jobsN": tn,
             "jobs_n": JOBS_N, "speedup": t1 / tn if CPUS > 1 else None},
            {"fig8_identical_across_jobs": same_files(one, many)})


def fastpath(tmp):
    metrics, gates = bench("fastpath_throughput")
    identical = True
    for fig in ("fig6", "fig8"):
        on, t_on = sweep(tmp, fig + "on", fig, "--jobs", "1")
        off, t_off = sweep(tmp, fig + "off", fig, "--jobs", "1",
                           "--no-fast-forward")
        metrics |= {f"{fig}_wall_sec_on": t_on, f"{fig}_wall_sec_off": t_off,
                    f"{fig}_speedup": t_off / t_on}
        identical = identical and same_files(on, off)
    gates["figures_identical_on_vs_off"] = identical
    return metrics, gates


def faults(tmp):
    _, t1 = sweep(tmp, "j1", "faults", "--quick", "--jobs", "1")
    _, tn = sweep(tmp, "jN", "faults", "--quick", "--jobs", JOBS_N)
    return {"wall_sec_jobs1": t1, "wall_sec_jobsN": tn, "jobs_n": JOBS_N}, {}


def fleet(tmp):
    return bench("fleet_throughput")


def opt(tmp):
    one, t1 = sweep(tmp, "j1", "opt", "--quick", "--jobs", "1")
    _, tn = sweep(tmp, "jN", "opt", "--quick", "--jobs", JOBS_N)
    s = json.loads((one / "aetr_opt_summary.json").read_text())
    base = s["baseline"]["energy_per_event_j"]
    best = s["best_energy_per_event_j"]
    return ({"wall_sec_jobs1": t1, "wall_sec_jobsN": tn, "jobs_n": JOBS_N,
             "trials": s["trials"], "front_size": len(s["front"]),
             "hypervolume": s["hypervolume"],
             "baseline_energy_per_event_j": base,
             "best_energy_per_event_j": best,
             "energy_saving_pct": (base - best) / base * 100.0},
            {"front_dominates_default": s["dominated_baseline"]})


def profile(tmp):
    return bench("profile_hotpath")


def serve(tmp):
    cli = BIN / "aetr-serve"
    stream = tmp / "stream.trace"
    run(cli, "gen", "--out", stream, "--events", 100_000, "--rate-hz",
        100_000, "--seed", 7)

    def serve_run(tag, *args):
        stats = tmp / f"{tag}.json"
        run(cli, "run", "--in", stream, "--out-dir", tmp / tag,
            "--stats-json", stats, *args)
        return json.loads(stats.read_text())

    # --no-history: the steady-state RSS ceiling of an endless service run.
    ingest = serve_run("ingest", "--no-history")
    snapshots = ("--snapshot", tmp / "state.snap",
                 "--snapshot-interval-sec", 0.1)
    snap = serve_run("snap", *snapshots)
    resumed = serve_run("resumed", *snapshots, "--resume")
    return ({"ingest_events_per_sec": ingest["events_per_sec"],
             "ingest_max_rss_kb_no_history": ingest["max_rss_kb"],
             "snapshots": snap["snapshots"],
             "snapshot_sec_mean": snap["snapshot_sec_mean"],
             "snapshot_max_rss_kb": snap["max_rss_kb"],
             "restore_sec": resumed["restore_sec"]},
            {"resumed_summary_identical":
             (tmp / "snap" / "summary.txt").read_bytes()
             == (tmp / "resumed" / "summary.txt").read_bytes()})


def net(tmp):
    return bench("net_throughput")


def telemetry(tmp):
    def best_of_5(tag, *flags):
        return min(sweep(tmp, f"{tag}{rep}", "fig8", "--quick", "--jobs", "1",
                         *flags)[1] for rep in range(5))

    idle = best_of_5("off")
    recording = best_of_5("on", "--trace", "--metrics")
    return ({"wall_sec_idle": idle, "wall_sec_recording": recording,
             "recording_overhead_pct": (recording - idle) / idle * 100.0},
            {"artifacts_written":
             any((tmp / "on0").glob("aetr_fig8_j*_trace.json"))})


RECORDS = {f.__name__: f for f in (scheduler, runtime, fastpath, faults,
                                   fleet, opt, profile, serve, net,
                                   telemetry)}


def record(name, label):
    with tempfile.TemporaryDirectory(prefix=f"aetr_bench_{name}_") as tmp:
        metrics, gates = RECORDS[name](pathlib.Path(tmp))
    print(json.dumps({"record": name, "metrics": metrics, "gates": gates},
                     indent=1))
    failed = [g for g, ok in gates.items() if not ok]
    if failed:
        print(f"FAIL {name}: gate(s) {', '.join(failed)} false; "
              f"BENCH_{name}.json left unchanged", file=sys.stderr)
        return 1
    out = ROOT / f"BENCH_{name}.json"
    history = []
    if out.exists():
        previous = json.loads(out.read_text())
        history = previous.pop("history", [])
        history.append(previous)
    out.write_text(json.dumps({
        "label": label, "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "host": platform.node(), "cpu_count": CPUS, "metrics": metrics,
        "gates": gates, "history": history}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


# --- validation ---------------------------------------------------------------

def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def problems(doc):
    if not isinstance(doc, dict):
        return ["top level is not an object"]
    errors = [f"missing or non-string '{k}'" for k in ("label", "date", "host")
              if not isinstance(doc.get(k), str)]
    if not isinstance(doc.get("cpu_count"), int) or isinstance(
            doc.get("cpu_count"), bool):
        errors.append("missing or non-integer 'cpu_count'")
    for key, ok, what in (("metrics", lambda v: v is None or is_number(v),
                           "a number or null"),
                          ("gates", lambda v: isinstance(v, bool),
                           "a boolean")):
        table = doc.get(key)
        if not isinstance(table, dict):
            errors.append(f"missing or non-object '{key}'")
            continue
        errors += [f"{key}.{k} is not {what}" for k, v in table.items()
                   if not ok(v)]
    history = doc.get("history")
    if not isinstance(history, list):
        errors.append("missing or non-list 'history'")
    else:
        errors += [f"history[{i}] has no string 'label'"
                   for i, e in enumerate(history)
                   if not isinstance(e, dict)
                   or not isinstance(e.get("label"), str)]
    return errors


def validate(paths):
    files = [pathlib.Path(p) for p in paths] or sorted(
        ROOT.glob("BENCH_*.json"))
    if not files:
        print("validate: no BENCH_*.json files found", file=sys.stderr)
        return 1
    failures = 0
    for f in files:
        try:
            doc = json.loads(f.read_text())
            errors = problems(doc)
        except (OSError, json.JSONDecodeError) as e:
            errors = [f"unreadable or invalid JSON: {e}"]
        for e in errors:
            print(f"FAIL {f.name}: {e}", file=sys.stderr)
        if errors:
            failures += 1
        else:
            print(f"ok   {f.name}  ({len(doc['history'])} history entries)")
    return 1 if failures else 0


def main():
    args = sys.argv[1:]
    if args and args[0] == "validate":
        return validate(args[1:])
    if not args or args[0] not in (*RECORDS, "all") or len(args) > 2:
        print(__doc__.strip() + "\n\nrecords: " + " ".join(RECORDS),
              file=sys.stderr)
        return 2
    label = args[1] if len(args) > 1 else ""
    names = RECORDS if args[0] == "all" else [args[0]]
    return max(record(name, label) for name in names)


if __name__ == "__main__":
    sys.exit(main())
