#!/usr/bin/env python3
"""Run a benchmark suite and record the results at repo root.

Two modes, selected by the first argument:

  tools/bench_report.py [path/to/micro_kernels] [label]
      Scheduler micro-benchmarks (google-benchmark JSON) -> BENCH_scheduler.json.
      Also exposed as the `bench_report` CMake target.

  tools/bench_report.py runtime [path/to/aetr-sweep] [label]
      Sweep-runtime scaling: runs `aetr-sweep fig8` at --jobs 1 and
      --jobs max(4, cpu_count), checks the output CSVs are byte-identical
      (the runtime's determinism contract), and records both wall clocks
      plus per-core jobs/sec -> BENCH_runtime.json. On a single-CPU host
      the parallel speedup is recorded as null (threads time-slice one
      core, so the ratio measures scheduler noise, not scaling). Also
      exposed as the `runtime_report` target.

  tools/bench_report.py fastpath [path/to/aetr-sweep] [fastpath_throughput] [label]
      Idle-skip fast path (core/fast_path.hpp): per-rate single-thread
      events/sec with session.fast_forward on vs off from the
      fastpath_throughput bench, the fig6/fig8 --jobs 1 wall clocks on vs
      off, and the on-vs-off CSV byte-identity gate -> BENCH_fastpath.json.
      Also exposed as the `fastpath_report` target.

  tools/bench_report.py faults [path/to/aetr-sweep] [label]
      Fault-injection sweep: runs `aetr-sweep faults --quick` at --jobs 1
      and --jobs max(4, cpu_count), checks the degradation CSVs are
      byte-identical across --jobs (the fault layer's determinism gate),
      and records the wall clocks plus the degradation series
      -> BENCH_faults.json. Also exposed as the `faults_report` target.

  tools/bench_report.py fleet [path/to/aetr-sweep] [fleet_throughput] [label]
      Fleet simulation (fleet/fleet.hpp): node-phase throughput in
      events/sec/core and energy-per-delivered-event across fleet sizes
      from the fleet_throughput bench, its saturated 1024-node run_fleet
      wall time (and link-phase share) at --jobs 1 and N, plus the
      `aetr-sweep fleet --quick` --jobs 1 vs N byte-identity gate
      (CSV + summary JSON)
      -> BENCH_fleet.json. Also exposed as the `fleet_report` target.

  tools/bench_report.py opt [path/to/aetr-sweep] [label]
      Design-space optimizer: runs `aetr-sweep opt --quick` at --jobs 1
      and --jobs max(4, cpu_count), checks the Pareto-front artifacts are
      byte-identical across --jobs, then replays the search interrupted +
      --resume and checks those bytes too. Records the best-found energy
      per event against the paper-default configuration and whether the
      front strictly dominates it -> BENCH_opt.json. Also exposed as the
      `opt_report` target.

  tools/bench_report.py profile [path/to/profile_hotpath] [label]
      Hot-path profiler breakdown (util/profiler.hpp): runs the
      profile_hotpath bench — one full DES run under the scoped sampling
      profiler — and records per-site calls/ns/fractions for the four
      instrumented sites (mcu decode, harvest, schedule measure, word
      path) plus the profiler's measured overhead -> BENCH_profile.json.
      The bench self-checks the zero-cost contract (profiler off ->
      every counter zero). Also exposed as the `profile_report` target.

  tools/bench_report.py serve [path/to/aetr-serve] [label]
      Streaming service harness (core::Session via aetr-serve): ingest
      throughput over a generated event stream with --no-history (the
      steady-state RSS ceiling), snapshot cadence cost (mean wall-clock
      per snapshot), restore latency, and the snapshot-run vs
      resumed-run summary byte-identity gate -> BENCH_serve.json. Also
      exposed as the `serve_report` target.

  tools/bench_report.py net [path/to/net_throughput] [path/to/aetr-serve] [label]
      Framed socket transport (net/wire.hpp + net/server.hpp): pure codec
      encode/decode events/sec and wire bytes per event, loopback UDS
      ingest throughput end to end, total throughput across 1/2/4
      concurrent sessions on the single-threaded gateway, and the
      socket-vs-batch summary byte-identity gate via aetr-serve
      listen/send -> BENCH_net.json. Also exposed as the `net_report`
      target.

  tools/bench_report.py validate [BENCH_*.json ...]
      Structural validator for the BENCH_*.json perf records. With no
      args the file list is not hardcoded anywhere: it is discovered by
      globbing BENCH_*.json at the repo root, so a new mode's output is
      validated the moment it first lands. Checks each document carries
      a string label, a string date, a list-valued history, and only
      JSON-representable scalar/list/dict values — the shape every mode
      above writes and the CI observability job gates on. Pure standard
      library; exits non-zero listing each violation.

  tools/bench_report.py telemetry [path/to/aetr-sweep] [stripped-sweep] [label]
      Telemetry overhead on the fig8 quick sweep -> BENCH_telemetry.json.
      Always records the *recording* cost (no flags vs --trace --metrics
      on the instrumented binary; artifact I/O dominates — that cost buys
      the artifacts). When a second binary from a -DAETR_TELEMETRY=OFF
      build is given, also records the *instrumentation* cost: the
      compiled-in-but-disabled null-check path vs the stripped binary.
      That is the number with the < 3 % target (compiled out is 0 by
      construction). Also the `telemetry_report` target.

Each output file carries a `history` array with every earlier recorded run
(most recent last), so successive PRs accumulate a perf trajectory to
regress against.
"""
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILTER = "BM_Scheduler"


def load_history(out, summarize):
    """Previous runs of `out`, with the most recent one compacted via
    `summarize` and appended."""
    if not out.exists():
        return []
    old = json.loads(out.read_text())
    history = old.get("history", [])
    history.append(summarize(old))
    return history


def write_doc(out, doc):
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")


# --- scheduler micro-benchmarks ---------------------------------------------

def compact(benchmarks):
    """name -> real_time (ns) for the *_mean aggregate rows."""
    return {
        b["name"]: round(b["real_time"], 1)
        for b in benchmarks
        if b.get("name", "").endswith("_mean")
    }


def scheduler_mode(bench, label):
    out = ROOT / "BENCH_scheduler.json"
    try:
        proc = subprocess.run(
            [
                bench,
                f"--benchmark_filter={FILTER}",
                "--benchmark_format=json",
                "--benchmark_repetitions=9",
                "--benchmark_report_aggregates_only=true",
            ],
            check=True,
            capture_output=True,
            text=True,
        )
    except FileNotFoundError:
        print(f"error: benchmark binary not found: {bench}", file=sys.stderr)
        print("build it first: cmake --build build --target micro_kernels",
              file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as e:
        print(f"error: {bench} exited {e.returncode}:\n{e.stderr}",
              file=sys.stderr)
        return 1
    data = json.loads(proc.stdout)

    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "benchmarks": compact(old.get("benchmarks", [])),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "context": data.get("context", {}),
        "benchmarks": data.get("benchmarks", []),
        "history": history,
    }
    for name, ns in sorted(compact(doc["benchmarks"]).items()):
        print(f"{name:45s} {ns:>12.1f} ns")
    write_doc(out, doc)
    return 0


# --- sweep-runtime scaling ---------------------------------------------------

def run_sweep(cli, jobs, out_dir):
    report = out_dir / "report.json"
    proc = subprocess.run(
        [cli, "fig8", "--jobs", str(jobs), "--quiet",
         "--out", str(out_dir), "--report", str(report)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"error: aetr-sweep fig8 --jobs {jobs} exited "
              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    entry = json.loads(report.read_text())[0]
    entry.pop("per_job", None)  # bulky; the summary numbers suffice here
    return entry


def runtime_mode(cli, label):
    out = ROOT / "BENCH_runtime.json"
    if not pathlib.Path(cli).exists():
        print(f"error: aetr-sweep binary not found: {cli}", file=sys.stderr)
        print("build it first: cmake --build build --target aetr_sweep",
              file=sys.stderr)
        return 1
    cpus = os.cpu_count() or 1
    jobs_n = max(4, cpus)
    with tempfile.TemporaryDirectory(prefix="aetr_runtime_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "j1").mkdir()
        (tmp / "jN").mkdir()
        serial = run_sweep(cli, 1, tmp / "j1")
        parallel = run_sweep(cli, jobs_n, tmp / "jN")
        if serial is None or parallel is None:
            return 1
        identical = all(
            (tmp / "j1" / f).read_bytes() == (tmp / "jN" / f).read_bytes()
            for f in ("aetr_fig8.csv", "aetr_fig8_points.csv")
        )

    speedup = (serial["wall_sec"] / parallel["wall_sec"]
               if parallel["wall_sec"] > 0 else 0.0)
    # On one CPU the "parallel" run time-slices a single core: the ratio
    # measures scheduler noise, not scaling, so don't record it as a
    # speedup. Per-core jobs/sec is the number that stays comparable
    # across hosts of any width.
    speedup_meaningful = cpus > 1
    parallel_cores = max(1, min(parallel["threads"], cpus))
    per_core_serial = serial["jobs_per_sec"]
    per_core_parallel = parallel["jobs_per_sec"] / parallel_cores
    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "wall_sec_serial": old.get("serial", {}).get("wall_sec"),
        "wall_sec_parallel": old.get("parallel", {}).get("wall_sec"),
        "speedup": old.get("speedup"),
        "jobs_per_sec_per_core_serial":
            old.get("jobs_per_sec_per_core_serial"),
        "cpu_count": old.get("cpu_count"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "figure": "fig8",
        "cpu_count": cpus,
        "serial": serial,
        "parallel": parallel,
        "speedup": round(speedup, 3) if speedup_meaningful else None,
        "speedup_note": None if speedup_meaningful else (
            "single-CPU host: --jobs N time-slices one core, so a speedup"
            " ratio is not meaningful; see jobs_per_sec_per_core"),
        "jobs_per_sec_per_core_serial": round(per_core_serial, 4),
        "jobs_per_sec_per_core_parallel": round(per_core_parallel, 4),
        "outputs_identical": identical,
        "history": history,
    }
    print(f"fig8  --jobs 1                  {serial['wall_sec']:8.3f} s"
          f"  ({per_core_serial:.2f} jobs/s/core)")
    print(f"fig8  --jobs {jobs_n:<4d}"
          f"               {parallel['wall_sec']:8.3f} s"
          f"  ({parallel['threads']} threads, {parallel['steals']} steals,"
          f" {per_core_parallel:.2f} jobs/s/core)")
    if speedup_meaningful:
        print(f"speedup {speedup:.2f}x on {cpus} CPU(s); outputs"
              f" byte-identical: {identical}")
    else:
        print(f"single-CPU host: speedup recorded as null (measured ratio"
              f" {speedup:.2f}x is scheduler noise); outputs"
              f" byte-identical: {identical}")
    write_doc(out, doc)
    return 0 if identical else 1


# --- idle-skip fast path ------------------------------------------------------

def run_figure_timed(cli, fig, out_dir, fast_forward):
    report = out_dir / "report.json"
    cmd = [cli, fig, "--jobs", "1", "--quiet",
           "--out", str(out_dir), "--report", str(report)]
    if not fast_forward:
        cmd.append("--no-fast-forward")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(report.read_text())[0]["wall_sec"]


def fastpath_mode(cli, bench, label):
    out = ROOT / "BENCH_fastpath.json"
    for path, target in ((cli, "aetr_sweep"), (bench, "fastpath_throughput")):
        if not pathlib.Path(path).exists():
            print(f"error: binary not found: {path}", file=sys.stderr)
            print(f"build it first: cmake --build build --target {target}",
                  file=sys.stderr)
            return 1
    cpus = os.cpu_count() or 1

    # Per-rate single-thread throughput, fast path on vs off, with the
    # bench's own bit-identity check. Everything here runs on one thread,
    # so events/sec IS events/sec-per-core.
    proc = subprocess.run([bench], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {bench} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    series = json.loads(proc.stdout)

    figures = {}
    csvs_identical = True
    with tempfile.TemporaryDirectory(prefix="aetr_fastpath_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        for fig in ("fig6", "fig8"):
            on_dir = tmp / fig / "on"
            off_dir = tmp / fig / "off"
            on_dir.mkdir(parents=True)
            off_dir.mkdir(parents=True)
            wall_on = run_figure_timed(cli, fig, on_dir, True)
            wall_off = run_figure_timed(cli, fig, off_dir, False)
            if wall_on is None or wall_off is None:
                return 1
            same = all(
                (on_dir / f).read_bytes() == (off_dir / f).read_bytes()
                for f in (f"aetr_{fig}.csv", f"aetr_{fig}_points.csv")
            )
            csvs_identical = csvs_identical and same
            figures[fig] = {
                "wall_sec_on": round(wall_on, 4),
                "wall_sec_off": round(wall_off, 4),
                "speedup": round(wall_off / wall_on, 3)
                           if wall_on > 0 else 0.0,
                "outputs_identical": same,
            }

    peak_evps = max(e["events_per_sec_on"] for e in series)
    best_speedup = max(e["speedup"] for e in series)
    series_identical = all(e["identical"] for e in series)
    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "peak_events_per_sec_per_core":
            old.get("peak_events_per_sec_per_core"),
        "best_rate_speedup": old.get("best_rate_speedup"),
        "fig8_speedup": old.get("figures", {}).get("fig8", {})
                           .get("speedup"),
        "outputs_identical": old.get("outputs_identical"),
        "cpu_count": old.get("cpu_count"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "cpu_count": cpus,
        "threads": 1,
        "rates": series,
        "peak_events_per_sec_per_core": round(peak_evps),
        "best_rate_speedup": round(best_speedup, 3),
        "figures": figures,
        "figure_notes": {
            "fig6": "analytic error model, no DES pipeline: the fast path"
                    " does not engage, so ~1x is expected here",
            "fig8": "DES pipeline end to end; the paper-facing speedup",
        },
        "target_speedup": 10.0,
        "bottlenecks": {
            "note": "Measured speedup is below the 10x target because the"
                    " reference path was never idle-dominated at the"
                    " paper's operating rates: after idle-skip removes the"
                    " clock-tree ticking, per-event work dominates both"
                    " paths. gprof on the remaining fast-path run:",
            "profile_pct": {
                "mcu_decode_one": 30,
                "harvest_callback": 20,
                "sampling_schedule_measure": 15,
                "word_fn_callback_chain": 20,
            },
            "word_fn_note": "the per-word callbacks are now"
                            " util::InplaceFunction (inline storage, no"
                            " allocator round-trip; see"
                            " tests/test_word_path_alloc.cpp) — the history"
                            " entries record the std::function-era numbers",
        },
        "outputs_identical": csvs_identical and series_identical,
        "history": history,
    }
    for e in series:
        print(f"rate {e['rate_hz']:>10g} evt/s   on {e['wall_sec_on']:8.4f} s"
              f"  off {e['wall_sec_off']:8.4f} s"
              f"  {e['events_per_sec_on']:>12.0f} evt/s/core"
              f"  speedup {e['speedup']:.2f}x")
    for fig, f in figures.items():
        print(f"{fig}  --jobs 1  on {f['wall_sec_on']:8.3f} s"
              f"  off {f['wall_sec_off']:8.3f} s"
              f"  speedup {f['speedup']:.2f}x"
              f"  byte-identical: {f['outputs_identical']}")
    print(f"peak {peak_evps:.0f} evt/s/core on {cpus} CPU(s);"
          f" all outputs byte-identical:"
          f" {csvs_identical and series_identical}")
    write_doc(out, doc)
    return 0 if csvs_identical and series_identical else 1


# --- fault-injection sweep ----------------------------------------------------

def run_faults_sweep(cli, jobs, out_dir):
    report = out_dir / "report.json"
    proc = subprocess.run(
        [cli, "faults", "--quick", "--jobs", str(jobs), "--quiet",
         "--out", str(out_dir), "--report", str(report)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"error: aetr-sweep faults --jobs {jobs} exited "
              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    entry = json.loads(report.read_text())[0]
    entry.pop("per_job", None)
    return entry


def read_faults_series(csv_path):
    """aetr_faults_points.csv -> list of per-level dicts."""
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def faults_mode(cli, label):
    out = ROOT / "BENCH_faults.json"
    if not pathlib.Path(cli).exists():
        print(f"error: aetr-sweep binary not found: {cli}", file=sys.stderr)
        print("build it first: cmake --build build --target aetr_sweep",
              file=sys.stderr)
        return 1
    cpus = os.cpu_count() or 1
    jobs_n = max(4, cpus)
    with tempfile.TemporaryDirectory(prefix="aetr_faults_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "j1").mkdir()
        (tmp / "jN").mkdir()
        serial = run_faults_sweep(cli, 1, tmp / "j1")
        parallel = run_faults_sweep(cli, jobs_n, tmp / "jN")
        if serial is None or parallel is None:
            return 1
        identical = all(
            (tmp / "j1" / f).read_bytes() == (tmp / "jN" / f).read_bytes()
            for f in ("aetr_faults.csv", "aetr_faults_points.csv")
        )
        series = read_faults_series(tmp / "j1" / "aetr_faults_points.csv")

    # The grid's zero level is the fault-free baseline, so the serial wall
    # clock split per level approximates the injection overhead; the
    # meaningful signals recorded here are the determinism bit and the
    # degradation trajectory.
    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "wall_sec_serial": old.get("serial", {}).get("wall_sec"),
        "wall_sec_parallel": old.get("parallel", {}).get("wall_sec"),
        "outputs_identical": old.get("outputs_identical"),
        "series": old.get("series"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "figure": "faults --quick",
        "cpu_count": cpus,
        "serial": serial,
        "parallel": parallel,
        "outputs_identical": identical,
        "series": series,
        "history": history,
    }
    for row in series:
        print(f"level {row['level']:>8s}  err {row['err']:>10s}"
              f"  delivered {row['delivered']:>10s}"
              f"  injected {row['injected']:>8s}"
              f"  recovered {row['recovered']:>8s}")
    print(f"faults --quick  --jobs 1 {serial['wall_sec']:8.3f} s |"
          f" --jobs {jobs_n} {parallel['wall_sec']:8.3f} s |"
          f" outputs byte-identical: {identical}")
    write_doc(out, doc)
    return 0 if identical else 1


# --- sensor fleet -------------------------------------------------------------

FLEET_ARTIFACTS = ("aetr_fleet.csv", "aetr_fleet_points.csv",
                   "aetr_fleet_summary.json")


def run_fleet_sweep(cli, jobs, out_dir):
    proc = subprocess.run(
        [cli, "fleet", "--quick", "--jobs", str(jobs), "--quiet",
         "--out", str(out_dir)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"error: aetr-sweep fleet --jobs {jobs} exited "
              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return True


def fleet_mode(cli, bench, label):
    out = ROOT / "BENCH_fleet.json"
    for path, target in ((cli, "aetr_sweep"), (bench, "fleet_throughput")):
        if not pathlib.Path(path).exists():
            print(f"error: binary not found: {path}", file=sys.stderr)
            print(f"build it first: cmake --build build --target {target}",
                  file=sys.stderr)
            return 1
    cpus = os.cpu_count() or 1
    jobs_n = max(4, cpus)

    # Per-N wall clock + figure-of-merit series from the bench (node phase
    # parallelised over all cores; per-core numbers stay host-comparable).
    proc = subprocess.run([bench], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {bench} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    bench_doc = json.loads(proc.stdout)
    series = bench_doc["series"]
    saturated = bench_doc["saturated"]

    # Determinism gate: the quick fleet figure must be byte-identical for
    # any --jobs value, summary JSON included.
    with tempfile.TemporaryDirectory(prefix="aetr_fleet_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "j1").mkdir()
        (tmp / "jN").mkdir()
        if run_fleet_sweep(cli, 1, tmp / "j1") is None:
            return 1
        if run_fleet_sweep(cli, jobs_n, tmp / "jN") is None:
            return 1
        identical = all(
            (tmp / "j1" / f).read_bytes() == (tmp / "jN" / f).read_bytes()
            for f in FLEET_ARTIFACTS
        )

    peak_evps_core = max(e["events_per_sec_per_core"] for e in series)
    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "peak_events_per_sec_per_core":
            old.get("peak_events_per_sec_per_core"),
        "series": [
            {k: e.get(k) for k in ("nodes", "events_per_sec_per_core",
                                   "energy_per_delivered_uj",
                                   "delivered_fraction")}
            for e in old.get("series", [])
        ],
        "saturated": old.get("saturated"),
        "outputs_identical": old.get("outputs_identical"),
        "cpu_count": old.get("cpu_count"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "cpu_count": cpus,
        "series": series,
        "saturated": saturated,
        "peak_events_per_sec_per_core": round(peak_evps_core),
        "outputs_identical": identical,
        "history": history,
    }
    for e in series:
        print(f"N {e['nodes']:>5d}  {e['events_per_sec']:>12.0f} evt/s"
              f"  ({e['events_per_sec_per_core']:>10.0f} /core)"
              f"  delivered {e['delivered_fraction']:.4f}"
              f"  {e['energy_per_delivered_uj']:.3f} uJ/evt"
              f"  p99 {e['latency_p99_ms']:.3f} ms")
    print(f"saturated N {saturated['nodes']}: run_fleet"
          f" {saturated['wall_sec_jobs1']:.3f} s at --jobs 1,"
          f" {saturated['wall_sec_jobsN']:.3f} s at --jobs"
          f" {saturated['jobs_n']} ({saturated['jobs_speedup']:.2f}x);"
          f" link phase {saturated['link_sec_jobs1']:.3f} s /"
          f" {saturated['link_sec_jobsN']:.3f} s")
    print(f"peak {peak_evps_core:.0f} evt/s/core on {cpus} CPU(s);"
          f" fleet --quick outputs byte-identical across --jobs:"
          f" {identical}")
    write_doc(out, doc)
    return 0 if identical else 1


# --- design-space optimizer ---------------------------------------------------

OPT_ARTIFACTS = ("aetr_opt_trials.csv", "aetr_opt_pareto.csv",
                 "aetr_opt_pareto.svg", "aetr_opt_summary.json",
                 "aetr_opt_checkpoint.csv")


def run_opt(cli, out_dir, jobs, extra=()):
    cmd = [cli, "opt", "--quick", "--jobs", str(jobs), "--quiet",
           "--out", str(out_dir)] + list(extra)
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - t0
    # --interrupt-after exits 4 by design.
    expected = {0, 4} if "--interrupt-after" in extra else {0}
    if proc.returncode not in expected:
        print(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
              f"{proc.stderr}", file=sys.stderr)
        return None
    return wall


def opt_mode(cli, label):
    out = ROOT / "BENCH_opt.json"
    if not pathlib.Path(cli).exists():
        print(f"error: aetr-sweep binary not found: {cli}", file=sys.stderr)
        print("build it first: cmake --build build --target aetr_sweep",
              file=sys.stderr)
        return 1
    cpus = os.cpu_count() or 1
    jobs_n = max(4, cpus)
    with tempfile.TemporaryDirectory(prefix="aetr_opt_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        for d in ("j1", "jN", "resumed"):
            (tmp / d).mkdir()
        serial = run_opt(cli, tmp / "j1", 1)
        parallel = run_opt(cli, tmp / "jN", jobs_n)
        if serial is None or parallel is None:
            return 1
        identical = all(
            (tmp / "j1" / f).read_bytes() == (tmp / "jN" / f).read_bytes()
            for f in OPT_ARTIFACTS
        )
        # Interrupt the search mid-flight, then resume it; the final
        # artifacts must match the uninterrupted run byte for byte.
        if run_opt(cli, tmp / "resumed", jobs_n,
                   ("--interrupt-after", "10")) is None:
            return 1
        if run_opt(cli, tmp / "resumed", jobs_n, ("--resume",)) is None:
            return 1
        resume_identical = all(
            (tmp / "j1" / f).read_bytes()
            == (tmp / "resumed" / f).read_bytes()
            for f in OPT_ARTIFACTS
        )
        summary = json.loads((tmp / "j1" / "aetr_opt_summary.json")
                             .read_text())

    baseline = summary["baseline"]["energy_per_event_j"]
    best = summary["best_energy_per_event_j"]
    saving_pct = (baseline - best) / baseline * 100.0 if baseline else 0.0
    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "wall_sec_serial": old.get("wall_sec_serial"),
        "wall_sec_parallel": old.get("wall_sec_parallel"),
        "best_energy_per_event_j": old.get("best_energy_per_event_j"),
        "baseline_energy_per_event_j":
            old.get("baseline_energy_per_event_j"),
        "energy_saving_pct": old.get("energy_saving_pct"),
        "dominated_baseline": old.get("dominated_baseline"),
        "outputs_identical": old.get("outputs_identical"),
        "resume_identical": old.get("resume_identical"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "figure": "opt --quick",
        "cpu_count": cpus,
        "wall_sec_serial": round(serial, 4),
        "wall_sec_parallel": round(parallel, 4),
        "strategy": summary["strategy"],
        "budget": summary["budget"],
        "trials": summary["trials"],
        "front_size": len(summary["front"]),
        "hypervolume": summary["hypervolume"],
        "baseline_energy_per_event_j": baseline,
        "best_energy_per_event_j": best,
        "energy_saving_pct": round(saving_pct, 2),
        "dominated_baseline": summary["dominated_baseline"],
        "outputs_identical": identical,
        "resume_identical": resume_identical,
        "history": history,
    }
    print(f"opt --quick  --jobs 1 {serial:8.3f} s |"
          f" --jobs {jobs_n} {parallel:8.3f} s")
    print(f"energy/event: default {baseline:.4g} J -> best {best:.4g} J"
          f"  ({saving_pct:+.1f}%)")
    print(f"front dominates default: {summary['dominated_baseline']} |"
          f" outputs byte-identical: {identical} |"
          f" interrupted+resume identical: {resume_identical}")
    write_doc(out, doc)
    ok = (identical and resume_identical
          and summary["dominated_baseline"])
    return 0 if ok else 1


# --- hot-path profiler --------------------------------------------------------

def profile_mode(bench, label):
    out = ROOT / "BENCH_profile.json"
    if not pathlib.Path(bench).exists():
        print(f"error: profile bench binary not found: {bench}",
              file=sys.stderr)
        print("build it first: cmake --build build --target profile_hotpath",
              file=sys.stderr)
        return 1
    # AETR_PROFILE would also work; the bench toggles the profiler itself so
    # the disabled-run zero-cost self-check can run first in-process.
    proc = subprocess.run([bench], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {bench} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    run = json.loads(proc.stdout)

    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "wall_sec_off": old.get("wall_sec_off"),
        "profiling_overhead_pct": old.get("profiling_overhead_pct"),
        "site_frac": {
            s.get("site"): s.get("frac")
            for s in old.get("profile", {}).get("sites", [])
        },
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "figure": "profile_hotpath",
        "cpu_count": os.cpu_count() or 1,
        "rate_hz": run["rate_hz"],
        "events": run["events"],
        "wall_sec_off": run["wall_sec_off"],
        "wall_sec_on": run["wall_sec_on"],
        "profiling_overhead_pct": run["profiling_overhead_pct"],
        "profile": run["profile"],
        "history": history,
    }
    total_ns = run["profile"]["total_ns"]
    for site in run["profile"]["sites"]:
        print(f"{site['site']:>18s}  {site['calls']:>10d} calls"
              f"  {site['ns'] / 1e6:>10.3f} ms  {site['frac'] * 100:5.1f}%")
    print(f"profiled {total_ns / 1e6:.3f} ms across "
          f"{len(run['profile']['sites'])} sites; profiler overhead "
          f"{run['profiling_overhead_pct']:+.1f}% "
          f"({run['wall_sec_off']:.3f} s -> {run['wall_sec_on']:.3f} s)")
    write_doc(out, doc)
    return 0


# --- streaming service (aetr-serve) -------------------------------------------

SERVE_EVENTS = 100_000
SERVE_RATE_HZ = 100_000
SERVE_SNAPSHOT_INTERVAL_SEC = 0.1


def run_serve(binary, argv):
    proc = subprocess.run([binary] + argv, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: aetr-serve {' '.join(argv)} exited "
              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return None
    return True


def serve_mode(binary, label):
    out = ROOT / "BENCH_serve.json"
    if not pathlib.Path(binary).exists():
        print(f"error: aetr-serve binary not found: {binary}", file=sys.stderr)
        print("build it first: cmake --build build --target aetr_serve",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="aetr_serve_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        stream = tmp / "stream.trace"
        if run_serve(binary, ["gen", "--out", str(stream),
                              "--events", str(SERVE_EVENTS),
                              "--rate-hz", str(SERVE_RATE_HZ),
                              "--seed", "7"]) is None:
            return 1
        # Pure ingest throughput with per-event history dropped: the
        # steady-state RSS ceiling an endless service run sits at.
        if run_serve(binary, ["run", "--in", str(stream),
                              "--out-dir", str(tmp / "ingest"),
                              "--no-history",
                              "--stats-json", str(tmp / "ingest.json")
                              ]) is None:
            return 1
        ingest = json.loads((tmp / "ingest.json").read_text())
        # Snapshotting run: periodic snapshots on the simulated clock,
        # then a resume from the last snapshot — the resumed summary must
        # match the snapshotting run's byte for byte (the kill-and-resume
        # determinism contract; CI exercises the SIGKILL variant).
        snap_args = ["run", "--in", str(stream),
                     "--snapshot", str(tmp / "state.snap"),
                     "--snapshot-interval-sec",
                     str(SERVE_SNAPSHOT_INTERVAL_SEC)]
        if run_serve(binary, snap_args + [
                "--out-dir", str(tmp / "snap"),
                "--stats-json", str(tmp / "snap.json")]) is None:
            return 1
        snap = json.loads((tmp / "snap.json").read_text())
        if run_serve(binary, snap_args + [
                "--out-dir", str(tmp / "resumed"), "--resume",
                "--stats-json", str(tmp / "resumed.json")]) is None:
            return 1
        resumed = json.loads((tmp / "resumed.json").read_text())
        resume_identical = ((tmp / "snap" / "summary.txt").read_bytes()
                            == (tmp / "resumed" / "summary.txt").read_bytes())

    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "events_per_sec": old.get("ingest", {}).get("events_per_sec"),
        "max_rss_kb_no_history":
            old.get("ingest", {}).get("max_rss_kb_no_history"),
        "snapshot_sec_mean": old.get("snapshot", {}).get("sec_mean"),
        "restore_sec": old.get("restore_sec"),
        "resume_identical": old.get("resume_identical"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "cpu_count": os.cpu_count() or 1,
        "events": SERVE_EVENTS,
        "rate_hz": SERVE_RATE_HZ,
        "ingest": {
            "wall_sec": round(ingest["ingest_sec"], 4),
            "events_per_sec": round(ingest["events_per_sec"]),
            "max_rss_kb_no_history": ingest["max_rss_kb"],
        },
        "snapshot": {
            "interval_sec": SERVE_SNAPSHOT_INTERVAL_SEC,
            "count": snap["snapshots"],
            "sec_total": round(snap["snapshot_sec_total"], 5),
            "sec_mean": round(snap["snapshot_sec_mean"], 6),
            "max_rss_kb": snap["max_rss_kb"],
        },
        "restore_sec": round(resumed["restore_sec"], 6),
        "resume_identical": resume_identical,
        "history": history,
    }
    print(f"ingest {SERVE_EVENTS} events"
          f"        {ingest['ingest_sec']:8.3f} s"
          f"  ({ingest['events_per_sec']:>12.0f} evt/s,"
          f" RSS {ingest['max_rss_kb']} kB with --no-history)")
    print(f"snapshots x{snap['snapshots']:<3d}"
          f"               {snap['snapshot_sec_mean'] * 1e3:8.3f} ms mean"
          f"  ({snap['snapshot_sec_total']:.4f} s total)")
    print(f"restore                    "
          f"{resumed['restore_sec'] * 1e3:8.3f} ms;"
          f" resumed summary byte-identical: {resume_identical}")
    write_doc(out, doc)
    return 0 if resume_identical else 1


# --- framed socket transport (aetr::net) --------------------------------------

NET_EVENTS = 20_000
NET_RATE_HZ = 50e3


def net_mode(bench, serve, label):
    """BENCH_net.json: codec + loopback ingest throughput from the
    net_throughput bench, plus the socket-vs-batch summary byte-identity
    gate driven through the aetr-serve listen/send CLI."""
    out = ROOT / "BENCH_net.json"
    for path, target in ((bench, "net_throughput"), (serve, "aetr_serve")):
        if not pathlib.Path(path).exists():
            print(f"error: binary not found: {path}", file=sys.stderr)
            print(f"build it first: cmake --build build --target {target}",
                  file=sys.stderr)
            return 1

    proc = subprocess.run([bench], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {bench} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    series = json.loads(proc.stdout)
    codec = next(e for e in series if e["bench"] == "codec")
    ingest = [e for e in series if e["bench"] == "ingest"]

    # Determinism gate: one session streamed over a Unix socket must yield
    # a summary byte-identical to the batch `aetr-serve run` of the same
    # stream (tests/test_net_server asserts the same for concurrent
    # sessions and TCP; CI adds the SIGKILL/resume variant).
    with tempfile.TemporaryDirectory(prefix="aetr_net_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        stream = tmp / "stream.trace"
        sock = tmp / "gw.sock"
        if run_serve(serve, ["gen", "--out", str(stream),
                             "--events", str(NET_EVENTS),
                             "--rate-hz", str(NET_RATE_HZ),
                             "--seed", "7"]) is None:
            return 1
        if run_serve(serve, ["run", "--in", str(stream),
                             "--out-dir", str(tmp / "batch")]) is None:
            return 1
        gateway = subprocess.Popen(
            [serve, "listen", "--uds", str(sock),
             "--out-dir", str(tmp / "gw"), "--exit-after-sessions", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        try:
            sent = None
            for _ in range(200):  # wait for the socket to come up
                sent = subprocess.run(
                    [serve, "send", "--in", str(stream), "--uds", str(sock),
                     "--name", "bench"],
                    capture_output=True, text=True)
                if sent.returncode == 0 or gateway.poll() is not None:
                    break
                time.sleep(0.05)
            if sent is None or sent.returncode != 0:
                print(f"error: aetr-serve send failed:\n"
                      f"{sent.stderr if sent else ''}", file=sys.stderr)
                return 1
        finally:
            try:
                gateway.wait(timeout=30)
            except subprocess.TimeoutExpired:
                gateway.kill()
                gateway.wait()
                print("error: gateway did not exit after the session",
                      file=sys.stderr)
                return 1
        socket_identical = ((tmp / "batch" / "summary.txt").read_bytes()
                            == (tmp / "gw" / "summary-bench.txt").read_bytes())

    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "codec_events_per_sec": old.get("codec", {}).get("events_per_sec"),
        "ingest_events_per_sec_1":
            (old.get("ingest", [{}])[0] or {}).get("events_per_sec_total"),
        "socket_identical": old.get("socket_identical"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "cpu_count": os.cpu_count() or 1,
        "codec": {
            "events_per_sec": round(codec["events_per_sec"]),
            "wire_bytes_per_event": codec["wire_bytes_per_event"],
        },
        "ingest": [
            {
                "sessions": e["sessions"],
                "events_per_sec_total": round(e["events_per_sec_total"]),
                "events_per_sec_per_session":
                    round(e["events_per_sec_per_session"]),
            }
            for e in ingest
        ],
        "socket_identical": socket_identical,
        "history": history,
    }
    print(f"codec                      "
          f"{codec['events_per_sec']:>12.0f} evt/s"
          f"  ({codec['wire_bytes_per_event']:.2f} wire B/evt)")
    for e in ingest:
        print(f"ingest x{e['sessions']:<2d} sessions       "
              f"{e['events_per_sec_total']:>12.0f} evt/s total"
              f"  ({e['events_per_sec_per_session']:>10.0f} /session)")
    print(f"socket-vs-batch summary byte-identical: {socket_identical}")
    write_doc(out, doc)
    return 0 if socket_identical else 1


# --- BENCH_*.json structural validation ---------------------------------------

def check_json_shape(value, path, errors, depth=0):
    """Every value must be a JSON scalar, list, or dict — anything else
    means a mode wrote something json.dumps coerced unexpectedly."""
    if depth > 12:
        errors.append(f"{path}: nesting deeper than 12 levels")
        return
    if value is None or isinstance(value, (bool, int, float, str)):
        return
    if isinstance(value, list):
        for i, v in enumerate(value):
            check_json_shape(v, f"{path}[{i}]", errors, depth + 1)
        return
    if isinstance(value, dict):
        for k, v in value.items():
            if not isinstance(k, str):
                errors.append(f"{path}: non-string key {k!r}")
            check_json_shape(v, f"{path}.{k}", errors, depth + 1)
        return
    errors.append(f"{path}: unexpected type {type(value).__name__}")


def validate_one(path):
    """Structural checks shared by every BENCH_*.json; returns error list."""
    errors = []
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path.name}: unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict):
        return [f"{path.name}: top level is {type(doc).__name__}, not object"]
    for key in ("label", "date"):
        if not isinstance(doc.get(key), str):
            errors.append(f"{path.name}: missing or non-string '{key}'")
    history = doc.get("history")
    if not isinstance(history, list):
        errors.append(f"{path.name}: missing or non-list 'history'")
    else:
        for i, entry in enumerate(history):
            if not isinstance(entry, dict):
                errors.append(
                    f"{path.name}: history[{i}] is not an object")
            elif not isinstance(entry.get("label"), str):
                errors.append(
                    f"{path.name}: history[{i}] missing string 'label'")
    check_json_shape(doc, path.name, errors)
    return errors


def validate_mode(paths):
    if paths:
        files = [pathlib.Path(p) for p in paths]
    else:
        files = sorted(ROOT.glob("BENCH_*.json"))
    if not files:
        print("validate: no BENCH_*.json files found", file=sys.stderr)
        return 1
    failures = 0
    for f in files:
        errors = validate_one(f)
        if errors:
            failures += 1
            for e in errors:
                print(f"FAIL {e}", file=sys.stderr)
        else:
            doc = json.loads(f.read_text())
            print(f"ok   {f.name}  ({len(doc.get('history', []))} history"
                  f" entries)")
    if failures:
        print(f"validate: {failures}/{len(files)} files failed",
              file=sys.stderr)
    return 1 if failures else 0


# --- telemetry overhead -------------------------------------------------------

def timed_quick_sweep(cli, out_dir, telemetry, repetitions=5):
    """Best-of-N wall time of `aetr-sweep fig8 --quick`, via --report."""
    best = None
    for rep in range(repetitions):
        rep_dir = out_dir / f"rep{rep}"
        rep_dir.mkdir()
        report = rep_dir / "report.json"
        cmd = [cli, "fig8", "--quick", "--jobs", "1", "--quiet",
               "--out", str(rep_dir), "--report", str(report)]
        if telemetry:
            cmd += ["--trace", "--metrics"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"error: {' '.join(cmd[1:])} exited {proc.returncode}:\n"
                  f"{proc.stderr}", file=sys.stderr)
            return None
        wall = json.loads(report.read_text())[0]["wall_sec"]
        best = wall if best is None else min(best, wall)
    return best


def telemetry_mode(cli, cli_stripped, label):
    out = ROOT / "BENCH_telemetry.json"
    if not pathlib.Path(cli).exists():
        print(f"error: aetr-sweep binary not found: {cli}", file=sys.stderr)
        print("build it first: cmake --build build --target aetr_sweep",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="aetr_telemetry_bench_") as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "off").mkdir()
        (tmp / "on").mkdir()
        idle = timed_quick_sweep(cli, tmp / "off", telemetry=False)
        recording = timed_quick_sweep(cli, tmp / "on", telemetry=True)
        if idle is None or recording is None:
            return 1
        wrote_artifacts = any(
            (tmp / "on" / "rep0").glob("aetr_fig8_j*_trace.json"))
        stripped = None
        if cli_stripped:
            (tmp / "stripped").mkdir()
            stripped = timed_quick_sweep(cli_stripped, tmp / "stripped",
                                         telemetry=False)
            if stripped is None:
                return 1

    recording_pct = ((recording - idle) / idle * 100.0 if idle > 0 else 0.0)
    instrumentation_pct = None
    if stripped is not None and stripped > 0:
        instrumentation_pct = (idle - stripped) / stripped * 100.0
    history = load_history(out, lambda old: {
        "label": old.get("label", ""),
        "date": old.get("date", ""),
        "wall_sec_idle": old.get("wall_sec_idle"),
        "wall_sec_recording": old.get("wall_sec_recording"),
        "wall_sec_stripped": old.get("wall_sec_stripped"),
        "instrumentation_overhead_pct":
            old.get("instrumentation_overhead_pct"),
        "recording_overhead_pct": old.get("recording_overhead_pct"),
    })
    doc = {
        "label": label,
        "date": time.strftime("%Y-%m-%d %H:%M:%S"),
        "figure": "fig8 --quick",
        "wall_sec_idle": round(idle, 4),
        "wall_sec_recording": round(recording, 4),
        "wall_sec_stripped":
            round(stripped, 4) if stripped is not None else None,
        "instrumentation_overhead_pct":
            round(instrumentation_pct, 2)
            if instrumentation_pct is not None else None,
        "instrumentation_target_pct": 3.0,
        "recording_overhead_pct": round(recording_pct, 2),
        "artifacts_written": wrote_artifacts,
        "history": history,
    }
    print(f"fig8 --quick  instrumented, telemetry off {idle:8.3f} s")
    print(f"fig8 --quick  --trace --metrics           {recording:8.3f} s"
          f"  (recording {recording_pct:+.1f}%; buys the artifacts:"
          f" written={wrote_artifacts})")
    if stripped is not None:
        print(f"fig8 --quick  AETR_TELEMETRY=OFF build    {stripped:8.3f} s"
              f"  (instrumentation {instrumentation_pct:+.2f}%,"
              " target < 3%)")
    else:
        print("no stripped binary given: instrumentation overhead not"
              " measured (pass a -DAETR_TELEMETRY=OFF aetr-sweep as the"
              " 2nd argument)")
    write_doc(out, doc)
    # Overhead is wall-clock-noisy on shared CI hosts; only a missing
    # artifact (telemetry silently off) fails the run.
    return 0 if wrote_artifacts else 1


def main() -> int:
    args = sys.argv[1:]
    if args and args[0] == "telemetry":
        cli = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-sweep")
        # 2nd positional: a -DAETR_TELEMETRY=OFF binary if it names an
        # existing file, else the label.
        cli_stripped = None
        rest = args[2:]
        if rest and pathlib.Path(rest[0]).exists():
            cli_stripped = rest[0]
            rest = rest[1:]
        label = rest[0] if rest else ""
        return telemetry_mode(cli, cli_stripped, label)
    if args and args[0] == "fastpath":
        cli = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-sweep")
        bench = args[2] if len(args) > 2 else str(
            ROOT / "build" / "bench" / "fastpath_throughput")
        label = args[3] if len(args) > 3 else ""
        return fastpath_mode(cli, bench, label)
    if args and args[0] == "fleet":
        cli = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-sweep")
        bench = args[2] if len(args) > 2 else str(
            ROOT / "build" / "bench" / "fleet_throughput")
        label = args[3] if len(args) > 3 else ""
        return fleet_mode(cli, bench, label)
    if args and args[0] == "profile":
        bench = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "profile_hotpath")
        label = args[2] if len(args) > 2 else ""
        return profile_mode(bench, label)
    if args and args[0] == "serve":
        binary = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-serve")
        label = args[2] if len(args) > 2 else ""
        return serve_mode(binary, label)
    if args and args[0] == "net":
        bench = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "net_throughput")
        serve = args[2] if len(args) > 2 else str(
            ROOT / "build" / "bench" / "aetr-serve")
        label = args[3] if len(args) > 3 else ""
        return net_mode(bench, serve, label)
    if args and args[0] == "validate":
        return validate_mode(args[1:])
    if args and args[0] == "opt":
        cli = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-sweep")
        label = args[2] if len(args) > 2 else ""
        return opt_mode(cli, label)
    if args and args[0] == "faults":
        cli = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-sweep")
        label = args[2] if len(args) > 2 else ""
        return faults_mode(cli, label)
    if args and args[0] == "runtime":
        cli = args[1] if len(args) > 1 else str(
            ROOT / "build" / "bench" / "aetr-sweep")
        label = args[2] if len(args) > 2 else ""
        return runtime_mode(cli, label)
    bench = args[0] if args else str(
        ROOT / "build" / "bench" / "micro_kernels")
    label = args[1] if len(args) > 1 else ""
    return scheduler_mode(bench, label)


if __name__ == "__main__":
    sys.exit(main())
