// aetr layered benchmark.
//
//   aetr_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//
// NAME is serve-catchup, serve-live, sweep-fig8, fleet-saturated, or all
// (every workload, one after the other, in this one process). Each run
// sets the workload up 15 times (setup_s is the median), runs one
// warm-up round, measures rounds for S seconds, then checks every round's
// outputs. With --trace 0 it reports the end-to-end metrics; with
// --trace 1 it measures half the time untraced and half traced (the
// difference is the tracing overhead), then runs the layer probes and
// writes the spans as Chrome trace-event JSON under .bench_build/.
//
// Lines starting with '#' are for people; the last line is one JSON object
// with the keys correct, attempted, failed and metrics.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/summary.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif
#ifndef PERFBENCH_TELEMETRY
#define PERFBENCH_TELEMETRY 1
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE 0
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace aetr;

constexpr int kSetupReps = 15;
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxJobs = 4;
constexpr const char* kBuildRoot = ".bench_build/perfbench";

/// Numbers from unoptimised or instrumented builds are not recorded.
bool measurable_build(std::string& why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    why = "build type '" + type + "' is not Release or RelWithDebInfo";
    return false;
  }
#ifndef NDEBUG
  why = "assertions are compiled in (NDEBUG unset)";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why = "compiled with a sanitizer";
  return false;
#endif
  if (PERFBENCH_SANITIZE != 0) {
    why = "the library was built with a sanitizer";
    return false;
  }
  return true;
}

std::string build_record(std::size_t nproc, std::size_t jobs) {
#ifdef __clang__
  const char* compiler = "clang";
#else
  const char* compiler = "gcc";
#endif
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %zu, \"thread_cap\": %zu, \"compiler\": \"%s %s\", "
                "\"build_type\": \"%s\", \"lto\": %s, \"aetr_telemetry\": %s}",
                nproc, jobs, compiler, __VERSION__, PERFBENCH_BUILD_TYPE,
                PERFBENCH_LTO ? "true" : "false",
                PERFBENCH_TELEMETRY ? "true" : "false");
  return buf;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "serve-catchup", "serve-live", "sweep-fig8", "fleet-saturated"};
  return names;
}

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  if (cfg.workload == "serve-catchup") return make_serve_catchup(cfg);
  if (cfg.workload == "serve-live") return make_serve_live(cfg);
  if (cfg.workload == "sweep-fig8") return make_sweep_fig8(cfg);
  if (cfg.workload == "fleet-saturated") return make_fleet_saturated(cfg);
  throw std::invalid_argument("perfbench: unknown workload " + cfg.workload);
}

std::vector<Round> measure(Workload& w, Tracer& tracer, double seconds) {
  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  while (rounds.size() < kMinRounds || seconds_since(t0) < seconds) {
    rounds.push_back(w.round(tracer));
  }
  return rounds;
}

double throughput(const std::vector<Round>& rounds) {
  std::vector<double> rates;
  for (const Round& r : rounds) rates.push_back(r.items / r.wall_s);
  return median(rates);
}

struct Outcome {
  Metrics metrics;
  Checks checks;
};

Outcome run_workload(const RunConfig& cfg) {
  Outcome o;
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    w = make_workload(cfg);
    const auto t0 = Clock::now();
    w->setup();
    setup_s.push_back(seconds_since(t0));
  }
  Tracer off{false};
  (void)w->round(off);  // warm-up: caches fill, lazy set-up finishes

  if (!cfg.trace) {
    const auto rounds = measure(*w, off, cfg.seconds);
    const double rss = peak_rss_mb();
    w->verify(o.checks);
    std::vector<double> latency;
    for (const Round& r : rounds) {
      latency.insert(latency.end(), r.latency_ms.begin(), r.latency_ms.end());
    }
    o.metrics["throughput_per_s"] = {throughput(rounds), "1/s"};
    o.metrics["latency_p50_ms"] = {quantile(latency, 0.5), "ms"};
    o.metrics["latency_tail_ms"] = {quantile(latency, w->tail_quantile()), "ms"};
    o.metrics["setup_s"] = {median(setup_s), "s"};
    o.metrics["peak_rss_mb"] = {rss, "MB"};
    std::vector<double> rates;
    for (const Round& r : rounds) rates.push_back(r.items / r.wall_s);
    std::printf("# %s: %zu rounds (throughput min %.6g, median %.6g, max "
                "%.6g), %zu latency samples (tail = p%g), error_rate "
                "%llu/%llu\n",
                cfg.workload.c_str(), rounds.size(), quantile(rates, 0.0),
                median(rates), quantile(rates, 1.0), latency.size(),
                w->tail_quantile() * 100.0,
                static_cast<unsigned long long>(o.checks.failed),
                static_cast<unsigned long long>(o.checks.attempted));
    return o;
  }

  Tracer tracer{true};
  const auto plain = measure(*w, off, cfg.seconds / 2);
  const auto traced = measure(*w, tracer, cfg.seconds / 2);
  w->verify(o.checks);
  const LayerInputs in = w->layer_inputs();
  probe_serve(cfg, in.serve_streams, tracer, o.checks, o.metrics);
  probe_scenario(in.scenario, in.scenario_stream, tracer, o.checks, o.metrics);
  probe_runtime(cfg, in.sweeps, tracer, o.metrics);
  probe_fleet(cfg, in.fleet, tracer, o.checks, o.metrics);
  o.metrics["trace.overhead_pct"] = {
      (throughput(plain) / throughput(traced) - 1.0) * 100.0, "%"};
  o.metrics["trace.spans"] = {static_cast<double>(tracer.size()), "count"};
  const std::string path =
      std::string{kBuildRoot} + "/trace-" + cfg.workload + ".json";
  tracer.write_chrome_json(path);
  std::printf("# %s: spans written to %s, error_rate %llu/%llu\n",
              cfg.workload.c_str(), path.c_str(),
              static_cast<unsigned long long>(o.checks.failed),
              static_cast<unsigned long long>(o.checks.attempted));
  return o;
}

std::string json_result(const Checks& checks, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      throw std::runtime_error("perfbench: metric " + name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: aetr_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke]\n",
               why);
  std::exit(2);
}

RunConfig parse_args(int argc, char** argv) {
  RunConfig cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      cfg.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 120.0)) {
    usage("--seconds must be in (0, 120]");
  }
  return cfg;
}

}  // namespace

LayerInputs default_layer_inputs(const RunConfig& cfg) {
  LayerInputs in;
  in.serve_streams =
      serve_streams(sub_seed(cfg.seed, 300), 2, cfg.smoke ? 2000 : 20'000);
  in.scenario_stream = in.serve_streams.front();
  in.fleet = saturated_fleet(sub_seed(cfg.seed, 200), cfg.smoke ? 8 : 64,
                             cfg.smoke ? 200 : 2000);
  return in;
}

void probe_scenario(const core::ScenarioConfig& scenario,
                    const aer::EventStream& stream, Tracer& tracer,
                    Checks& checks, Metrics& out) {
  core::ScenarioConfig fast = scenario;
  fast.fast_forward = true;
  core::ScenarioConfig ref = scenario;
  ref.fast_forward = false;
  core::RunResult rf;
  core::RunResult rr;
  for (int rep = 0; rep < 3; ++rep) {
    {
      const auto sp = tracer.scope("core.run_scenario.fast");
      rf = core::run_scenario(fast, stream);
    }
    const auto sp = tracer.scope("core.run_scenario.ref");
    rr = core::run_scenario(ref, stream);
  }
  checks.op(core::run_summary_text(rf) == core::run_summary_text(rr) &&
                rf.activity.sampling_cycles == rr.activity.sampling_cycles &&
                rf.activity.wakeups == rr.activity.wakeups,
            "fast path differs from the reference DES");
  const double n = static_cast<double>(stream.size());
  const double fast_ns = median(tracer.durations("core.run_scenario.fast")) / n * 1e9;
  const double ref_ns = median(tracer.durations("core.run_scenario.ref")) / n * 1e9;
  out["core.run_scenario.fast_ns_per_evt"] = {fast_ns, "ns/evt"};
  out["core.run_scenario.ref_ns_per_evt"] = {ref_ns, "ns/evt"};
  out["core.fast_over_ref"] = {ref_ns / fast_ns, "ratio"};
  out["i2s.words_out"] = {static_cast<double>(rf.words_out), "count"};
  out["mcu.batches"] = {static_cast<double>(rf.batches), "count"};
  out["buffer.fifo_overflows"] = {static_cast<double>(rf.fifo_overflows), "count"};
  out["frontend.handshakes"] = {static_cast<double>(rf.handshakes), "count"};
  out["clockgen.sampling_cycles"] = {static_cast<double>(rf.activity.sampling_cycles), "count"};
  out["clockgen.wakeups"] = {static_cast<double>(rf.activity.wakeups), "count"};
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg = parse_args(argc, argv);
  std::string why;
  if (!measurable_build(why)) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 2;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t nproc = hw == 0 ? 1 : hw;
  cfg.jobs = std::min(kMaxJobs, nproc);
  cfg.work_dir = std::string{kBuildRoot} + "/run-" + std::to_string(::getpid());
  std::printf("# build %s\n", build_record(nproc, cfg.jobs).c_str());

  int status = 0;
  try {
    fs::create_directories(cfg.work_dir);
    std::vector<std::string> names{cfg.workload};
    if (cfg.workload == "all") names = workload_names();
    Checks all_checks;
    Metrics all_metrics;
    for (const std::string& name : names) {
      RunConfig one = cfg;
      one.workload = name;
      const Outcome o = run_workload(one);
      for (const auto& [metric, m] : o.metrics) {
        std::printf("# %-16s %-36s %14.6g %s\n", name.c_str(), metric.c_str(),
                    m.value, m.unit.c_str());
        all_metrics[names.size() == 1 ? metric : name + "/" + metric] = m;
      }
      all_checks.attempted += o.checks.attempted;
      all_checks.failed += o.checks.failed;
    }
    std::printf("%s\n", json_result(all_checks, all_metrics).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ec;
  fs::remove_all(cfg.work_dir, ec);
  return status;
}
