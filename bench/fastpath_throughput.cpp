// Single-thread event throughput of run_scenario() with the idle-skip fast
// path on vs off, one metric pair per event rate, printed as a benchmark
// record fragment (record.hpp) for `tools/bench_report.py fastpath`.
// Gate: at every rate the fast path's result equals the reference DES's.
//
// Rates span the interface's operating regions: sparse input where the
// reference path burns almost all its time ticking the shut-down clock tree
// through idle gaps (the fast path's best case), through the paper's
// mid-rate sweet spot, up to near-saturation where both paths are dominated
// by per-event work and the fast path's margin is smallest.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fast_path.hpp"
#include "core/scenario.hpp"
#include "gen/sources.hpp"
#include "record.hpp"

namespace {

using aetr::Time;

double run_once(const aetr::core::ScenarioConfig& sc,
                const aetr::aer::EventStream& events, bool fast_forward,
                aetr::core::RunResult& result) {
  aetr::core::ScenarioConfig run = sc;
  run.fast_forward = fast_forward;
  const auto t0 = std::chrono::steady_clock::now();
  result = aetr::core::run_scenario(run, events);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  constexpr double kRates[] = {1e3, 5e4, 8e5};
  constexpr std::size_t kEvents = 20000;
  constexpr int kReps = 3;

  aetr::bench::Record record;
  bool identical_everywhere = true;
  for (const double rate : kRates) {
    aetr::core::ScenarioConfig sc;
    sc.interface.front_end.keep_records = false;  // long runs; logs unneeded
    sc.interface.fifo.batch_threshold = 64;
    sc.cooldown = Time::ms(2.0);
    aetr::gen::PoissonSource src{rate, 128, 20260809};
    const auto events = aetr::gen::take(src, kEvents);

    if (!aetr::core::fast_path_eligible(sc, /*telemetry_active=*/false)) {
      std::fprintf(stderr, "fastpath_throughput: scenario unexpectedly "
                           "ineligible for the fast path\n");
      return 1;
    }

    aetr::core::RunResult on, off;
    double best_on = 0.0, best_off = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const double w_on = run_once(sc, events, true, on);
      const double w_off = run_once(sc, events, false, off);
      if (rep == 0 || w_on < best_on) best_on = w_on;
      if (rep == 0 || w_off < best_off) best_off = w_off;
    }

    const bool identical =
        on.events_in == off.events_in && on.words_out == off.words_out &&
        on.sim_end == off.sim_end && on.batches == off.batches &&
        on.average_power_w == off.average_power_w;
    identical_everywhere = identical_everywhere && identical;
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, "_%.0fhz", rate);
    const double n = static_cast<double>(kEvents);
    record.metric(std::string{"events_per_sec_on"} + suffix, n / best_on);
    record.metric(std::string{"events_per_sec_off"} + suffix, n / best_off);
    record.metric(std::string{"speedup"} + suffix, best_off / best_on);
  }
  record.gate("fast_matches_reference", identical_everywhere);
  return record.print();
}
