// Hot-path breakdown of run_scenario() under the scoped sampling profiler
// (util/profiler.hpp): one full DES run with the MCU attached exercises all
// four instrumented sites (mcu decode, latency harvest, schedule measure,
// I2S word path). Prints a benchmark record fragment (record.hpp) for
// `tools/bench_report.py profile`: per-site calls, ns and share of the
// summed site time, plus the profiler's overhead.
//
// Gates: a run with the profiler disabled must leave every counter at zero
// (the zero-cost contract), and the enabled run must record calls at every
// site — a silent zero means an instrumentation point got lost.
#include <chrono>
#include <cstdio>
#include <string>

#include "core/scenario.hpp"
#include "gen/sources.hpp"
#include "record.hpp"
#include "util/profiler.hpp"

namespace {

using aetr::Time;
using aetr::util::ProfSite;

double run_once(const aetr::core::ScenarioConfig& sc,
                const aetr::aer::EventStream& events) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = aetr::core::run_scenario(sc, events);
  const auto t1 = std::chrono::steady_clock::now();
  (void)r;
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  constexpr double kRate = 5e4;       // the paper's mid-rate sweet spot
  constexpr std::size_t kEvents = 20000;

  aetr::core::ScenarioConfig sc;
  sc.interface.front_end.keep_records = false;
  sc.interface.fifo.batch_threshold = 64;
  sc.cooldown = Time::ms(2.0);
  // The profiler's clock reads force the reference event-driven path to be
  // representative; the fast path skips the very code being profiled.
  sc.fast_forward = false;
  aetr::gen::PoissonSource src{kRate, 128, 20260809};
  const auto events = aetr::gen::take(src, kEvents);

  // Zero-cost contract: with the profiler off, no site may record anything.
  aetr::util::profiler_set_enabled(false);
  aetr::util::profiler_reset();
  const double wall_off = run_once(sc, events);
  bool zero_when_off = true;
  for (std::size_t i = 0; i < aetr::util::kProfSiteCount; ++i) {
    const auto st = aetr::util::profiler_stats(static_cast<ProfSite>(i));
    zero_when_off = zero_when_off && st.calls == 0 && st.ns == 0;
  }

  aetr::util::profiler_set_enabled(true);
  const double wall_on = run_once(sc, events);
  aetr::util::profiler_set_enabled(false);

  aetr::bench::Record record;
  record.metric("wall_sec_off", wall_off);
  record.metric("wall_sec_on", wall_on);
  record.metric("profiling_overhead_pct",
                (wall_on - wall_off) / wall_off * 100.0);
  double total_ns = 0.0;
  for (std::size_t i = 0; i < aetr::util::kProfSiteCount; ++i) {
    total_ns += static_cast<double>(
        aetr::util::profiler_stats(static_cast<ProfSite>(i)).ns);
  }
  // Every site must have fired: the run decodes words (mcu_decode,
  // word_path), harvests delivery latencies (harvest) and drives the
  // sampling clock (schedule_measure).
  bool every_site_fired = true;
  for (std::size_t i = 0; i < aetr::util::kProfSiteCount; ++i) {
    const auto site = static_cast<ProfSite>(i);
    const auto st = aetr::util::profiler_stats(site);
    const std::string name = aetr::util::to_string(site);
    record.metric(name + "_calls", static_cast<double>(st.calls));
    record.metric(name + "_ns", static_cast<double>(st.ns));
    record.metric(name + "_frac", static_cast<double>(st.ns) / total_ns);
    every_site_fired = every_site_fired && st.calls != 0;
  }
  record.gate("zero_cost_when_off", zero_when_off);
  record.gate("every_site_fired", every_site_fired);
  return record.print();
}
