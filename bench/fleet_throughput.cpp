// Fleet simulation throughput and energy proportionality, printed as a
// benchmark record fragment (record.hpp) for `tools/bench_report.py fleet`:
//
//   per fleet size N (suffix _nN): run_fleet()'s wall time, node-phase
//     throughput in events/sec/core (how fast the sharded node runs burn
//     through simulated events), and energy per delivered event (the
//     fleet-level figure of merit: it should fall as N grows while the
//     uplink is uncontended, then climb once contention drops deliveries).
//   saturated_*: 1024 nodes x 2000 events on a saturated uplink, timed at
//     --jobs 1 and --jobs N (all cores). End to end it is run_fleet()'s wall
//     time; at the link layer it is that wall time minus the node phase
//     (the same node jobs run through runtime::run_sweep alone).
//
// Gate: every fleet size delivers events.
#include <algorithm>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "record.hpp"
#include "runtime/sweep.hpp"
#include "util/time.hpp"

namespace {

/// 30 kHz +- 10 % per node into a 4 Mwords/s uplink, which saturates
/// between 64 and 256 nodes.
aetr::fleet::FleetConfig fleet_config(std::size_t nodes, std::size_t events) {
  aetr::fleet::FleetConfig cfg;
  cfg.base.interface.front_end.keep_records = false;
  cfg.base.interface.fifo.batch_threshold = 64;
  cfg.nodes = nodes;
  cfg.rate_hz = 30e3;
  cfg.events_per_node = events;
  cfg.rate_spread = 0.1;
  cfg.link.bandwidth_words_per_sec = 4e6;
  cfg.seed = 20260809;
  return cfg;
}

template <class Fn>
double best_wall_sec(int reps, const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    if (rep == 0 || wall < best) best = wall;
  }
  return best;
}

/// run_fleet()'s node phase on its own: one run_scenario job per node.
void node_phase(const aetr::fleet::FleetConfig& cfg, std::size_t jobs) {
  aetr::runtime::SweepGrid grid;
  std::vector<double> ids(cfg.nodes);
  std::iota(ids.begin(), ids.end(), 0.0);
  grid.axis("node", ids);
  aetr::runtime::SweepOptions so;
  so.jobs = jobs;
  so.seed = cfg.seed;
  (void)aetr::runtime::run_sweep(
      grid, [&cfg](const aetr::runtime::JobContext& ctx) {
        const auto node = static_cast<std::size_t>(ctx.point.at("node"));
        (void)aetr::core::run_scenario(aetr::fleet::node_scenario(cfg, node),
                                       aetr::fleet::node_stream(cfg, node));
        return aetr::runtime::JobOutput{};
      },
      so);
}

/// Wall time and node-phase share of the saturated fleet at one --jobs.
struct SaturatedTiming {
  double wall_sec;
  double node_sec;
  double link_sec() const { return std::max(wall_sec - node_sec, 0.0); }
};

SaturatedTiming time_saturated(const aetr::fleet::FleetConfig& cfg,
                               std::size_t jobs, int reps) {
  aetr::fleet::FleetOptions options;
  options.jobs = jobs;
  const double wall = best_wall_sec(reps, [&] {
    (void)aetr::fleet::run_fleet(cfg, options);
  });
  const double node = best_wall_sec(reps, [&] { node_phase(cfg, jobs); });
  return {wall, node};
}

}  // namespace

int main() {
  constexpr std::size_t kFleetSizes[] = {1, 8, 64, 256};
  constexpr std::size_t kEventsPerNode = 300;
  constexpr int kReps = 2;

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t cores = hw != 0u ? hw : 1u;

  aetr::bench::Record record;
  bool delivers = true;
  for (const std::size_t n : kFleetSizes) {
    const auto cfg = fleet_config(n, kEventsPerNode);

    aetr::fleet::FleetResult result;
    const double best = best_wall_sec(kReps, [&] {
      result = aetr::fleet::run_fleet(cfg);
    });

    const double events_per_sec =
        static_cast<double>(result.events_in_total) / best;
    const std::string at = "_n" + std::to_string(n);
    record.metric("wall_ms" + at, best * 1e3);
    record.metric("events_per_sec_per_core" + at,
                  events_per_sec / static_cast<double>(cores));
    record.metric("delivered_fraction" + at, result.delivered_fraction());
    record.metric("energy_per_delivered_uj" + at,
                  result.energy_per_delivered_j() * 1e6);
    record.metric("latency_p99_ms" + at, result.latency_p99_sec * 1e3);
    delivers = delivers && result.delivered_total != 0u;
  }
  record.gate("every_fleet_delivers", delivers);

  // The size of the `fleet-saturated` perfbench workload.
  const auto sat = fleet_config(1024, 2000);
  const SaturatedTiming one = time_saturated(sat, 1, kReps);
  const SaturatedTiming all = time_saturated(sat, cores, kReps);
  record.metric("saturated_jobs_n", static_cast<double>(cores));
  record.metric("saturated_wall_sec_jobs1", one.wall_sec);
  record.metric("saturated_wall_sec_jobsN", all.wall_sec);
  record.metric("saturated_link_sec_jobs1", one.link_sec());
  record.metric("saturated_link_sec_jobsN", all.link_sec());
  record.metric("saturated_events_per_sec_jobsN",
                static_cast<double>(sat.nodes * sat.events_per_node) /
                    all.wall_sec);
  record.metric("saturated_jobs_speedup", one.wall_sec / all.wall_sec);
  return record.print();
}
