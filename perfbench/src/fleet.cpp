// fleet-saturated: fleet::run_fleet over 1024 nodes whose uplink delivers
// only a small share of their words. It is the one workload that runs the
// serial shared-link replay after the parallel node phase.
#include <cstdio>

#include "fleet/fleet.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace aetr;

fleet::FleetConfig workload_fleet(const RunConfig& cfg) {
  return cfg.smoke ? saturated_fleet(sub_seed(cfg.seed, 200), 16, 200)
                   : saturated_fleet(sub_seed(cfg.seed, 200), 1024, 2000);
}

fleet::FleetResult run_fleet_jobs(const fleet::FleetConfig& config,
                                  std::size_t jobs) {
  fleet::FleetOptions options;
  options.jobs = jobs;
  return fleet::run_fleet(config, options);
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const RunConfig& cfg) : cfg_{cfg} {}

  void setup() override {
    config_ = workload_fleet(cfg_);
    config_.validate();
    // Pool construction and first touch of both phases on a small fleet.
    auto warm = config_;
    warm.nodes = cfg_.smoke ? 4 : 64;
    (void)run_fleet_jobs(warm, cfg_.jobs);
  }

  Round round(Tracer& tracer) override {
    const auto t0 = Clock::now();
    fleet::FleetResult res;
    {
      const auto sp = tracer.scope("fleet.run_fleet");
      res = run_fleet_jobs(config_, cfg_.jobs);
    }
    Round r;
    r.wall_s = seconds_since(t0);
    r.items = static_cast<double>(res.events_in_total);
    r.latency_ms.push_back(r.wall_s * 1e3);
    digests_.push_back(fleet_digest(res));
    return r;
  }

  void verify(Checks& checks) override {
    const std::uint64_t pinned = fleet_digest(run_fleet_jobs(config_, 1));
    for (const std::uint64_t d : digests_) {
      checks.op(d == pinned, "fleet result differs from the jobs=1 run");
    }
  }

  /// One sample per run_fleet call, about sixty in a run.
  [[nodiscard]] double tail_quantile() const override { return 0.75; }

  LayerInputs layer_inputs() override {
    LayerInputs in = default_layer_inputs(cfg_);
    in.fleet = config_;
    in.scenario = fleet::node_scenario(config_, 0);
    in.scenario_stream = fleet::node_stream(config_, 0);
    return in;
  }

 private:
  RunConfig cfg_;
  fleet::FleetConfig config_;
  std::vector<std::uint64_t> digests_;
};

}  // namespace

fleet::FleetConfig saturated_fleet(std::uint64_t seed, std::size_t nodes,
                                   std::size_t events) {
  fleet::FleetConfig cfg;
  cfg.base.interface.front_end.keep_records = false;
  cfg.base.interface.fifo.batch_threshold = 64;
  cfg.nodes = nodes;
  cfg.events_per_node = events;
  cfg.rate_hz = 30e3;
  cfg.rate_spread = 0.1;
  cfg.link.bandwidth_words_per_sec = 4e6;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t fleet_digest(const fleet::FleetResult& r) {
  std::string text;
  char buf[512];
  for (const auto& n : r.nodes) {
    std::snprintf(buf, sizeof buf,
                  "%zu %llu %.17g %.17g %.17g %.17g %.17g %llu %llu %llu %llu "
                  "%llu %llu %llu %llu %d\n",
                  n.node_id, static_cast<unsigned long long>(n.seed), n.rate_hz,
                  n.energy_j, n.average_power_w, n.sim_end_sec,
                  n.err_weighted_rel,
                  static_cast<unsigned long long>(n.events_in),
                  static_cast<unsigned long long>(n.decoded),
                  static_cast<unsigned long long>(n.delivered),
                  static_cast<unsigned long long>(n.dropped_link),
                  static_cast<unsigned long long>(n.dropped_dead),
                  static_cast<unsigned long long>(n.fifo_overflows),
                  static_cast<unsigned long long>(n.faults_injected),
                  static_cast<unsigned long long>(n.faults_recovered),
                  n.budget_exhausted ? 1 : 0);
    text += buf;
  }
  for (const auto& g : r.gateways) {
    std::snprintf(buf, sizeof buf, "g%zu %llu %llu %llu %llu %.17g %.17g\n",
                  g.gateway_id, static_cast<unsigned long long>(g.offered),
                  static_cast<unsigned long long>(g.delivered),
                  static_cast<unsigned long long>(g.dropped_link),
                  static_cast<unsigned long long>(g.dropped_dead), g.busy_sec,
                  g.span_sec);
    text += buf;
  }
  std::snprintf(buf, sizeof buf,
                "%.17g %llu %llu %llu %llu %llu %.17g %.17g %.17g\n",
                r.total_energy_j,
                static_cast<unsigned long long>(r.events_in_total),
                static_cast<unsigned long long>(r.decoded_total),
                static_cast<unsigned long long>(r.delivered_total),
                static_cast<unsigned long long>(r.dropped_link_total),
                static_cast<unsigned long long>(r.dropped_dead_total),
                r.latency_p50_sec, r.latency_p99_sec, r.latency_p999_sec);
  text += buf;
  return fnv1a(text);
}

std::unique_ptr<Workload> make_fleet_saturated(const RunConfig& cfg) {
  return std::make_unique<FleetWorkload>(cfg);
}

void probe_fleet(const RunConfig& cfg, const fleet::FleetConfig& config,
                 Tracer& tracer, Checks& checks, Metrics& out) {
  // The node phase alone, on one thread: what run_fleet does per node.
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const auto sp = tracer.scope("fleet.node", static_cast<std::uint32_t>(i));
    aer::EventStream stream;
    {
      const auto s = tracer.scope("fleet.node_stream");
      stream = fleet::node_stream(config, i);
    }
    const auto s = tracer.scope("fleet.node_run");
    (void)core::run_scenario(fleet::node_scenario(config, i), stream);
  }
  const double node_phase = tracer.total("fleet.node");

  fleet::FleetResult serial;
  {
    const auto sp = tracer.scope("fleet.run_fleet_jobs1");
    serial = run_fleet_jobs(config, 1);
  }
  const double wall1 = tracer.total("fleet.run_fleet_jobs1");
  const std::uint64_t pinned = fleet_digest(serial);
  for (int rep = 0; rep < 3; ++rep) {
    const auto sp = tracer.scope("fleet.run_fleet_jobsN");
    checks.op(fleet_digest(run_fleet_jobs(config, cfg.jobs)) == pinned,
              "fleet result at jobs=N differs from jobs=1");
  }
  const double wall_n = median(tracer.durations("fleet.run_fleet_jobsN"));

  out["fleet.node_phase_s"] = {node_phase, "s"};
  out["fleet.serial_s"] = {wall1 - node_phase, "s"};
  out["fleet.serial_frac"] = {(wall1 - node_phase) / wall1, "ratio"};
  out["fleet.jobs_speedup"] = {wall1 / wall_n, "ratio"};
  out["fleet.delivered"] = {static_cast<double>(serial.delivered_total), "count"};
}

}  // namespace perfbench
