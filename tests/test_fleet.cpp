// aetr::fleet — the determinism contract (results are a pure function of
// FleetConfig, independent of --jobs), the N=1 bit-identity against a plain
// run_scenario() run, the shared-uplink contention/arbitration semantics,
// the per-node energy budget, and the config_io round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "fleet/fleet.hpp"
#include "fleet/fleet_io.hpp"
#include "runtime/seed.hpp"
#include "sweeps/figures.hpp"

namespace aetr::fleet {
namespace {

FleetConfig small_fleet() {
  FleetConfig cfg;
  cfg.base.interface.fifo.batch_threshold = 16;
  cfg.base.interface.front_end.keep_records = false;
  cfg.nodes = 8;
  cfg.rate_hz = 30e3;
  cfg.events_per_node = 120;
  cfg.seed = 2026;
  return cfg;
}

/// Every NodeResult and GatewayResult field plus the fleet totals, one
/// record per line; %.17g round-trips each double exactly.
std::string describe(const FleetResult& r) {
  std::string text;
  char buf[512];
  for (const NodeResult& n : r.nodes) {
    std::snprintf(buf, sizeof buf,
                  "node %zu %" PRIu64 " %.17g %.17g %.17g %.17g %.17g %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %d\n",
                  n.node_id, n.seed, n.rate_hz, n.energy_j, n.average_power_w,
                  n.sim_end_sec, n.err_weighted_rel, n.events_in, n.decoded,
                  n.delivered, n.dropped_link, n.dropped_dead,
                  n.fifo_overflows, n.faults_injected, n.faults_recovered,
                  n.budget_exhausted ? 1 : 0);
    text += buf;
  }
  for (const GatewayResult& g : r.gateways) {
    std::snprintf(buf, sizeof buf,
                  "gateway %zu %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %.17g %.17g\n",
                  g.gateway_id, g.offered, g.delivered, g.dropped_link,
                  g.dropped_dead, g.busy_sec, g.span_sec);
    text += buf;
  }
  std::snprintf(buf, sizeof buf,
                "fleet %.17g %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                " %" PRIu64 " %.17g %.17g %.17g\n",
                r.total_energy_j, r.events_in_total, r.decoded_total,
                r.delivered_total, r.dropped_link_total, r.dropped_dead_total,
                r.latency_p50_sec, r.latency_p99_sec, r.latency_p999_sec);
  return text + buf;
}

/// FNV-1a over describe(): pins a whole FleetResult in one integer.
std::uint64_t digest(const FleetResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : describe(r)) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return h;
}

FleetResult run_with_jobs(const FleetConfig& cfg, std::size_t jobs) {
  FleetOptions options;
  options.jobs = jobs;
  return run_fleet(cfg, options);
}

/// A fleet whose uplink is contended, so arbitration decides who gets
/// through and the link order matters.
FleetConfig contended_fleet() {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 24;
  cfg.rate_spread = 0.3;
  cfg.fault_level = 0.02;
  cfg.link.bandwidth_words_per_sec = 2e5;
  cfg.link.queue_words = 48;
  return cfg;
}

/// The budget that kills the costlier half of `cfg`'s nodes mid-run: the
/// median node energy of an unlimited run.
double median_node_energy(const FleetConfig& cfg) {
  const FleetResult r = run_with_jobs(cfg, 1);
  std::vector<double> e;
  for (const NodeResult& n : r.nodes) e.push_back(n.energy_j);
  std::sort(e.begin(), e.end());
  return e[e.size() / 2];
}

std::size_t exhausted_nodes(const FleetResult& r) {
  return static_cast<std::size_t>(
      std::count_if(r.nodes.begin(), r.nodes.end(),
                    [](const NodeResult& n) { return n.budget_exhausted; }));
}

TEST(FleetConfig, ValidateCatchesInconsistencies) {
  EXPECT_NO_THROW(small_fleet().validate());
  {
    auto c = small_fleet();
    c.nodes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    // Uplink words carry 32-bit node ids: a larger fleet would silently
    // misattribute words.
    auto c = small_fleet();
    c.nodes = std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
    try {
      c.validate();
      FAIL() << "expected a node-count error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("32-bit node ids"),
                std::string::npos)
          << e.what();
    }
  }
  {
    auto c = small_fleet();
    c.events_per_node =
        std::size_t{std::numeric_limits<std::uint32_t>::max()} + 1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.gateways = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.link.bandwidth_words_per_sec = 0.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.link.queue_words = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.rate_spread = 1.0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    c.base.attach_mcu = false;
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
  {
    auto c = small_fleet();
    telemetry::SessionOptions tel;
    tel.metrics = true;
    c.base.telemetry = core::TelemetryChoice::owned(tel);
    EXPECT_THROW(c.validate(), std::invalid_argument);
  }
}

TEST(FleetConfig, DumpLoadDumpIsByteIdentical) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 77;
  cfg.gateways = 3;
  cfg.rate_spread = 0.25;
  cfg.fault_level = 0.01;
  cfg.node_energy_budget_j = 0.125;
  cfg.link.bandwidth_words_per_sec = 5e5;
  cfg.link.queue_words = 512;
  cfg.link.arbitration = Arbitration::kRoundRobin;
  cfg.base.interface.clock.theta_div = 32;
  const std::string once = dump_fleet(cfg);
  std::istringstream is{once};
  const FleetConfig loaded = load_fleet(is);
  EXPECT_EQ(once, dump_fleet(loaded));
  EXPECT_EQ(loaded.nodes, 77u);
  EXPECT_EQ(loaded.gateways, 3u);
  EXPECT_EQ(loaded.link.arbitration, Arbitration::kRoundRobin);
  EXPECT_EQ(loaded.base.interface.clock.theta_div, 32u);
}

TEST(FleetConfig, UnknownKeySuggestsAcrossFleetAndScenarioKeys) {
  FleetConfig cfg;
  try {
    apply_fleet_key(cfg, "fleet.nodez", "4");
    FAIL() << "expected unknown-key error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("fleet.nodes"), std::string::npos)
        << e.what();
  }
  // Scenario keys fall through to the base scenario.
  apply_fleet_key(cfg, "clock.theta_div", "16");
  EXPECT_EQ(cfg.base.interface.clock.theta_div, 16u);
}

TEST(Fleet, N1NodeIsBitIdenticalToPlainRunScenario) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 1;
  cfg.rate_spread = 0.2;   // the heterogeneity draw must replay too
  cfg.fault_level = 0.01;  // and the per-node scaled fault plan
  const FleetResult fleet = run_fleet(cfg);
  ASSERT_EQ(fleet.nodes.size(), 1u);

  const auto plain =
      core::run_scenario(node_scenario(cfg, 0), node_stream(cfg, 0));
  const NodeResult& node = fleet.nodes[0];
  EXPECT_EQ(node.seed, runtime::derive_seed(cfg.seed, 0));
  EXPECT_EQ(node.average_power_w, plain.average_power_w);  // bitwise
  EXPECT_EQ(node.sim_end_sec, plain.sim_end.to_sec());
  EXPECT_EQ(node.energy_j, plain.average_power_w * plain.sim_end.to_sec());
  EXPECT_EQ(node.err_weighted_rel, plain.error.weighted_rel_error());
  EXPECT_EQ(node.events_in, plain.events_in);
  EXPECT_EQ(node.decoded, plain.decoded.size());
  EXPECT_EQ(node.fifo_overflows, plain.fifo_overflows);
  EXPECT_EQ(node.faults_injected, plain.faults.injected_total());
  // The default uplink is uncontended at one node: everything decoded
  // arrives, nothing drops.
  EXPECT_EQ(node.delivered, node.decoded);
  EXPECT_EQ(node.dropped_link, 0u);
}

TEST(Fleet, ResultIsIdenticalForAnyJobsValue) {
  // Every field, for every thread count: the link merge splits each
  // gateway's words into time partitions whose number follows --jobs.
  const double budget = median_node_energy(contended_fleet());
  for (const Arbitration arb :
       {Arbitration::kFifo, Arbitration::kRoundRobin}) {
    for (const std::size_t gateways : {1u, 3u}) {
      for (const double budget_j : {0.0, budget}) {
        FleetConfig cfg = contended_fleet();
        cfg.link.arbitration = arb;
        cfg.gateways = gateways;
        cfg.node_energy_budget_j = budget_j;
        const FleetResult r = run_with_jobs(cfg, 1);
        EXPECT_GT(r.dropped_link_total, 0u);  // arbitration decides
        if (budget_j > 0.0) {  // the budget kills some nodes, not all
          EXPECT_GT(exhausted_nodes(r), 0u);
          EXPECT_LT(exhausted_nodes(r), cfg.nodes);
        }
        const std::string serial = describe(r);
        for (const std::size_t jobs : {2u, 3u, 4u}) {
          EXPECT_EQ(serial, describe(run_with_jobs(cfg, jobs)))
              << to_string(arb) << ", " << gateways << " gateway(s), budget "
              << budget_j << " J, jobs " << jobs;
        }
      }
    }
  }
}

TEST(Fleet, DegeneratePartitionsMatchTheSerialRun) {
  // More gateways than nodes: gateways 3..4 get no runs at all.
  FleetConfig sparse = contended_fleet();
  sparse.nodes = 3;
  sparse.gateways = 5;
  // A budget so small that every word is dead: no gateway has anything to
  // merge.
  FleetConfig starved = contended_fleet();
  starved.node_energy_budget_j = 1e-15;
  // One node: a single run, so every partition holds one slice or none.
  FleetConfig single = contended_fleet();
  single.nodes = 1;
  for (const FleetConfig& cfg : {sparse, starved, single}) {
    const FleetResult serial = run_with_jobs(cfg, 1);
    EXPECT_EQ(describe(serial), describe(run_with_jobs(cfg, 4)))
        << cfg.nodes << " node(s), " << cfg.gateways << " gateway(s)";
  }
  const FleetResult r = run_with_jobs(starved, 4);
  EXPECT_EQ(r.delivered_total, 0u);
  EXPECT_EQ(r.dropped_dead_total, r.decoded_total);
  EXPECT_EQ(r.latency_p50_sec, 0.0);
  const FleetResult s = run_with_jobs(sparse, 4);
  EXPECT_EQ(s.gateways[4].offered, 0u);
  EXPECT_GT(s.gateways[0].offered, 0u);
}

TEST(Fleet, LinkOrderMatchesPinnedGlobalSortDigests) {
  // These digests were computed from a build whose link replay sorted all
  // of a gateway's words at once with std::sort(offer_order). They pin the
  // merged replay to that order, not merely to itself.
  FleetConfig fifo = contended_fleet();
  fifo.gateways = 2;
  FleetConfig rr = contended_fleet();
  rr.link.arbitration = Arbitration::kRoundRobin;
  rr.gateways = 3;
  rr.node_energy_budget_j = 1.4e-5;  // about half the nodes die mid-run
  const FleetResult r = run_with_jobs(rr, 4);
  ASSERT_GT(exhausted_nodes(r), 0u);
  ASSERT_LT(exhausted_nodes(r), rr.nodes);
  EXPECT_EQ(digest(run_with_jobs(fifo, 4)), 0xa03c64a9b3d80aa2ull);
  EXPECT_EQ(digest(r), 0xfa92594e6942cfd2ull);
}

TEST(Fleet, HeterogeneousRatesSpreadAroundTheMean) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 64;
  cfg.rate_spread = 0.2;
  double lo = 1e300, hi = 0.0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    const double r = node_rate_hz(cfg, i);
    EXPECT_GE(r, cfg.rate_hz * 0.8);
    EXPECT_LT(r, cfg.rate_hz * 1.2);
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  EXPECT_GT(hi - lo, cfg.rate_hz * 0.1);  // actually spread, not constant
  cfg.rate_spread = 0.0;
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    EXPECT_EQ(node_rate_hz(cfg, i), cfg.rate_hz);  // exact at spread 0
  }
}

TEST(Fleet, SaturatedLinkDropsAndStretchesTheTail) {
  FleetConfig contended = small_fleet();
  contended.nodes = 16;
  contended.link.bandwidth_words_per_sec = 5e4;  // 16 x 30k >> 50k words/s
  contended.link.queue_words = 64;
  const FleetResult r = run_fleet(contended);

  FleetConfig free_link = contended;
  free_link.link.bandwidth_words_per_sec = 1e8;
  const FleetResult f = run_fleet(free_link);

  EXPECT_GT(r.dropped_link_total, 0u);
  EXPECT_LT(r.delivered_fraction(), f.delivered_fraction());
  EXPECT_GT(r.latency_p99_sec, f.latency_p99_sec);
  EXPECT_GT(r.gateways[0].utilization(), 0.9);  // pegged uplink
  EXPECT_EQ(r.gateways[0].offered,
            r.gateways[0].delivered + r.gateways[0].dropped_link);
  // Conservation: every decoded word is delivered, queue-dropped, or dead.
  EXPECT_EQ(r.decoded_total,
            r.delivered_total + r.dropped_link_total + r.dropped_dead_total);
}

TEST(Fleet, RoundRobinSharesTheLinkMoreEvenlyThanFifo) {
  // One slow node against fifteen fast ones on a saturated uplink: FIFO
  // serves in arrival order (the flood wins slots proportionally), while
  // round-robin guarantees the slow node a turn whenever it has a word
  // buffered. Its delivered fraction must not get worse under RR.
  FleetConfig cfg = small_fleet();
  cfg.nodes = 16;
  cfg.rate_spread = 0.5;
  cfg.link.bandwidth_words_per_sec = 1e5;
  cfg.link.queue_words = 32;
  cfg.link.arbitration = Arbitration::kFifo;
  const FleetResult fifo = run_fleet(cfg);
  cfg.link.arbitration = Arbitration::kRoundRobin;
  const FleetResult rr = run_fleet(cfg);

  // Both policies conserve words and deliver the same totals-or-less under
  // identical offered load; the per-node split is what changes.
  EXPECT_EQ(fifo.decoded_total, rr.decoded_total);
  std::size_t slowest = 0;
  for (std::size_t i = 1; i < cfg.nodes; ++i) {
    if (rr.nodes[i].rate_hz < rr.nodes[slowest].rate_hz) slowest = i;
  }
  EXPECT_GE(rr.nodes[slowest].delivered_fraction(),
            fifo.nodes[slowest].delivered_fraction());
}

TEST(Fleet, EnergyBudgetKillsNodesAndDropsTheirLateWords) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 4;
  cfg.events_per_node = 400;
  const FleetResult unlimited = run_fleet(cfg);
  // Budget half of the cheapest node's spend: every node dies mid-run.
  double min_energy = 1e300;
  for (const auto& n : unlimited.nodes) {
    min_energy = std::min(min_energy, n.energy_j);
  }
  cfg.node_energy_budget_j = min_energy / 2.0;
  const FleetResult capped = run_fleet(cfg);
  for (const auto& n : capped.nodes) {
    EXPECT_TRUE(n.budget_exhausted) << "node " << n.node_id;
    EXPECT_EQ(n.energy_j, cfg.node_energy_budget_j);
    EXPECT_GT(n.dropped_dead, 0u) << "node " << n.node_id;
  }
  EXPECT_GT(capped.dropped_dead_total, 0u);
  EXPECT_LT(capped.delivered_fraction(), unlimited.delivered_fraction());
  EXPECT_LT(capped.total_energy_j, unlimited.total_energy_j);
}

TEST(Fleet, GatewaysPartitionTheFleet) {
  FleetConfig cfg = small_fleet();
  cfg.nodes = 8;
  cfg.gateways = 2;
  const FleetResult r = run_fleet(cfg);
  ASSERT_EQ(r.gateways.size(), 2u);
  EXPECT_GT(r.gateways[0].offered, 0u);
  EXPECT_GT(r.gateways[1].offered, 0u);
  EXPECT_EQ(r.gateways[0].offered + r.gateways[1].offered + 0u,
            r.decoded_total - r.dropped_dead_total);
  EXPECT_GT(r.gateways[0].utilization(), 0.0);
  EXPECT_GT(r.gateways[1].utilization(), 0.0);
}

TEST(Fleet, MetricsRegistryCarriesTheNodeEnergyHistogram) {
  FleetConfig cfg = small_fleet();
  const FleetResult r = run_fleet(cfg);
  const auto names = r.metrics.names();
  EXPECT_NE(std::find(names.begin(), names.end(), "fleet.total_energy_j"),
            names.end());
  ASSERT_EQ(r.metrics.snapshots().size(), 1u);
  ASSERT_FALSE(r.metrics.histograms().empty());
  const auto& [hist_name, hist] = r.metrics.histograms().front();
  EXPECT_EQ(hist_name, "fleet.node_energy_j");
  EXPECT_EQ(hist.total(), static_cast<double>(cfg.nodes));
}

TEST(FleetFigure, QuickRunWritesIdenticalFilesForAnyJobs) {
  const auto run_to = [](const std::string& dir, std::size_t jobs) {
    sweeps::FigureOptions fo;
    fo.quick = true;
    fo.jobs = jobs;
    fo.out_dir = dir;
    return sweeps::run_fleet_figure(fo);
  };
  const std::string d1 = ::testing::TempDir() + "fleet_j1";
  const std::string d2 = ::testing::TempDir() + "fleet_j4";
  const auto r1 = run_to(d1, 1);
  const auto r2 = run_to(d2, 4);
  const auto slurp = [](const std::string& path) {
    std::ifstream f{path};
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  for (const char* name :
       {"/aetr_fleet.csv", "/aetr_fleet_points.csv",
        "/aetr_fleet_summary.json"}) {
    const std::string a = slurp(d1 + name);
    const std::string b = slurp(d2 + name);
    ASSERT_FALSE(a.empty()) << name;
    EXPECT_EQ(a, b) << name << " differs between --jobs 1 and --jobs 4";
  }
  EXPECT_TRUE(r1.checks.empty());  // quick mode skips the paper checks
  EXPECT_EQ(r1.report.outputs.size(), r2.report.outputs.size());
}

}  // namespace
}  // namespace aetr::fleet
