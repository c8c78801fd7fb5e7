// aetr::fleet — a sharded multi-node sensor-fleet simulation.
//
// The paper demonstrates energy-proportional time-to-information for ONE
// interface feeding ONE MCU; the deployment it motivates is hundreds of
// always-listening sensors feeding shared aggregators. run_fleet()
// instantiates N independent core::ScenarioConfig interfaces — each with its
// own deterministically derived seed streams, its own per-node energy
// budget, and an optional per-node fault::FaultPlan scaled from one level —
// shards them across the aetr::runtime work-stealing pool, then replays
// every node's delivered words through a contended shared-uplink model into
// one or more gateway MCUs.
//
// Two phases, both deterministic:
//   1. Node phase (parallel). One sweep job per node; node i's randomness
//      comes only from runtime::derive_substream_seed(seed, i, stream), so
//      results are independent of --jobs and of grid indexing. Each node is
//      a plain run_scenario() — node 0 of an N=1 fleet is bit-identical to
//      a standalone run (asserted in tests/test_fleet.cpp), and the
//      idle-skip fast path stays eligible per-node.
//   2. Link phase. Every decoded event becomes one uplink word offered to
//      the node's gateway (node % gateways) at the instant the node-side
//      MCU accepted it. The gateway uplink is a single-server queue:
//      `bandwidth_words_per_sec` words drain per second, at most
//      `queue_words` words are buffered (in-service word included — the
//      same finite-buffer semantics as the node FIFO), and arbitration is
//      FIFO (global arrival order, node id breaking ties) or round-robin
//      (one word per node per turn). Words offered to a full buffer are
//      dropped, mirroring the single-node backpressure story at fleet scale.
//      Each node job hands back its words as one run ordered by accept
//      instant, so a dead node's late words are a suffix. A gateway's runs
//      are merged in parallel: the time span is cut into a few partitions
//      per thread, each partition gathers its slice of every run (found by
//      binary search) into its own range of one buffer and sorts it. The
//      partitions are disjoint in time and the word order is strict, so the
//      merged sequence is the global arrival order whatever the thread or
//      partition count. The queue walk over it stays serial.
//
// The determinism contract is the repo's signature guarantee: FleetResult
// is a pure function of FleetConfig — byte-identical for any --jobs value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "aer/event.hpp"
#include "core/scenario.hpp"
#include "obs/ledger.hpp"
#include "telemetry/telemetry.hpp"

namespace aetr::fleet {

/// How gateways pick the next buffered uplink word.
enum class Arbitration {
  kFifo,        ///< global arrival order; ties broken by node id
  kRoundRobin,  ///< one word per node per turn, ring entry in arrival order
};

/// "fifo" / "round_robin": the link.arbitration spellings.
[[nodiscard]] const char* to_string(Arbitration a);

/// The shared node->gateway uplink.
struct LinkConfig {
  /// Uplink drain rate; one decoded event = one uplink word.
  double bandwidth_words_per_sec = 2e6;
  /// Finite uplink buffer (in-service word included); offers beyond it drop.
  std::size_t queue_words = 4096;
  Arbitration arbitration = Arbitration::kFifo;
};

/// Everything a fleet run needs, in one place. config_io-style load/dump
/// lives in fleet/fleet_io.hpp; dump -> load -> dump is byte-identical.
struct FleetConfig {
  /// Per-node scenario template. Fleet nodes run headless: telemetry must
  /// be off (fleet-level metrics come from FleetResult::metrics) and
  /// attach_mcu must stay true (delivery instants feed the link model).
  core::ScenarioConfig base;
  std::size_t nodes = 64;
  std::size_t gateways = 1;
  LinkConfig link;
  /// Mean per-node event rate; per-node rates spread around it (below).
  double rate_hz = 30e3;
  std::size_t events_per_node = 1000;
  /// Per-node heterogeneity: node i's rate is rate_hz * (1 + spread * u_i)
  /// with u_i drawn uniformly from [-1, 1) from the node's own seed stream.
  /// 0 = homogeneous fleet.
  double rate_spread = 0.0;
  /// fault::scaled_plan level applied per node (each node gets its own
  /// fault seed stream); 0 = no fault plumbing at all.
  double fault_level = 0.0;
  /// Per-node energy budget in joules; 0 = unlimited. A node that exhausts
  /// its budget goes dark: words it would have offered after the exhaustion
  /// instant (budget / average power — the constant-power approximation the
  /// node model justifies) are dropped as dead, not offered to the link.
  double node_energy_budget_j = 0.0;
  /// Health roll-up: run every node with its energy ledger on and aggregate
  /// per-node ledgers into FleetResult::health (fleet EnergyLedger with
  /// drop-cause attribution + percentile summaries). Post-hoc arithmetic
  /// only — off leaves FleetResult bit-identical to a build without it.
  bool health = false;
  /// Root seed; every per-node stream derives from (seed, node, stream).
  std::uint64_t seed = 1;

  /// Throws std::invalid_argument naming the key on the first value
  /// outside its declared domain (fleet_schema()), then on the first
  /// cross-key inconsistency; ends with base.validate().
  void validate() const;
};

/// One node's scalar outcome (phase 1 plus its share of the link phase).
struct NodeResult {
  std::size_t node_id{0};
  std::uint64_t seed{0};       ///< runtime::derive_seed(config.seed, node_id)
  double rate_hz{0.0};         ///< heterogeneity-scaled event rate
  double energy_j{0.0};        ///< average_power_w * sim_end_sec
  double average_power_w{0.0};
  double sim_end_sec{0.0};
  double err_weighted_rel{0.0};
  std::uint64_t events_in{0};
  std::uint64_t decoded{0};    ///< events the node-side MCU reconstructed
  std::uint64_t delivered{0};  ///< words that made it through the uplink
  std::uint64_t dropped_link{0};  ///< lost arbitration, uplink buffer full
  std::uint64_t dropped_dead{0};  ///< node's energy budget exhausted first
  std::uint64_t fifo_overflows{0};
  std::uint64_t faults_injected{0};
  std::uint64_t faults_recovered{0};
  bool budget_exhausted{false};
  /// Fraction of events the sensor emitted that reached a gateway.
  [[nodiscard]] double delivered_fraction() const {
    return events_in != 0u
               ? static_cast<double>(delivered) / static_cast<double>(events_in)
               : 1.0;
  }
};

struct GatewayResult {
  std::size_t gateway_id{0};
  std::uint64_t offered{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped_link{0};
  std::uint64_t dropped_dead{0};
  double busy_sec{0.0};  ///< delivered * (1 / bandwidth)
  double span_sec{0.0};  ///< sim start .. last uplink completion
  [[nodiscard]] double utilization() const {
    return span_sec > 0.0 ? busy_sec / span_sec : 0.0;
  }
};

/// Fleet health roll-up (FleetConfig::health): the per-node energy ledgers
/// and their aggregate. The fleet ledger's stages, states and outcome
/// counts are the exact element-wise sum of the node ledgers (asserted in
/// tests); its outcome energies are re-finalized over the aggregate counts.
struct FleetHealth {
  bool enabled{false};
  obs::EnergyLedger fleet;  ///< roll-up; outcome counts = drop-cause totals
  std::vector<obs::EnergyLedger> node_ledgers;  ///< node-id order, finalized
  // Percentile summaries over the per-node scalars (quantile = the
  // ceil(q*n)-th order statistic, same method as the latency quantiles).
  double node_energy_p50_j{0.0};
  double node_energy_p99_j{0.0};
  double node_power_p50_w{0.0};
  double node_power_p99_w{0.0};
  double delivered_frac_p50{0.0};
  double delivered_frac_min{0.0};  ///< the unhealthiest node
};

/// Everything a fleet run measures.
struct FleetResult {
  std::vector<NodeResult> nodes;       ///< node-id order
  std::vector<GatewayResult> gateways; ///< gateway-id order
  double total_energy_j{0.0};
  std::uint64_t events_in_total{0};
  std::uint64_t decoded_total{0};
  std::uint64_t delivered_total{0};
  std::uint64_t dropped_link_total{0};
  std::uint64_t dropped_dead_total{0};
  /// Fleet-wide delivery latency (event reconstruction instant -> gateway
  /// uplink completion), empirical quantiles over every delivered event.
  double latency_p50_sec{0.0};
  double latency_p99_sec{0.0};
  double latency_p999_sec{0.0};
  /// fleet.* probes plus the per-node energy histogram
  /// ("fleet.node_energy_j"), snapshotted once at the fleet's sim end.
  telemetry::MetricsRegistry metrics;
  /// Health roll-up; default-constructed (enabled == false, empty) unless
  /// FleetConfig::health asked for it.
  FleetHealth health;

  [[nodiscard]] double delivered_fraction() const {
    return events_in_total != 0u
               ? static_cast<double>(delivered_total) /
                     static_cast<double>(events_in_total)
               : 1.0;
  }
  /// The fleet-level figure of merit: every joule any node burned, divided
  /// by the events that actually reached a gateway. 0 when nothing arrived.
  [[nodiscard]] double energy_per_delivered_j() const {
    return delivered_total != 0u
               ? total_energy_j / static_cast<double>(delivered_total)
               : 0.0;
  }
};

struct FleetOptions {
  /// Worker threads for the node phase and the link merge;
  /// 0 = hardware_concurrency.
  std::size_t jobs = 0;
  /// Called after each node lands: (done, total).
  std::function<void(std::size_t, std::size_t)> progress;
};

/// Run the fleet. Output is a pure function of `config` — identical for any
/// `options.jobs`. Throws std::invalid_argument on config errors and
/// runtime::SweepError when a node run throws.
[[nodiscard]] FleetResult run_fleet(const FleetConfig& config,
                                    const FleetOptions& options = {});

// --- Deterministic per-node derivations ------------------------------------
// Exposed so tests (and the N=1 identity contract) can reconstruct exactly
// what run_fleet() hands each node without running a fleet.

/// Node `node`'s seed root: runtime::derive_seed(config.seed, node).
[[nodiscard]] std::uint64_t node_seed(const FleetConfig& config,
                                      std::size_t node);
/// Node `node`'s heterogeneity-scaled event rate.
[[nodiscard]] double node_rate_hz(const FleetConfig& config, std::size_t node);
/// Node `node`'s scenario: the base template plus its scaled fault plan.
[[nodiscard]] core::ScenarioConfig node_scenario(const FleetConfig& config,
                                                 std::size_t node);
/// Node `node`'s event stream (Poisson at node_rate_hz from its own stream).
[[nodiscard]] aer::EventStream node_stream(const FleetConfig& config,
                                           std::size_t node);

}  // namespace aetr::fleet
