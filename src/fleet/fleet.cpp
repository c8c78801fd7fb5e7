#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <numeric>
#include <ranges>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fleet/fleet_io.hpp"
#include "gen/sources.hpp"
#include "runtime/seed.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "util/time.hpp"

namespace aetr::fleet {

namespace {

// Seed streams of one node, derived via derive_substream_seed(seed, node, *):
// mutually independent and collision-free across nodes of one fleet.
constexpr std::uint64_t kStreamEvents = 0;  ///< Poisson event source
constexpr std::uint64_t kStreamFaults = 1;  ///< scaled fault plan
constexpr std::uint64_t kStreamHetero = 2;  ///< rate heterogeneity draw

/// Uniform double in [0, 1) from a 64-bit mix (53 mantissa bits).
double to_unit(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Fixed prefix of a node job's `values` before the (t_event, t_accept)
/// pairs; keep in sync with pack_node()/unpack_node(). When the fleet rolls
/// up health, a fixed-size ledger tail (stage energies + state residencies)
/// rides AFTER the pairs, so the disabled layout is untouched.
constexpr std::size_t kNodeScalars = 10;
constexpr std::size_t kLedgerTail = obs::kStageCount + obs::kStateCount;

void pack_node(const core::RunResult& r, bool health,
               runtime::JobOutput& out) {
  const double sim_end_sec = r.sim_end.to_sec();
  out.values = {r.average_power_w * sim_end_sec,
                r.average_power_w,
                sim_end_sec,
                r.error.weighted_rel_error(),
                static_cast<double>(r.events_in),
                static_cast<double>(r.decoded.size()),
                static_cast<double>(r.fifo_overflows),
                static_cast<double>(r.faults.injected_total()),
                static_cast<double>(r.faults.recovered_total()),
                static_cast<double>(r.delivery_latency_sec.size())};
  // One run per node, ordered by accept instant with decode order breaking
  // ties. Harvest stamps words in order, but t_event + latency is rounded in
  // double, so the order is checked here rather than assumed.
  std::vector<std::pair<double, double>> run(r.decoded.size());
  for (std::size_t j = 0; j < run.size(); ++j) {
    const double t_event = r.decoded[j].reconstructed_time.to_sec();
    run[j] = {t_event + r.delivery_latency_sec[j], t_event};
  }
  const auto by_accept = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  if (!std::is_sorted(run.begin(), run.end(), by_accept)) {
    std::stable_sort(run.begin(), run.end(), by_accept);
  }
  out.values.reserve(kNodeScalars + 2 * run.size() +
                     (health ? kLedgerTail : 0));
  for (const auto& [t_accept, t_event] : run) {
    out.values.push_back(t_event);
    out.values.push_back(t_accept);
  }
  if (health) {
    for (const double e : r.ledger.stage_energy_j) out.values.push_back(e);
    for (const double s : r.ledger.state_sec) out.values.push_back(s);
  }
}

/// Rebuild a node's ledger from its packed tail (outcome counts are filled
/// in after the link phase has decided every event's fate).
obs::EnergyLedger unpack_ledger(const std::vector<double>& v,
                                std::size_t pairs) {
  obs::EnergyLedger led;
  led.enabled = true;
  led.window_sec = v[2];  // node sim_end, pre-truncation
  const std::size_t tail = kNodeScalars + 2 * pairs;
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    led.stage_energy_j[s] = v[tail + s];
  }
  for (std::size_t s = 0; s < obs::kStateCount; ++s) {
    led.state_sec[s] = v[tail + obs::kStageCount + s];
  }
  return led;
}

NodeResult unpack_node(const FleetConfig& cfg, std::size_t node,
                       const std::vector<double>& v) {
  NodeResult n;
  n.node_id = node;
  n.seed = node_seed(cfg, node);
  n.rate_hz = node_rate_hz(cfg, node);
  n.energy_j = v[0];
  n.average_power_w = v[1];
  n.sim_end_sec = v[2];
  n.err_weighted_rel = v[3];
  n.events_in = static_cast<std::uint64_t>(v[4]);
  n.decoded = static_cast<std::uint64_t>(v[5]);
  n.fifo_overflows = static_cast<std::uint64_t>(v[6]);
  n.faults_injected = static_cast<std::uint64_t>(v[7]);
  n.faults_recovered = static_cast<std::uint64_t>(v[8]);
  return n;
}

/// One uplink word: offered to the gateway at `t_offer` (the node-side MCU
/// accept instant), carrying an event reconstructed at `t_event`.
struct Offer {
  double t_offer;
  double t_event;
  std::uint32_t node;
  std::uint32_t seq;
};

bool offer_order(const Offer& a, const Offer& b) {
  if (a.t_offer != b.t_offer) return a.t_offer < b.t_offer;
  if (a.node != b.node) return a.node < b.node;
  return a.seq < b.seq;
}

/// The live prefix of one node's packed (t_event, t_accept) pairs, ordered
/// by accept instant (pack_node).
struct Run {
  const double* pairs;
  std::size_t live;
  std::uint32_t node;

  [[nodiscard]] double t_accept(std::size_t k) const {
    return pairs[2 * k + 1];
  }
  /// Number of leading words whose accept instant satisfies `before`.
  template <class Pred>
  [[nodiscard]] std::size_t count_while(std::size_t n, Pred before) const {
    const auto ks = std::views::iota(std::size_t{0}, n);
    const auto it = std::ranges::partition_point(
        ks, [&](std::size_t k) { return before(t_accept(k)); });
    return static_cast<std::size_t>(it - ks.begin());
  }
};

/// Time partitions per pool thread: enough slack that uneven partitions
/// still keep every thread busy.
constexpr std::size_t kPartitionsPerThread = 4;

/// Merges one gateway's runs into `out` (sized to their total live words)
/// in offer_order. [t_lo, t_hi] is cut into equal time partitions, a few
/// per pool thread. Each partition finds its slice of every run by binary
/// search; the words before its first cut give its offset in `out`. It
/// gathers its slices there in node order and sorts them. Partitions hold
/// disjoint time ranges and offer_order is a strict total order, so `out`
/// is the global sort for any partition or thread count.
void merge_runs(const std::vector<Run>& runs, runtime::ThreadPool& pool,
                std::span<Offer> out) {
  if (out.empty()) return;
  double t_lo = std::numeric_limits<double>::infinity();
  double t_hi = -t_lo;
  for (const Run& r : runs) {
    t_lo = std::min(t_lo, r.t_accept(0));
    t_hi = std::max(t_hi, r.t_accept(r.live - 1));
  }
  const std::size_t parts = pool.thread_count() * kPartitionsPerThread;
  // Words of `run` accepted before partition p starts; p == parts is past
  // the end.
  const auto before = [&](const Run& run, std::size_t p) {
    if (p == parts) return run.live;
    const double cut = t_lo + (t_hi - t_lo) * static_cast<double>(p) /
                                  static_cast<double>(parts);
    return run.count_while(run.live, [cut](double t) { return t < cut; });
  };
  for (std::size_t p = 0; p < parts; ++p) {
    pool.submit([&, p] {
      std::vector<std::pair<std::size_t, std::size_t>> slices(runs.size());
      std::size_t start = 0;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        slices[r] = {before(runs[r], p), before(runs[r], p + 1)};
        start += slices[r].first;
      }
      Offer* const first = out.data() + start;
      Offer* o = first;
      for (std::size_t r = 0; r < runs.size(); ++r) {
        for (std::size_t k = slices[r].first; k < slices[r].second; ++k) {
          *o++ = Offer{runs[r].t_accept(k), runs[r].pairs[2 * k], runs[r].node,
                       static_cast<std::uint32_t>(k)};
        }
      }
      std::sort(first, o, &offer_order);
    });
  }
  pool.wait_idle();
}

/// Single-server finite-buffer gateway uplink. Walks the time-sorted offers
/// once; O(1) amortised per word for both policies. Buffer occupancy counts
/// the in-service word until its completion instant; at equal instants the
/// link frees a slot before a new arrival claims one.
struct GatewaySim {
  std::span<const Offer> offers;
  double service_sec;
  std::size_t queue_words;
  Arbitration arbitration;
  std::vector<NodeResult>& nodes;
  GatewayResult& gw;
  std::vector<double>& latencies;  ///< fleet-wide, appended per delivery

  void run() {
    gw.offered += offers.size();
    if (offers.empty() || service_sec <= 0.0) return;
    std::deque<std::size_t> fifo;               // kFifo: one global queue
    std::vector<std::deque<std::size_t>> per_node;  // kRoundRobin
    std::deque<std::uint32_t> ring;             // kRoundRobin: active nodes
    if (arbitration == Arbitration::kRoundRobin) {
      std::uint32_t max_node = 0;
      for (const Offer& o : offers) max_node = std::max(max_node, o.node);
      per_node.resize(static_cast<std::size_t>(max_node) + 1);
    }
    std::size_t next = 0;    // first not-yet-ingested offer
    std::size_t queued = 0;  // buffered words, in-service included
    double now = 0.0;
    const auto admit = [&](std::size_t i) {
      if (queued >= queue_words) {
        ++gw.dropped_link;
        ++nodes[offers[i].node].dropped_link;
        return;
      }
      ++queued;
      if (arbitration == Arbitration::kFifo) {
        fifo.push_back(i);
      } else {
        auto& q = per_node[offers[i].node];
        if (q.empty()) ring.push_back(offers[i].node);
        q.push_back(i);
      }
    };
    while (true) {
      const bool queue_empty =
          arbitration == Arbitration::kFifo ? fifo.empty() : ring.empty();
      if (queue_empty) {
        if (next == offers.size()) break;
        now = std::max(now, offers[next].t_offer);
      }
      while (next < offers.size() && offers[next].t_offer <= now) {
        admit(next++);
      }
      if (arbitration == Arbitration::kFifo ? fifo.empty() : ring.empty()) {
        continue;  // every offer at `now` was dropped; jump to the next
      }
      std::size_t pick;
      if (arbitration == Arbitration::kFifo) {
        pick = fifo.front();
        fifo.pop_front();
      } else {
        const std::uint32_t node = ring.front();
        ring.pop_front();
        auto& q = per_node[node];
        pick = q.front();
        q.pop_front();
        if (!q.empty()) ring.push_back(node);  // one word per turn
      }
      const double done = now + service_sec;
      // Arrivals strictly before the completion still see the in-service
      // word occupying its buffer slot.
      while (next < offers.size() && offers[next].t_offer < done) {
        admit(next++);
      }
      --queued;
      const Offer& o = offers[pick];
      ++gw.delivered;
      ++nodes[o.node].delivered;
      latencies.push_back(done - o.t_event);
      gw.busy_sec += service_sec;
      gw.span_sec = done;
      now = done;
    }
  }
};

/// Empirical quantile (deterministic index method: the ceil(q*n)-th order
/// statistic), selected in place; `sample` is left partially reordered.
double quantile(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  const auto idx = std::min(static_cast<std::size_t>(std::max(rank, 1.0)) - 1,
                            sample.size() - 1);
  const auto nth = sample.begin() + static_cast<std::ptrdiff_t>(idx);
  std::nth_element(sample.begin(), nth, sample.end());
  return *nth;
}

}  // namespace

const char* to_string(Arbitration a) {
  return a == Arbitration::kFifo ? "fifo" : "round_robin";
}

void FleetConfig::validate() const {
  fleet_schema().check(*this);
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string{"fleet: "} + what);
  };
  if (!base.attach_mcu) {
    fail("base scenario must attach the MCU (delivery instants feed the "
         "uplink model)");
  }
  // Nodes run headless: fleet-level metrics come from FleetResult::metrics.
  // Owned-but-all-off options (what a dump -> load round-trip produces) are
  // equivalent to off and stay legal.
  if (base.telemetry.mode() == core::TelemetryChoice::Mode::kBorrowed ||
      (base.telemetry.mode() == core::TelemetryChoice::Mode::kOwned &&
       base.telemetry.options().any())) {
    fail("base scenario telemetry must be off (nodes run headless; use "
         "FleetResult::metrics)");
  }
  base.validate();
}

std::uint64_t node_seed(const FleetConfig& config, std::size_t node) {
  return runtime::derive_seed(config.seed, node);
}

double node_rate_hz(const FleetConfig& config, std::size_t node) {
  const double u = to_unit(runtime::derive_substream_seed(config.seed, node,
                                                          kStreamHetero));
  return config.rate_hz * (1.0 + config.rate_spread * (2.0 * u - 1.0));
}

core::ScenarioConfig node_scenario(const FleetConfig& config,
                                   std::size_t node) {
  core::ScenarioConfig sc = config.base;
  if (config.fault_level > 0.0) {
    sc.faults = fault::scaled_plan(
        config.fault_level,
        runtime::derive_substream_seed(config.seed, node, kStreamFaults));
  }
  // The ledger is post-hoc arithmetic: turning it on cannot change the
  // node's RunResult, only annotate it.
  if (config.health) sc.energy_ledger = true;
  return sc;
}

aer::EventStream node_stream(const FleetConfig& config, std::size_t node) {
  gen::PoissonSource src{
      node_rate_hz(config, node), 128,
      runtime::derive_substream_seed(config.seed, node, kStreamEvents),
      Time::ns(130.0)};
  return gen::take(src, config.events_per_node);
}

FleetResult run_fleet(const FleetConfig& config, const FleetOptions& options) {
  config.validate();

  // Phase 1: one sweep job per node. Every node draws randomness only from
  // its derive_substream_seed streams, never from ctx.seed directly — the
  // helpers above ARE the contract, so tests can replay any node standalone.
  runtime::SweepGrid grid;
  std::vector<double> ids(config.nodes);
  std::iota(ids.begin(), ids.end(), 0.0);
  grid.axis("node", ids);
  runtime::SweepOptions so;
  so.seed = config.seed;
  so.progress = options.progress;
  const auto job = [&config](const runtime::JobContext& ctx) {
    const auto node = static_cast<std::size_t>(ctx.point.at("node"));
    const auto r = core::run_scenario(node_scenario(config, node),
                                      node_stream(config, node));
    runtime::JobOutput out;
    pack_node(r, config.health, out);
    return out;
  };
  // One pool serves both parallel phases (node runs, link merge).
  runtime::ThreadPool pool{options.jobs};
  const auto report = runtime::run_sweep(grid, job, pool, so);

  // Phase 2: the shared-link replay. Nodes are booked serially in node-id
  // order; each gateway's runs are merged in parallel by time partition,
  // then its queue is walked serially.
  FleetResult res;
  res.nodes.reserve(config.nodes);
  res.gateways.resize(config.gateways);
  for (std::size_t g = 0; g < config.gateways; ++g) {
    res.gateways[g].gateway_id = g;
  }
  std::vector<std::vector<Run>> runs(config.gateways);
  std::vector<std::size_t> live_words(config.gateways, 0);
  double max_sim_end = 0.0;
  if (config.health) res.health.node_ledgers.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    const auto& v = report.outputs[i].values;
    NodeResult n = unpack_node(config, i, v);
    const std::size_t g = i % config.gateways;
    const auto pairs = static_cast<std::size_t>(v[kNodeScalars - 1]);
    obs::EnergyLedger led;
    if (config.health) led = unpack_ledger(v, pairs);
    // Constant-power budget model: the node goes dark the instant its
    // accumulated energy crosses the budget.
    double death_sec = std::numeric_limits<double>::infinity();
    if (config.node_energy_budget_j > 0.0 && n.average_power_w > 0.0) {
      death_sec = config.node_energy_budget_j / n.average_power_w;
      if (death_sec < n.sim_end_sec) {
        n.budget_exhausted = true;
        n.energy_j = config.node_energy_budget_j;  // it stopped burning there
        // Same constant-power truncation for the ledger: every stage and
        // residency shrinks by the fraction of the window the node lived.
        if (config.health) obs::scale(led, death_sec / n.sim_end_sec);
        n.sim_end_sec = death_sec;
      }
    }
    // The run is ordered by accept instant, so the words accepted after
    // the node went dark are a suffix.
    Run run{v.data() + kNodeScalars, 0, static_cast<std::uint32_t>(i)};
    run.live = run.count_while(pairs, [death_sec](double t) {
      return t <= death_sec;
    });
    n.dropped_dead = pairs - run.live;
    res.gateways[g].dropped_dead += n.dropped_dead;
    if (run.live != 0) {
      runs[g].push_back(run);
      live_words[g] += run.live;
    }
    res.total_energy_j += n.energy_j;
    res.events_in_total += n.events_in;
    res.decoded_total += n.decoded;
    res.dropped_dead_total += n.dropped_dead;
    max_sim_end = std::max(max_sim_end, n.sim_end_sec);
    res.nodes.push_back(n);
    if (config.health) res.health.node_ledgers.push_back(led);
  }

  std::vector<double> latencies;
  const double service_sec = 1.0 / config.link.bandwidth_words_per_sec;
  for (std::size_t g = 0; g < config.gateways; ++g) {
    // Uninitialised: every slot is written once by its partition's thread.
    const auto buffer = std::make_unique_for_overwrite<Offer[]>(live_words[g]);
    const std::span<Offer> offers{buffer.get(), live_words[g]};
    merge_runs(runs[g], pool, offers);
    GatewaySim sim{offers,             service_sec,
                   config.link.queue_words, config.link.arbitration,
                   res.nodes,          res.gateways[g],
                   latencies};
    sim.run();
    res.delivered_total += res.gateways[g].delivered;
    res.dropped_link_total += res.gateways[g].dropped_link;
    max_sim_end = std::max(max_sim_end, res.gateways[g].span_sec);
  }
  res.latency_p50_sec = quantile(latencies, 0.50);
  res.latency_p99_sec = quantile(latencies, 0.99);
  res.latency_p999_sec = quantile(latencies, 0.999);

  // Health roll-up: now that the link phase has decided every event's fate,
  // book each node's outcome counts, finalize its energy split, and sum the
  // ledgers element-wise into the fleet ledger.
  if (config.health) {
    FleetHealth& h = res.health;
    h.enabled = true;
    std::vector<double> energies, powers, fracs;
    energies.reserve(config.nodes);
    powers.reserve(config.nodes);
    fracs.reserve(config.nodes);
    for (std::size_t i = 0; i < config.nodes; ++i) {
      const NodeResult& n = res.nodes[i];
      obs::EnergyLedger& led = h.node_ledgers[i];
      using obs::Outcome;
      auto& oe = led.outcome_events;
      oe[static_cast<std::size_t>(Outcome::kDelivered)] = n.delivered;
      oe[static_cast<std::size_t>(Outcome::kBufferDropped)] =
          n.fifo_overflows;
      const std::uint64_t accounted = n.decoded + n.fifo_overflows;
      oe[static_cast<std::size_t>(Outcome::kFaultLost)] =
          n.events_in > accounted ? n.events_in - accounted : 0u;
      oe[static_cast<std::size_t>(Outcome::kLinkDropped)] = n.dropped_link;
      oe[static_cast<std::size_t>(Outcome::kBudgetDead)] = n.dropped_dead;
      led.finalize_outcomes();
      obs::accumulate(h.fleet, led);
      energies.push_back(n.energy_j);
      powers.push_back(n.average_power_w);
      fracs.push_back(n.delivered_fraction());
    }
    h.fleet.finalize_outcomes();
    h.node_energy_p50_j = quantile(energies, 0.50);
    h.node_energy_p99_j = quantile(energies, 0.99);
    h.node_power_p50_w = quantile(powers, 0.50);
    h.node_power_p99_w = quantile(powers, 0.99);
    h.delivered_frac_p50 = quantile(fracs, 0.50);
    h.delivered_frac_min = *std::min_element(fracs.begin(), fracs.end());
  }

  // Fleet-level telemetry: value-capturing probes (safe to move with the
  // result) plus the per-node energy histogram, snapshotted once at the
  // fleet's sim end.
  auto* hist =
      res.metrics.log_histogram("fleet.node_energy_j", 1e-9, 1e3, 4);
  for (const NodeResult& n : res.nodes) hist->add(n.energy_j);
  const double total_energy = res.total_energy_j;
  const double delivered = static_cast<double>(res.delivered_total);
  const double frac = res.delivered_fraction();
  const double epd = res.energy_per_delivered_j();
  const double p99_ms = res.latency_p99_sec * 1e3;
  double util_max = 0.0;
  for (const GatewayResult& g : res.gateways) {
    util_max = std::max(util_max, g.utilization());
  }
  res.metrics.probe("fleet.total_energy_j", [total_energy] {
    return total_energy;
  });
  res.metrics.probe("fleet.delivered_events", [delivered] {
    return delivered;
  });
  res.metrics.probe("fleet.delivered_fraction", [frac] { return frac; });
  res.metrics.probe("fleet.energy_per_delivered_j", [epd] { return epd; });
  res.metrics.probe("fleet.latency_p99_ms", [p99_ms] { return p99_ms; });
  res.metrics.probe("fleet.gateway_util_max", [util_max] {
    return util_max;
  });
  res.metrics.snapshot(Time::sec(max_sim_end));
  return res;
}

}  // namespace aetr::fleet
