// The four workloads and the per-layer probes of the traced run.
//
// A workload is set up (timed as setup_s), then runs rounds until its time
// is up; every round's outputs are kept and checked against references
// after the clock stops. The traced run adds the layer probes, which call
// each layer's public functions directly on the workload's own inputs.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "aer/event.hpp"
#include "bench.hpp"
#include "core/scenario.hpp"
#include "fleet/fleet.hpp"
#include "runtime/sweep.hpp"

namespace perfbench {

/// What one measured round completed.
struct Round {
  double items{0.0};  ///< the workload's unit of work: events or grid jobs
  double wall_s{0.0};
  std::vector<double> latency_ms;  ///< one sample per chunk, sweep or fleet run
};

/// Inputs of the layer probes. A workload fills in the part it exercises
/// with its own inputs; the rest keeps small defaults so that every traced
/// run reports every per-layer metric.
struct LayerInputs {
  std::vector<aetr::aer::EventStream> serve_streams;  ///< one gateway session each
  aetr::core::ScenarioConfig scenario;                ///< run_scenario probe
  aetr::aer::EventStream scenario_stream;
  aetr::fleet::FleetConfig fleet;
  /// Sweep reports already measured; empty = the probe runs fig8 itself.
  std::vector<aetr::runtime::SweepReport> sweeps;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build inputs and serving objects from scratch.
  virtual void setup() = 0;
  virtual Round round(Tracer& tracer) = 0;
  /// Check every round's outputs against references.
  virtual void verify(Checks& checks) = 0;
  /// The latency percentile reported as latency_tail_ms: p99 unless a run
  /// has too few samples, or too many of them in host slow spells, for a
  /// high percentile to hold still from run to run.
  [[nodiscard]] virtual double tail_quantile() const { return 0.99; }
  [[nodiscard]] virtual LayerInputs layer_inputs() = 0;
};

// Factories, one per workload file.
[[nodiscard]] std::unique_ptr<Workload> make_serve_catchup(const RunConfig& cfg);
[[nodiscard]] std::unique_ptr<Workload> make_serve_live(const RunConfig& cfg);
[[nodiscard]] std::unique_ptr<Workload> make_sweep_fig8(const RunConfig& cfg);
[[nodiscard]] std::unique_ptr<Workload> make_fleet_saturated(const RunConfig& cfg);

// Default inputs and shared builders.
[[nodiscard]] LayerInputs default_layer_inputs(const RunConfig& cfg);
/// Poisson 50 kHz over 256 addresses, one stream per session.
[[nodiscard]] std::vector<aetr::aer::EventStream> serve_streams(
    std::uint64_t seed, std::size_t sessions, std::size_t events);
/// The saturated fleet: 30 kHz +-10 %, batch threshold 64, no capture
/// records, a 4 Mwords/s uplink.
[[nodiscard]] aetr::fleet::FleetConfig saturated_fleet(std::uint64_t seed,
                                                 std::size_t nodes,
                                                 std::size_t events);
/// FNV-1a digest over every field of a FleetResult that --jobs must not move.
[[nodiscard]] std::uint64_t fleet_digest(const aetr::fleet::FleetResult& r);

// Layer probes; each adds its metrics to `out` and its ops to `checks`.
void probe_serve(const RunConfig& cfg, const std::vector<aetr::aer::EventStream>& streams,
                 Tracer& tracer, Checks& checks, Metrics& out);
void probe_scenario(const aetr::core::ScenarioConfig& scenario,
                    const aetr::aer::EventStream& stream, Tracer& tracer,
                    Checks& checks, Metrics& out);
void probe_runtime(const RunConfig& cfg, std::vector<aetr::runtime::SweepReport> sweeps,
                   Tracer& tracer, Metrics& out);
void probe_fleet(const RunConfig& cfg, const aetr::fleet::FleetConfig& config,
                 Tracer& tracer, Checks& checks, Metrics& out);

}  // namespace perfbench
