// The unified run API: one validated, config_io-round-trippable object
// describing everything a run needs — per-block interface configs, the
// sensor-side wire timing, the fault plan with its recovery knobs, and the
// telemetry choice — consumed by run_scenario().
//
// This replaces the old (InterfaceConfig, RunOptions) pair whose telemetry
// fields had dual ownership; the core/runner.hpp compatibility shim that
// forwarded those entry points here has been removed.
#pragma once

#include <cstdint>
#include <vector>

#include "aer/agents.hpp"
#include "aer/event.hpp"
#include "analysis/error.hpp"
#include "core/interface.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "obs/ledger.hpp"
#include "power/model.hpp"
#include "telemetry/telemetry.hpp"

namespace aetr::core {

/// How a run's telemetry is provided: off entirely, owned by the runner for
/// the duration of the call (built from SessionOptions, artifacts written
/// before returning), or borrowed from an outer harness that owns the
/// session and its artifacts (the sweep runtime does this to name outputs
/// per job). Exactly one of the three — the old telemetry/telemetry_session
/// pair whose meaning depended on which fields were set is gone.
class TelemetryChoice {
 public:
  enum class Mode { kOff, kOwned, kBorrowed };

  /// Default: no telemetry.
  TelemetryChoice() = default;

  [[nodiscard]] static TelemetryChoice off() { return TelemetryChoice{}; }
  [[nodiscard]] static TelemetryChoice owned(telemetry::SessionOptions opts) {
    TelemetryChoice c;
    c.mode_ = Mode::kOwned;
    c.options_ = opts;
    return c;
  }
  [[nodiscard]] static TelemetryChoice borrowed(
      telemetry::TelemetrySession* session) {
    TelemetryChoice c;
    c.mode_ = session != nullptr ? Mode::kBorrowed : Mode::kOff;
    c.session_ = session;
    return c;
  }

  /// Switch to runner-owned options — keeping the current ones when already
  /// owned, the defaults otherwise — and return them for editing. This is
  /// how a telemetry.* config key lands.
  telemetry::SessionOptions& own() {
    if (mode_ != Mode::kOwned) *this = owned({});
    return options_;
  }

  [[nodiscard]] Mode mode() const { return mode_; }
  /// Session options (meaningful in kOwned mode; defaults otherwise).
  [[nodiscard]] const telemetry::SessionOptions& options() const {
    return options_;
  }
  /// Borrowed session (non-null exactly in kBorrowed mode).
  [[nodiscard]] telemetry::TelemetrySession* session() const {
    return session_;
  }

 private:
  Mode mode_{Mode::kOff};
  telemetry::SessionOptions options_{};
  telemetry::TelemetrySession* session_{nullptr};
};

/// Session-lifecycle limits (the `session.*` config keys): how much input a
/// streaming core::Session may buffer before signalling backpressure, and
/// how often a service harness (aetr-serve) checkpoints. Batch runs through
/// run_scenario() never hit either limit.
struct SessionLimits {
  /// Fed-but-not-yet-submitted events the session holds before feed()
  /// starts refusing input (the backpressure signal).
  std::size_t max_buffered_events = std::size_t{1} << 20;
  /// Periodic snapshot pitch for service mode; zero disables (snapshots
  /// only on demand). Consumed by aetr-serve, not by the session itself.
  double snapshot_interval_sec = 0.0;
};

/// Everything one run needs, in one place.
struct ScenarioConfig {
  InterfaceConfig interface;        ///< per-block hardware configuration
  aer::SenderTiming sender;         ///< sensor-side wire timing
  fault::FaultPlan faults;          ///< injected faults + recovery knobs
  Time cooldown = Time::ms(1.0);    ///< settle time after last event
  bool strict_protocol = false;     ///< throw on AER violations
  bool final_flush = true;          ///< drain FIFO residue at the end
  bool attach_mcu = true;           ///< decode the I2S stream
  /// Idle-skip fast path (core/fast_path.hpp): replay the run analytically
  /// when nothing observes the DES timeline — bit-identical results, no
  /// per-spike scheduler events. Off preserves the reference event-driven
  /// path. Ignored (reference path) whenever telemetry is active, the fault
  /// plan injects anything, or a FIFO drain timeout is set.
  bool fast_forward = true;
  /// Fill RunResult::ledger (obs::EnergyLedger) from the run's counters.
  /// Pure post-hoc arithmetic: never perturbs the run, never disqualifies
  /// the fast path, and off leaves RunResult bit-identical to a build
  /// without the ledger.
  bool energy_ledger = false;
  SessionLimits session;            ///< streaming-session lifecycle limits
  TelemetryChoice telemetry;        ///< off / runner-owned / borrowed

  /// Throws std::invalid_argument naming the key on the first value outside
  /// its declared domain (core::scenario_schema()), then on the first
  /// cross-key inconsistency (batch threshold above capacity, zero-width
  /// runt, zero watchdog timeout, divider span beyond the time range).
  void validate() const;
};

/// Everything measured in one run.
struct RunResult {
  // Power
  power::ActivityTotals activity;
  double average_power_w{0.0};
  power::PowerBreakdown breakdown;
  // Accuracy
  analysis::ErrorStats error;
  std::vector<frontend::CaptureRecord> records;
  // Data path
  std::vector<aer::TimedEvent> decoded;  ///< MCU-side reconstructed events
  /// Per decoded event: sim time between the event (its reconstructed
  /// instant) and the MCU accepting the batch carrying it — the delivery
  /// latency the FIFO batching trades against power. Same order as
  /// `decoded`; empty when no MCU is attached.
  std::vector<double> delivery_latency_sec;
  std::uint64_t events_in{0};
  std::uint64_t words_out{0};
  std::uint64_t fifo_overflows{0};
  std::uint64_t batches{0};
  // Protocol
  std::uint64_t handshakes{0};
  std::uint64_t caviar_violations{0};
  std::uint64_t protocol_violations{0};
  // Faults (all zero when the scenario's plan is empty)
  fault::FaultCounters faults;
  /// Energy-attribution ledger (obs). Default-constructed (enabled ==
  /// false, all zeros) unless ScenarioConfig::energy_ledger asked for it.
  obs::EnergyLedger ledger;
  // Timeline
  Time sim_end{Time::zero()};
  double input_rate_hz{0.0};  ///< measured from the stream span
  // Interface scale factors (for re-scoring the records externally)
  Time tick_unit{Time::zero()};        ///< Tmin
  Time saturation_span{Time::zero()};  ///< max measurable interval
};

/// Run a pre-materialised stream through a freshly built system.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& scenario,
                                     const aer::EventStream& events);

/// Convenience: draw `n_events` from a source, then run them.
[[nodiscard]] RunResult run_scenario(const ScenarioConfig& scenario,
                                     gen::SpikeSource& source,
                                     std::size_t n_events);

}  // namespace aetr::core
