// Idle-skip fast path: an analytic interpreter for fault-free runs.
//
// Between spikes the whole interface is analytically predictable — the
// clock generator already models its divided-clock state in closed form,
// the AER handshake is a fixed delay chain, and the I2S drain pops words on
// a fixed grid. The reference DES path nevertheless pays ~6 scheduler
// events per spike plus one per drained word. This module drives the same
// per-event bodies the DES drives (the real ClockGenerator / AerFrontEnd /
// FIFO / I2sMaster objects: AerFrontEnd::capture_at / commit_capture and
// I2sMaster::step_word) on a merged virtual timeline, touching the
// scheduler only to fast-forward now() at the end — so every counter,
// record, RNG draw and accounting value is bit-identical to the
// event-driven run.
//
// The only cross-component ordering that matters is FIFO pushes (at sample
// edges) versus FIFO pops (at I2S word deadlines); the interpreter merges
// the two streams by (fire time, schedule time), which reproduces the
// scheduler's (time, seq) dispatch order. See docs/SIMULATOR.md §Fast path.
#pragma once

#include <cstdint>

#include "aer/event.hpp"
#include "core/interface.hpp"
#include "core/scenario.hpp"
#include "sim/scheduler.hpp"

namespace aetr::core {

/// What the AER wire agents would have observed — the two RunResult fields
/// the fast path computes arithmetically instead of via channel observers.
struct FastPathOutcome {
  std::uint64_t handshakes{0};
  std::uint64_t caviar_violations{0};
};

/// True when `scenario` can take the fast path with a bit-identical result:
/// the knob is on, no telemetry session is active (tracing observes the
/// DES timeline itself), the fault plan is empty (zero-probability sites
/// count as empty — fault::FaultPlan::any() is probability-based), and the
/// FIFO drain-timeout watchdog is disabled (it schedules ad-hoc events).
[[nodiscard]] bool fast_path_eligible(const ScenarioConfig& scenario,
                                      bool telemetry_active);

/// Run `events` through the already-wired interface analytically, including
/// the final FIFO flush (when the scenario asks for one), and fast-forward
/// the scheduler to the end of the last action. The caller performs the
/// cooldown and result assembly exactly as on the reference path.
FastPathOutcome run_fast_path(sim::Scheduler& sched, AerToI2sInterface& iface,
                              const ScenarioConfig& scenario,
                              const aer::EventStream& events);

}  // namespace aetr::core
