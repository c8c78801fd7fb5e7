#include "core/fast_path.hpp"

#include <algorithm>

#include "aer/caviar.hpp"

namespace aetr::core {

bool fast_path_eligible(const ScenarioConfig& scenario,
                        bool telemetry_active) {
  return scenario.fast_forward && !telemetry_active &&
         !scenario.faults.any() &&
         scenario.interface.drain_timeout == Time::zero();
}

FastPathOutcome run_fast_path(sim::Scheduler& sched, AerToI2sInterface& iface,
                              const ScenarioConfig& scenario,
                              const aer::EventStream& events) {
  FastPathOutcome out;
  frontend::AerFrontEnd& fe = iface.front_end();
  i2s::I2sMaster& i2s = iface.i2s_master();
  const aer::SenderTiming& st = scenario.sender;
  const frontend::FrontEndConfig& fc = scenario.interface.front_end;
  const Time word_time = i2s.word_time();

  i2s.set_external_drive(true);

  Time t_end = sched.now();  // run start; stays 0 for an empty stream

  // Run every armed I2S pop the reference scheduler would dispatch before
  // an event firing at `t` that was scheduled at `emit`: a pop due at P was
  // scheduled at P - word_time, and the scheduler dispatches by (time,
  // schedule order), so the pop goes first when P < t, or P == t with the
  // earlier (or equal — see below) schedule instant. On equal schedule
  // instants the reference order depends on which of the two emitting
  // callbacks at that instant ran first; for every reachable configuration
  // (addr_setup < word_time) that is the pop chain, so ties favour pops.
  const auto run_pops_before = [&](Time t, Time emit) {
    for (;;) {
      const Time due = i2s.next_word_due();
      if (due == Time::max() || due > t) break;
      if (due == t && due - word_time > emit) break;
      i2s.step_word(due);
      if (due > t_end) t_end = due;
    }
  };

  Time earliest_next_launch = Time::zero();
  for (const aer::Event& ev : events) {
    // Sensor side: launch waits for the event instant and the post-handshake
    // gap, then REQ rises one address-setup later (aer::AerSender::launch).
    const Time launch = std::max(ev.time, earliest_next_launch);
    const Time req_rise = launch + st.addr_setup;
    // Measure at the request instant (the front end's request-instant body,
    // as the DES runs it); the sample-edge work is committed after every
    // pop that precedes the edge, so the FIFO sees pushes and pops in exact
    // timeline order.
    const auto cap = fe.capture_at(ev.address, req_rise);
    run_pops_before(cap.sample.edge, req_rise);
    fe.commit_capture(cap);
    // Receiver side closes the 4-phase handshake on a fixed delay chain:
    // sample edge -> ACK rise -> REQ fall -> ACK fall (AerFrontEnd /
    // AerSender observers).
    const Time ack_rise = cap.sample.edge + fc.ack_rise_delay;
    const Time req_fall = ack_rise + st.req_release;
    const Time ack_fall = req_fall + fc.ack_fall_delay;
    ++out.handshakes;
    if (ack_fall - req_rise > aer::CaviarChecker::kDefaultBound) {
      ++out.caviar_violations;
    }
    earliest_next_launch = ack_fall + st.min_gap;
    if (ack_fall > t_end) t_end = ack_fall;
  }

  // Any drain still in progress after the last handshake runs to completion
  // unopposed (no more pushes race it).
  run_pops_before(Time::max(), Time::max());

  // Residual flush, as the reference performs after sched.run() returns.
  if (scenario.final_flush && !iface.fifo().empty()) {
    i2s.request_drain(t_end);
    run_pops_before(Time::max(), Time::max());
  }

  i2s.set_external_drive(false);
  // Land the scheduler where the reference run's last dispatch left it; the
  // caller's cooldown and activity window measure from here.
  sched.fast_forward_to(t_end);
  return out;
}

}  // namespace aetr::core
