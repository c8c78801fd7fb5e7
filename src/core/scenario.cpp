#include "core/scenario.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/config_io.hpp"
#include "core/session.hpp"

namespace aetr::core {

void ScenarioConfig::validate() const {
  scenario_schema().check(*this);
  const auto fail = [](const char* what) {
    throw std::invalid_argument(std::string{"config: "} + what);
  };
  if (interface.fifo.batch_threshold > interface.fifo.capacity_words) {
    fail("fifo.batch_threshold must not exceed fifo.capacity_words");
  }
  if (faults.aer.runt_req_prob > 0.0 && faults.aer.runt_width <= Time::zero()) {
    fail("fault.aer.runt_width_ns must be > 0 when runts are injected");
  }
  if (faults.recovery.watchdog &&
      faults.recovery.watchdog_timeout <= Time::zero()) {
    fail("fault.recovery.watchdog_timeout_us must be > 0 with the watchdog on");
  }
  // The sampling schedule's last level ends at Tmin * theta_div *
  // (2^(n_div+1) - 1), Tmin being the ring period times 2^(divider stages):
  // the whole span must fit the time range with room for the stream.
  const auto& clk = interface.clock;
  const double span_ps =
      1e12 / clk.ring_frequency.to_hz() *
      std::ldexp(1.0, static_cast<int>(clk.ref_divider_stages +
                                       clk.sampling_divider_stages)) *
      clk.theta_div * (std::ldexp(1.0, static_cast<int>(clk.n_div) + 1) - 1.0);
  if (!(span_ps < 0x1p62)) {
    fail("clock.ring_mhz, clock.ref_divider_stages, "
         "clock.sampling_divider_stages, clock.theta_div and clock.n_div "
         "give a sampling schedule longer than the time range");
  }
}

RunResult run_scenario(const ScenarioConfig& scenario,
                       const aer::EventStream& events) {
  // Thin wrapper over the incremental API (core/session.hpp): buffer the
  // whole stream, then run it to completion. The Session reproduces the
  // original batch runner call-for-call — construction order, standing
  // timers, fast-path eligibility, telemetry spans — so results are
  // bit-identical to the pre-Session run_scenario.
  Session session{scenario};
  session.feed_all(events);
  return session.finish();
}

RunResult run_scenario(const ScenarioConfig& scenario, gen::SpikeSource& source,
                       std::size_t n_events) {
  return run_scenario(scenario, gen::take(source, n_events));
}

}  // namespace aetr::core
