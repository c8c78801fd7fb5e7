// Golden bytes of the config dumps. dump_scenario() is the snapshot and
// HELLO fingerprint, so its exact text — key order, number formatting,
// unit arithmetic, trailing spaces of empty values — is pinned here for the
// defaults and for a scenario that moves every key off its default.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/config_io.hpp"
#include "fleet/fleet_io.hpp"

namespace aetr {
namespace {

const std::string kInterfaceBody =
    "# aetr interface configuration\n"
    "clock.ring_mhz = 120\n"
    "clock.ref_divider_stages = 2\n"
    "clock.sampling_divider_stages = 1\n"
    "clock.theta_div = 64\n"
    "clock.n_div = 8\n"
    "clock.divide_enabled = true\n"
    "clock.shutdown_enabled = true\n"
    "clock.wake_latency_ns = 100\n"
    "frontend.sync_stages = 2\n"
    "frontend.metastability_prob = 0\n"
    "frontend.keep_records = true\n"
    "fifo.capacity_words = 2300\n"
    "fifo.batch_threshold = 1024\n"
    "fifo.overflow_policy = drop_newest\n"
    "i2s.sck_mhz = 24.576\n"
    "i2s.word_bits = 32\n"
    "i2s.drain_until_empty = true\n"
    "drain_timeout_us = 0\n"
    "power.static_uw = 50\n"
    "power.osc_domain_mw = 2\n";

const std::string kScenarioTail =
    "sender.addr_setup_ns = 5\n"
    "sender.req_release_ns = 5\n"
    "sender.min_gap_ns = 10\n"
    "session.cooldown_us = 1000\n"
    "session.strict_protocol = false\n"
    "session.final_flush = true\n"
    "session.attach_mcu = true\n"
    "session.fast_forward = true\n"
    "session.energy_ledger = false\n"
    "session.max_buffered_events = 1048576\n"
    "session.snapshot_interval_sec = 0\n"
    "fault.seed = 1024023\n"
    "fault.aer.drop_req_prob = 0\n"
    "fault.aer.stuck_ack_prob = 0\n"
    "fault.aer.addr_bit_flip_prob = 0\n"
    "fault.aer.runt_req_prob = 0\n"
    "fault.aer.runt_width_ns = 40\n"
    "fault.clock.period_jitter_rel = 0\n"
    "fault.clock.wake_jitter_rel = 0\n"
    "fault.fifo.cell_bit_flip_prob = 0\n"
    "fault.spi.word_bit_flip_prob = 0\n"
    "fault.i2s.bit_error_rate = 0\n"
    "fault.recovery.watchdog = true\n"
    "fault.recovery.watchdog_timeout_us = 10\n"
    "fault.recovery.fifo_parity = true\n"
    "fault.recovery.crc_frames = true\n"
    "telemetry.trace = false\n"
    "telemetry.metrics = false\n"
    "telemetry.metrics_window_ms = 1\n"
    "telemetry.trace_json_path = \n"
    "telemetry.trace_csv_path = \n"
    "telemetry.metrics_csv_path = \n";

const std::string kScenarioDefault =
    "# aetr scenario configuration\n" + kInterfaceBody + kScenarioTail;

TEST(ConfigGolden, DefaultInterfaceDump) {
  EXPECT_EQ(core::dump_config(core::InterfaceConfig{}), kInterfaceBody);
}

TEST(ConfigGolden, DefaultScenarioDump) {
  EXPECT_EQ(core::dump_scenario(core::ScenarioConfig{}), kScenarioDefault);
}

TEST(ConfigGolden, DefaultFleetDump) {
  const std::string want =
      "# aetr fleet configuration\n"
      "fleet.nodes = 64\n"
      "fleet.gateways = 1\n"
      "fleet.rate_hz = 30000\n"
      "fleet.events_per_node = 1000\n"
      "fleet.rate_spread = 0\n"
      "fleet.fault_level = 0\n"
      "fleet.node_energy_budget_j = 0\n"
      "fleet.health = false\n"
      "fleet.seed = 1\n"
      "link.bandwidth_words_per_sec = 2e+06\n"
      "link.queue_words = 4096\n"
      "link.arbitration = fifo\n"
      "# per-node base scenario\n" +
      kScenarioDefault;
  EXPECT_EQ(fleet::dump_fleet(fleet::FleetConfig{}), want);
}

/// Every key off its default: both enum spellings' non-default side, owned
/// telemetry with every option set, fractional values in every unit.
core::ScenarioConfig every_key_moved() {
  core::ScenarioConfig s;
  auto& i = s.interface;
  i.clock.ring_frequency = Frequency::mhz(96.5);
  i.clock.ref_divider_stages = 3;
  i.clock.sampling_divider_stages = 2;
  i.clock.theta_div = 32;
  i.clock.n_div = 6;
  i.clock.divide_enabled = false;
  i.clock.shutdown_enabled = false;
  i.clock.wake_latency = Time::ns(125.5);
  i.front_end.sync_stages = 3;
  i.front_end.metastability_prob = 0.00125;
  i.front_end.keep_records = false;
  i.fifo.capacity_words = 4096;
  i.fifo.batch_threshold = 777;
  i.fifo.overflow_policy = buffer::OverflowPolicy::kDropOldest;
  i.i2s.sck = Frequency::mhz(12.288);
  i.i2s.word_bits = 24;
  i.i2s.drain_until_empty = false;
  i.drain_timeout = Time::us(250.25);
  i.calibration.static_w = 60e-6;
  i.calibration.osc_domain_w = 1.5e-3;
  s.sender.addr_setup = Time::ns(7.5);
  s.sender.req_release = Time::ns(6);
  s.sender.min_gap = Time::ns(12.25);
  s.cooldown = Time::us(2500.5);
  s.strict_protocol = true;
  s.final_flush = false;
  s.attach_mcu = false;
  s.fast_forward = false;
  s.energy_ledger = true;
  s.session.max_buffered_events = 4096;
  s.session.snapshot_interval_sec = 0.25;
  s.faults.seed = 123456789012345ull;
  s.faults.aer.drop_req_prob = 0.01;
  s.faults.aer.stuck_ack_prob = 0.02;
  s.faults.aer.addr_bit_flip_prob = 0.03;
  s.faults.aer.runt_req_prob = 0.04;
  s.faults.aer.runt_width = Time::ns(150);
  s.faults.clock.period_jitter_rel = 0.05;
  s.faults.clock.wake_jitter_rel = 0.06;
  s.faults.fifo.cell_bit_flip_prob = 0.07;
  s.faults.spi.word_bit_flip_prob = 0.08;
  s.faults.i2s.bit_error_rate = 0.0009;
  s.faults.recovery.watchdog = false;
  s.faults.recovery.watchdog_timeout = Time::us(20.5);
  s.faults.recovery.fifo_parity = false;
  s.faults.recovery.crc_frames = false;
  telemetry::SessionOptions tel;
  tel.trace = true;
  tel.metrics = true;
  tel.metrics_window = Time::ms(0.5);
  tel.trace_json_path = "out/trace.json";
  tel.trace_csv_path = "out/trace.csv";
  tel.metrics_csv_path = "out/metrics.csv";
  s.telemetry = core::TelemetryChoice::owned(tel);
  return s;
}

TEST(ConfigGolden, EveryKeyMovedScenarioDump) {
  const std::string want =
      "# aetr scenario configuration\n"
      "# aetr interface configuration\n"
      "clock.ring_mhz = 96.5\n"
      "clock.ref_divider_stages = 3\n"
      "clock.sampling_divider_stages = 2\n"
      "clock.theta_div = 32\n"
      "clock.n_div = 6\n"
      "clock.divide_enabled = false\n"
      "clock.shutdown_enabled = false\n"
      "clock.wake_latency_ns = 125.5\n"
      "frontend.sync_stages = 3\n"
      "frontend.metastability_prob = 0.00125\n"
      "frontend.keep_records = false\n"
      "fifo.capacity_words = 4096\n"
      "fifo.batch_threshold = 777\n"
      "fifo.overflow_policy = drop_oldest\n"
      "i2s.sck_mhz = 12.288\n"
      "i2s.word_bits = 24\n"
      "i2s.drain_until_empty = false\n"
      "drain_timeout_us = 250.25\n"
      "power.static_uw = 60\n"
      "power.osc_domain_mw = 1.5\n"
      "sender.addr_setup_ns = 7.5\n"
      "sender.req_release_ns = 6\n"
      "sender.min_gap_ns = 12.25\n"
      "session.cooldown_us = 2500.5\n"
      "session.strict_protocol = true\n"
      "session.final_flush = false\n"
      "session.attach_mcu = false\n"
      "session.fast_forward = false\n"
      "session.energy_ledger = true\n"
      "session.max_buffered_events = 4096\n"
      "session.snapshot_interval_sec = 0.25\n"
      "fault.seed = 123456789012345\n"
      "fault.aer.drop_req_prob = 0.01\n"
      "fault.aer.stuck_ack_prob = 0.02\n"
      "fault.aer.addr_bit_flip_prob = 0.03\n"
      "fault.aer.runt_req_prob = 0.04\n"
      "fault.aer.runt_width_ns = 150\n"
      "fault.clock.period_jitter_rel = 0.05\n"
      "fault.clock.wake_jitter_rel = 0.06\n"
      "fault.fifo.cell_bit_flip_prob = 0.07\n"
      "fault.spi.word_bit_flip_prob = 0.08\n"
      "fault.i2s.bit_error_rate = 0.0009\n"
      "fault.recovery.watchdog = false\n"
      "fault.recovery.watchdog_timeout_us = 20.5\n"
      "fault.recovery.fifo_parity = false\n"
      "fault.recovery.crc_frames = false\n"
      "telemetry.trace = true\n"
      "telemetry.metrics = true\n"
      "telemetry.metrics_window_ms = 0.5\n"
      "telemetry.trace_json_path = out/trace.json\n"
      "telemetry.trace_csv_path = out/trace.csv\n"
      "telemetry.metrics_csv_path = out/metrics.csv\n";
  EXPECT_EQ(core::dump_scenario(every_key_moved()), want);
}

TEST(ConfigGolden, EveryKeyMovedScenarioReloadsToTheSameBytes) {
  const std::string once = core::dump_scenario(every_key_moved());
  std::istringstream is{once};
  EXPECT_EQ(core::dump_scenario(core::load_scenario(is)), once);
}

}  // namespace
}  // namespace aetr
