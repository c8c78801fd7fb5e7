#include "core/config_io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace aetr::core {
namespace {

using namespace domain;
using namespace units;

KeySchema<InterfaceConfig> make_interface_schema() {
  KeySchema<InterfaceConfig> s{"config"};
  s.comment("aetr interface configuration");
  s.number("clock.ring_mhz", AETR_FIELD(clock.ring_frequency), mhz);
  s.integer("clock.ref_divider_stages", AETR_FIELD(clock.ref_divider_stages),
            0, 31);
  s.integer("clock.sampling_divider_stages",
            AETR_FIELD(clock.sampling_divider_stages), 0, 31);
  s.integer("clock.theta_div", AETR_FIELD(clock.theta_div), 1, 4096);
  s.integer("clock.n_div", AETR_FIELD(clock.n_div), 0, 30);
  s.flag("clock.divide_enabled", AETR_FIELD(clock.divide_enabled));
  s.flag("clock.shutdown_enabled", AETR_FIELD(clock.shutdown_enabled));
  s.number("clock.wake_latency_ns", AETR_FIELD(clock.wake_latency), ns);
  s.integer("frontend.sync_stages", AETR_FIELD(front_end.sync_stages), 1, 64);
  s.number("frontend.metastability_prob",
           AETR_FIELD(front_end.metastability_prob), plain, kProbability);
  s.flag("frontend.keep_records", AETR_FIELD(front_end.keep_records));
  s.integer("fifo.capacity_words", AETR_FIELD(fifo.capacity_words), 1);
  s.integer("fifo.batch_threshold", AETR_FIELD(fifo.batch_threshold), 1);
  s.choice("fifo.overflow_policy", AETR_FIELD(fifo.overflow_policy),
           {{"drop_newest", buffer::OverflowPolicy::kDropNewest},
            {"drop_oldest", buffer::OverflowPolicy::kDropOldest}});
  s.number("i2s.sck_mhz", AETR_FIELD(i2s.sck), mhz);
  s.integer("i2s.word_bits", AETR_FIELD(i2s.word_bits), 1, 32);
  s.flag("i2s.drain_until_empty", AETR_FIELD(i2s.drain_until_empty));
  s.number("drain_timeout_us", AETR_FIELD(drain_timeout), us);
  s.number("power.static_uw", AETR_FIELD(calibration.static_w), uw);
  s.number("power.osc_domain_mw", AETR_FIELD(calibration.osc_domain_w), mw);
  return s;
}

const KeySchema<InterfaceConfig>& interface_schema() {
  static const KeySchema<InterfaceConfig> schema = make_interface_schema();
  return schema;
}

/// A telemetry.* field. Reading sees the scenario's options (the defaults
/// unless owned, so a borrowed session dumps as telemetry off, which is
/// what a fresh load reproduces); writing switches the choice to owned
/// options, since a borrowed in-process session cannot be named in a file.
template <auto Member>
constexpr auto tel = [](auto& c) -> auto& {
  if constexpr (std::is_const_v<std::remove_reference_t<decltype(c)>>) {
    return c.telemetry.options().*Member;
  } else {
    return c.telemetry.own().*Member;
  }
};

KeySchema<ScenarioConfig> make_scenario_schema() {
  using telemetry::SessionOptions;
  KeySchema<ScenarioConfig> s{"config"};
  s.comment("aetr scenario configuration");
  // Every interface key applies to scenario.interface, so an
  // InterfaceConfig file is a valid scenario file.
  s.extend(interface_schema(), AETR_FIELD(interface));
  // Sensor-side wire timing.
  s.number("sender.addr_setup_ns", AETR_FIELD(sender.addr_setup), ns);
  s.number("sender.req_release_ns", AETR_FIELD(sender.req_release), ns);
  s.number("sender.min_gap_ns", AETR_FIELD(sender.min_gap), ns);
  // Session lifecycle (formerly run.*; the deprecated alias spellings were
  // removed after their one-release grace period — run.* keys now fail with
  // a did-you-mean suggestion like any other unknown key).
  s.number("session.cooldown_us", AETR_FIELD(cooldown), us);
  s.flag("session.strict_protocol", AETR_FIELD(strict_protocol));
  s.flag("session.final_flush", AETR_FIELD(final_flush));
  s.flag("session.attach_mcu", AETR_FIELD(attach_mcu));
  s.flag("session.fast_forward", AETR_FIELD(fast_forward));
  s.flag("session.energy_ledger", AETR_FIELD(energy_ledger));
  s.integer("session.max_buffered_events",
            AETR_FIELD(session.max_buffered_events), 1);
  s.number("session.snapshot_interval_sec",
           AETR_FIELD(session.snapshot_interval_sec), plain,
           Domain{0.0, kDaySec});
  // Fault plan.
  s.integer("fault.seed", AETR_FIELD(faults.seed));
  s.number("fault.aer.drop_req_prob", AETR_FIELD(faults.aer.drop_req_prob),
           plain, kProbability);
  s.number("fault.aer.stuck_ack_prob", AETR_FIELD(faults.aer.stuck_ack_prob),
           plain, kProbability);
  s.number("fault.aer.addr_bit_flip_prob",
           AETR_FIELD(faults.aer.addr_bit_flip_prob), plain, kProbability);
  s.number("fault.aer.runt_req_prob", AETR_FIELD(faults.aer.runt_req_prob),
           plain, kProbability);
  s.number("fault.aer.runt_width_ns", AETR_FIELD(faults.aer.runt_width), ns);
  // Relative sigmas: a jitter as large as the period itself is the most a
  // clock model can mean.
  s.number("fault.clock.period_jitter_rel",
           AETR_FIELD(faults.clock.period_jitter_rel), plain, kProbability);
  s.number("fault.clock.wake_jitter_rel",
           AETR_FIELD(faults.clock.wake_jitter_rel), plain, kProbability);
  s.number("fault.fifo.cell_bit_flip_prob",
           AETR_FIELD(faults.fifo.cell_bit_flip_prob), plain, kProbability);
  s.number("fault.spi.word_bit_flip_prob",
           AETR_FIELD(faults.spi.word_bit_flip_prob), plain, kProbability);
  s.number("fault.i2s.bit_error_rate", AETR_FIELD(faults.i2s.bit_error_rate),
           plain, kProbability);
  s.flag("fault.recovery.watchdog", AETR_FIELD(faults.recovery.watchdog));
  s.number("fault.recovery.watchdog_timeout_us",
           AETR_FIELD(faults.recovery.watchdog_timeout), us);
  s.flag("fault.recovery.fifo_parity", AETR_FIELD(faults.recovery.fifo_parity));
  s.flag("fault.recovery.crc_frames", AETR_FIELD(faults.recovery.crc_frames));
  // Telemetry.
  s.flag("telemetry.trace", tel<&SessionOptions::trace>);
  s.flag("telemetry.metrics", tel<&SessionOptions::metrics>);
  s.number("telemetry.metrics_window_ms", tel<&SessionOptions::metrics_window>,
           ms, Domain{0.0, kDaySec * 1e3, true});
  s.text("telemetry.trace_json_path", tel<&SessionOptions::trace_json_path>);
  s.text("telemetry.trace_csv_path", tel<&SessionOptions::trace_csv_path>);
  s.text("telemetry.metrics_csv_path",
         tel<&SessionOptions::metrics_csv_path>);
  return s;
}

}  // namespace

const KeySchema<ScenarioConfig>& scenario_schema() {
  static const KeySchema<ScenarioConfig> schema = make_scenario_schema();
  return schema;
}

std::vector<std::string> scenario_keys() { return scenario_schema().keys(); }

std::string suggest_scenario_key(const std::string& key) {
  return keyio::nearest_key(key, scenario_schema().keys());
}

void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value) {
  scenario_schema().apply(scenario, key, value);
}

InterfaceConfig load_config(std::istream& is) {
  InterfaceConfig config;
  interface_schema().read(is, config);
  return config;
}

InterfaceConfig load_config_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("config: cannot open " + path);
  return load_config(f);
}

std::string dump_config(const InterfaceConfig& c) {
  std::ostringstream os;
  interface_schema().dump(os, c);
  return os.str();
}

ScenarioConfig load_scenario(std::istream& is) {
  ScenarioConfig scenario;
  scenario_schema().read(is, scenario);
  scenario.validate();
  return scenario;
}

ScenarioConfig load_scenario_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("config: cannot open " + path);
  return load_scenario(f);
}

std::string dump_scenario(const ScenarioConfig& s) {
  std::ostringstream os;
  scenario_schema().dump(os, s);
  return os.str();
}

}  // namespace aetr::core
