#include "fleet/fleet_io.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/config_io.hpp"

namespace aetr::fleet {

namespace {

using core::KeySchema;
using namespace core::domain;
using core::units::plain;

// Uplink words carry 32-bit node ids and per-node sequence numbers.
constexpr double kMaxIndex = std::numeric_limits<std::uint32_t>::max();

KeySchema<FleetConfig> make_fleet_schema() {
  KeySchema<FleetConfig> s{"fleet config"};
  s.comment("aetr fleet configuration");
  s.integer("fleet.nodes", AETR_FIELD(nodes), 1, kMaxIndex,
            "uplink words carry 32-bit node ids");
  s.integer("fleet.gateways", AETR_FIELD(gateways), 1);
  s.number("fleet.rate_hz", AETR_FIELD(rate_hz), plain, kPositive);
  s.integer("fleet.events_per_node", AETR_FIELD(events_per_node), 1,
            kMaxIndex, "uplink words carry 32-bit sequence numbers");
  s.number("fleet.rate_spread", AETR_FIELD(rate_spread), plain,
           core::Domain{0.0, 1.0, false, true});
  // Scales every fault probability of the per-node plan.
  s.number("fleet.fault_level", AETR_FIELD(fault_level), plain, kProbability);
  s.number("fleet.node_energy_budget_j", AETR_FIELD(node_energy_budget_j),
           plain, kNonNegative);
  s.flag("fleet.health", AETR_FIELD(health));
  s.integer("fleet.seed", AETR_FIELD(seed));
  s.number("link.bandwidth_words_per_sec",
           AETR_FIELD(link.bandwidth_words_per_sec), plain, kPositive);
  s.integer("link.queue_words", AETR_FIELD(link.queue_words), 1);
  s.choice("link.arbitration", AETR_FIELD(link.arbitration),
           {{to_string(Arbitration::kFifo), Arbitration::kFifo},
            {to_string(Arbitration::kRoundRobin), Arbitration::kRoundRobin}});
  // Every scenario key (which itself embeds every interface key) applies
  // to the per-node base scenario.
  s.comment("per-node base scenario");
  s.extend(core::scenario_schema(), AETR_FIELD(base));
  return s;
}

}  // namespace

const KeySchema<FleetConfig>& fleet_schema() {
  static const KeySchema<FleetConfig> schema = make_fleet_schema();
  return schema;
}

void apply_fleet_key(FleetConfig& config, const std::string& key,
                     const std::string& value) {
  fleet_schema().apply(config, key, value);
}

FleetConfig load_fleet(std::istream& is) {
  FleetConfig config;
  fleet_schema().read(is, config);
  config.validate();
  return config;
}

FleetConfig load_fleet_file(const std::string& path) {
  std::ifstream f{path};
  if (!f) throw std::runtime_error("fleet config: cannot open " + path);
  return load_fleet(f);
}

std::string dump_fleet(const FleetConfig& c) {
  std::ostringstream os;
  fleet_schema().dump(os, c);
  return os.str();
}

}  // namespace aetr::fleet
