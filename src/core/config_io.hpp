// Textual configuration for the interface: a small "key = value" format so
// experiments are reproducible from files and the CLI example can expose
// every knob without recompilation.
//
//   # aetr interface configuration
//   clock.theta_div     = 64
//   clock.n_div         = 8
//   fifo.batch_threshold = 1024
//
// Unknown keys are an error (catching typos beats silently ignoring them);
// omitted keys keep their defaults. dump_config() emits every key, so
// dump -> load round-trips exactly.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/key_schema.hpp"
#include "core/scenario.hpp"

namespace aetr::core {

/// The declarative schema behind load_scenario()/dump_scenario(): one typed
/// declaration (field, unit, domain) per key — every interface key grafted
/// onto scenario.interface, plus sender.*, session.*, fault.* and
/// telemetry.*. ScenarioConfig::validate() walks its domains.
/// opt::SearchSpace validates its axes against this table, and the fleet
/// config extends it onto FleetConfig::base.
[[nodiscard]] const KeySchema<ScenarioConfig>& scenario_schema();

/// Parse a configuration stream on top of default values.
/// Throws std::runtime_error on syntax errors, unknown keys, or values the
/// field cannot hold (including integers outside their declared range).
InterfaceConfig load_config(std::istream& is);

/// Load a configuration file; throws std::runtime_error on failure.
InterfaceConfig load_config_file(const std::string& path);

/// Render every tunable of `config` in load_config() syntax.
std::string dump_config(const InterfaceConfig& config);

/// Parse a full scenario (interface keys plus sender.*, session.*, fault.*
/// and telemetry.*) on top of default values. Every interface key is
/// accepted unchanged, so an InterfaceConfig file is a valid scenario file.
/// Throws std::runtime_error for text a field cannot hold and
/// std::invalid_argument (from ScenarioConfig::validate()) for values the
/// model cannot mean; both name the key.
/// The pre-Session run.* alias spellings were removed after their
/// one-release grace period; they now fail like any other unknown key.
ScenarioConfig load_scenario(std::istream& is);

/// Load a scenario file; throws std::runtime_error on failure.
ScenarioConfig load_scenario_file(const std::string& path);

/// Render every tunable of `scenario` in load_scenario() syntax. Emits every
/// key, so dump -> load -> dump is byte-identical. A borrowed telemetry
/// session is an in-process handle and dumps as telemetry off.
std::string dump_scenario(const ScenarioConfig& scenario);

/// Apply one `key = value` assignment — any key load_scenario() accepts —
/// to an existing scenario, without validate(). A telemetry.* key switches
/// the telemetry choice to owned options. Throws std::runtime_error on
/// unknown keys (with a nearest-key suggestion) or text the field cannot
/// hold.
void apply_scenario_key(ScenarioConfig& scenario, const std::string& key,
                        const std::string& value);

/// Every key load_scenario() understands, in sorted order.
[[nodiscard]] std::vector<std::string> scenario_keys();

/// The known scenario key nearest to `key` by edit distance, or "" when
/// nothing is close enough to be a plausible typo.
[[nodiscard]] std::string suggest_scenario_key(const std::string& key);

}  // namespace aetr::core
