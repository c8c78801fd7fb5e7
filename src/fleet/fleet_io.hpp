// Textual configuration for a fleet, layered on core/config_io: every
// scenario key is accepted unchanged (it configures the per-node base
// scenario), plus fleet.* topology keys and link.* uplink keys. Unknown keys
// are an error with a did-you-mean hint across the combined key set.
// dump_fleet() emits every key, so dump -> load -> dump is byte-identical.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/key_schema.hpp"
#include "fleet/fleet.hpp"

namespace aetr::fleet {

/// The declarative schema behind load_fleet()/dump_fleet(): fleet.* and
/// link.* declarations, then every scenario key applied to the base
/// scenario. FleetConfig::validate() walks its domains.
[[nodiscard]] const core::KeySchema<FleetConfig>& fleet_schema();

/// Parse a fleet configuration stream on top of default values. Throws
/// std::runtime_error on syntax errors, unknown keys, or values that fail
/// validation (validate() runs on the loaded config).
[[nodiscard]] FleetConfig load_fleet(std::istream& is);

/// Load a fleet configuration file; throws std::runtime_error on failure.
[[nodiscard]] FleetConfig load_fleet_file(const std::string& path);

/// Render every tunable of `config` in load_fleet() syntax.
[[nodiscard]] std::string dump_fleet(const FleetConfig& config);

/// Apply one `key = value` assignment — any key load_fleet() accepts — to an
/// existing config; scenario keys apply to the base scenario. Throws
/// std::runtime_error on unknown keys (with a nearest-key suggestion) or
/// text the field cannot hold.
void apply_fleet_key(FleetConfig& config, const std::string& key,
                     const std::string& value);

}  // namespace aetr::fleet
