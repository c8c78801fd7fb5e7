// Seeded config mutator: scenario text is outside input (files, CLI flags,
// a socket client's HELLO config_text), so every mutant of a valid dump
// must either be rejected at load_scenario() with a message naming the
// key it broke, or run to a RunResult whose numbers are all finite.
//
// Mutants start from the dump of the default scenario and of an
// every-fault scenario (ledger on), and replace one to three values with
// hostile tokens or with random values drawn from the key's declared
// domain (core::scenario_schema() entries). Text keys are left alone:
// their values name output files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/scenario.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"

namespace aetr {
namespace {

using core::KeyKind;
using Schema = core::KeySchema<core::ScenarioConfig>;

const std::vector<std::string> kHostile{
    "nan", "inf", "-inf", "-1", "0", "1e308", "18446744073709551615",
    "9007199254740993", "banana"};

core::ScenarioConfig every_fault() {
  core::ScenarioConfig s;
  s.faults = fault::scaled_plan(0.05, 99);
  s.energy_ledger = true;
  return s;
}

/// A random value inside the entry's domain, near `current` for numbers
/// (a factor of up to 8 either way) so runs stay short.
std::string in_domain(const Schema::Entry& e, const std::string& current,
                      std::mt19937_64& rng) {
  std::uniform_real_distribution<double> u{0.0, 1.0};
  switch (e.kind) {
    case KeyKind::kFlag:
      return u(rng) < 0.5 ? "false" : "true";
    case KeyKind::kChoice:
      return e.names[static_cast<std::size_t>(u(rng) * 0.999 *
                                              static_cast<double>(
                                                  e.names.size()))];
    case KeyKind::kText:
      return current;
    case KeyKind::kNumber:
    case KeyKind::kInteger:
      break;
  }
  const core::Domain& d = e.domain;
  const double now = std::stod(current);
  double x = now != 0.0 ? now * std::exp2(6.0 * u(rng) - 3.0)
                        : u(rng) * std::min(d.hi - d.lo, 10.0);
  if (e.kind == KeyKind::kInteger) x = std::round(x);
  x = std::clamp(x, d.lo, d.hi);
  if (!d.contains(x)) x = now;
  std::ostringstream os;
  os.precision(17);
  if (e.kind == KeyKind::kInteger) {
    os << static_cast<std::uint64_t>(x);
  } else {
    os << x;
  }
  return os.str();
}

struct Line {
  std::string key;
  std::string value;
};

std::vector<Line> parse_dump(const std::string& text) {
  std::vector<Line> lines;
  std::istringstream is{text};
  core::keyio::parse_stream(is, "dump",
                            [&](const std::string& k, const std::string& v,
                                std::size_t) { lines.push_back({k, v}); });
  return lines;
}

std::string render(const std::vector<Line>& lines) {
  std::string out;
  for (const auto& l : lines) out += l.key + " = " + l.value + "\n";
  return out;
}

bool finite_result(const core::RunResult& r, std::string& why) {
  if (!std::isfinite(r.average_power_w)) why = "average_power_w";
  if (r.sim_end < Time::zero() || r.sim_end == Time::max() ||
      !std::isfinite(r.sim_end.to_sec())) {
    why = "sim_end";
  }
  for (const double l : r.delivery_latency_sec) {
    if (!std::isfinite(l)) why = "delivery latency";
  }
  if (r.ledger.enabled) {
    for (const double j : r.ledger.stage_energy_j) {
      if (!std::isfinite(j)) why = "ledger stage energy";
    }
    for (const double s : r.ledger.state_sec) {
      if (!std::isfinite(s)) why = "ledger state time";
    }
    for (const double j : r.ledger.outcome_energy_j) {
      if (!std::isfinite(j)) why = "ledger outcome energy";
    }
    if (!std::isfinite(r.ledger.window_sec)) why = "ledger window";
  }
  return why.empty();
}

TEST(ConfigMutator, EveryMutantIsRejectedByKeyOrRunsFinite) {
  const auto& schema = core::scenario_schema();
  gen::PoissonSource source{200e3, 128, 11};
  const aer::EventStream events = gen::take(source, 200);
  std::mt19937_64 rng{20261020};
  std::uniform_real_distribution<double> u{0.0, 1.0};
  std::size_t rejected = 0;
  std::size_t ran = 0;
  for (const core::ScenarioConfig& base :
       {core::ScenarioConfig{}, every_fault()}) {
    const std::vector<Line> lines = parse_dump(core::dump_scenario(base));
    for (int m = 0; m < 150; ++m) {
      std::vector<Line> mutant = lines;
      std::vector<std::string> touched;
      const int edits = u(rng) < 0.7 ? 1 : 2 + static_cast<int>(u(rng) * 2);
      for (int k = 0; k < edits; ++k) {
        Line& l = mutant[static_cast<std::size_t>(
            u(rng) * 0.999 * static_cast<double>(mutant.size()))];
        const Schema::Entry& e = schema.entry(l.key);
        if (e.kind == KeyKind::kText) continue;
        l.value = u(rng) < 0.5
                      ? kHostile[static_cast<std::size_t>(
                            u(rng) * 0.999 *
                            static_cast<double>(kHostile.size()))]
                      : in_domain(e, l.value, rng);
        touched.push_back(l.key);
      }
      const std::string text = render(mutant);
      core::ScenarioConfig sc;
      try {
        std::istringstream is{text};
        sc = core::load_scenario(is);
      } catch (const std::exception& ex) {
        const std::string msg = ex.what();
        bool named = false;
        for (const auto& key : touched) {
          named = named || msg.find(key) != std::string::npos;
        }
        EXPECT_TRUE(named) << "rejection names no mutated key: " << msg;
        ++rejected;
        continue;
      }
      const core::RunResult r = core::run_scenario(sc, events);
      std::string why;
      EXPECT_TRUE(finite_result(r, why)) << why << " not finite for:\n"
                                         << text;
      ++ran;
    }
  }
  // Both outcomes must be exercised, or the property says nothing.
  EXPECT_GT(rejected, 50u);
  EXPECT_GT(ran, 50u);
}

TEST(ConfigMutator, NamedHostileInputsAreRejectedByKey) {
  const std::vector<std::pair<std::string, std::string>> inputs{
      {"clock.n_div", "18446744073709551615"},
      {"clock.ref_divider_stages", "inf"},
      {"clock.wake_latency_ns", "nan"},
      {"sender.min_gap_ns", "nan"},
      {"power.static_uw", "inf"},
      {"i2s.sck_mhz", "0"},
      {"sender.addr_setup_ns", "-1"},
      {"fault.aer.drop_req_prob", "nan"},
      {"fifo.capacity_words", "1e30"},
      {"session.cooldown_us", "1e300"},
  };
  for (const auto& [key, value] : inputs) {
    std::istringstream is{key + " = " + value + "\n"};
    try {
      (void)core::load_scenario(is);
      ADD_FAILURE() << key << " = " << value << " was accepted";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string{e.what()}.find(key), std::string::npos)
          << key << " = " << value << ": " << e.what();
    }
  }
}

TEST(ConfigMutator, ParseAndDomainFailuresKeepTheirExceptionTypes) {
  // Text the field cannot hold fails parsing, with the line number.
  std::istringstream nan_text{"# header\nclock.wake_latency_ns = nan\n"};
  try {
    (void)core::load_scenario(nan_text);
    FAIL() << "NaN accepted";
  } catch (const std::invalid_argument& e) {
    FAIL() << "NaN is a parse error, not a domain error: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos)
        << e.what();
  }
  // A value the field holds but the model cannot mean fails validation.
  std::istringstream negative{"sender.addr_setup_ns = -1\n"};
  EXPECT_THROW((void)core::load_scenario(negative), std::invalid_argument);
  // Integers parse exactly over the full 64-bit range.
  core::ScenarioConfig sc;
  core::apply_scenario_key(sc, "fault.seed", "18446744073709551615");
  EXPECT_EQ(sc.faults.seed, 18446744073709551615ull);
  core::apply_scenario_key(sc, "fault.seed", "9007199254740993");
  EXPECT_EQ(sc.faults.seed, 9007199254740993ull);
}

}  // namespace
}  // namespace aetr
