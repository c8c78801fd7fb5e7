#include "opt/search_space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "core/config_io.hpp"
#include "runtime/seed.hpp"
#include "runtime/sweep_grid.hpp"

namespace aetr::opt {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("search space: " + what);
}

bool is_integer_kind(AxisKind k) {
  return k == AxisKind::kLogInt || k == AxisKind::kInteger;
}

std::string format_double(double v) {
  // Shortest form that round-trips: try %g precisions, fall back to %.17g.
  char buf[64];
  for (int prec = 6; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

const char* to_string(AxisKind k) {
  switch (k) {
    case AxisKind::kLinear: return "lin";
    case AxisKind::kLog: return "log";
    case AxisKind::kLogInt: return "logint";
    case AxisKind::kInteger: return "int";
    case AxisKind::kChoice: return "choice";
  }
  return "?";
}

std::vector<double> ParamAxis::grid_values() const {
  switch (kind) {
    case AxisKind::kLinear:
      return runtime::SweepGrid::lin_space(lo, hi, steps);
    case AxisKind::kLog:
      return runtime::SweepGrid::log_space(lo, hi, steps);
    case AxisKind::kLogInt: {
      std::vector<double> out;
      for (double v : runtime::SweepGrid::log_space(lo, hi, steps)) {
        const double r = std::round(v);
        if (out.empty() || out.back() != r) out.push_back(r);
      }
      return out;
    }
    case AxisKind::kInteger: {
      std::vector<double> out;
      for (double v = lo; v <= hi; v += 1.0) out.push_back(v);
      return out;
    }
    case AxisKind::kChoice:
      return choices;
  }
  return {};
}

double ParamAxis::value_at(double u) const {
  u = std::clamp(u, 0.0, std::nextafter(1.0, 0.0));
  switch (kind) {
    case AxisKind::kLinear:
      return lo + u * (hi - lo);
    case AxisKind::kLog:
      return lo * std::pow(hi / lo, u);
    case AxisKind::kLogInt:
      return std::clamp(std::round(lo * std::pow(hi / lo, u)), lo, hi);
    case AxisKind::kInteger:
      return std::clamp(lo + std::floor(u * (hi - lo + 1.0)), lo, hi);
    case AxisKind::kChoice:
      return choices[static_cast<std::size_t>(
          u * static_cast<double>(choices.size()))];
  }
  return lo;
}

std::string ParamAxis::format(double value) const {
  if (is_integer_kind(kind) ||
      (kind == AxisKind::kChoice && value == std::round(value))) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld",
                  static_cast<long long>(std::llround(value)));
    return buf;
  }
  return format_double(value);
}

SearchSpace& SearchSpace::add(ParamAxis axis) {
  if (axis.key.rfind("telemetry.", 0) == 0) {
    fail("axis '" + axis.key + "': telemetry keys cannot be searched");
  }
  // Validate the key eagerly against the shared config schema (with its
  // did-you-mean hint) so a typo fails at space construction, not
  // mid-optimisation.
  const auto& schema = core::scenario_schema();
  if (!schema.known(axis.key)) {
    fail("axis '" + axis.key + "': unknown scenario key" +
         schema.did_you_mean(axis.key));
  }
  for (const auto& existing : axes_) {
    if (existing.key == axis.key) fail("duplicate axis '" + axis.key + "'");
  }
  if (axis.kind == AxisKind::kChoice) {
    if (axis.choices.empty()) fail("axis '" + axis.key + "': empty choice");
  } else {
    if (axis.hi < axis.lo) fail("axis '" + axis.key + "': hi < lo");
    if (axis.kind != AxisKind::kInteger && axis.steps == 0) {
      fail("axis '" + axis.key + "': zero steps");
    }
    if ((axis.kind == AxisKind::kLog || axis.kind == AxisKind::kLogInt) &&
        axis.lo <= 0.0) {
      fail("axis '" + axis.key + "': log domain needs lo > 0");
    }
  }
  // Endpoints (or each choice) must lie in the key's declared domain, so an
  // out-of-domain axis fails here, not at a sampled point mid-run.
  const std::vector<double> probes =
      axis.kind == AxisKind::kChoice ? axis.choices
                                     : std::vector<double>{axis.lo, axis.hi};
  for (const double v : probes) {
    try {
      schema.check_value(axis.key, axis.format(v));
    } catch (const std::exception& e) {
      fail("axis '" + axis.key + "': " + e.what());
    }
  }
  axes_.push_back(std::move(axis));
  return *this;
}

SearchSpace& SearchSpace::linear(std::string key, double lo, double hi,
                                 std::size_t steps) {
  return add({std::move(key), AxisKind::kLinear, lo, hi, steps, {}});
}
SearchSpace& SearchSpace::log(std::string key, double lo, double hi,
                              std::size_t steps) {
  return add({std::move(key), AxisKind::kLog, lo, hi, steps, {}});
}
SearchSpace& SearchSpace::log_int(std::string key, double lo, double hi,
                                  std::size_t steps) {
  return add({std::move(key), AxisKind::kLogInt, lo, hi, steps, {}});
}
SearchSpace& SearchSpace::integer(std::string key, double lo, double hi) {
  return add({std::move(key), AxisKind::kInteger, lo, hi, 0, {}});
}
SearchSpace& SearchSpace::choice(std::string key, std::vector<double> values) {
  return add({std::move(key), AxisKind::kChoice, 0, 0, 0, std::move(values)});
}

std::size_t SearchSpace::factorial_size() const {
  if (axes_.empty()) return 0;
  std::size_t n = 1;
  for (const auto& a : axes_) n *= a.grid_values().size();
  return n;
}

std::vector<double> SearchSpace::factorial_point(std::size_t index) const {
  std::vector<double> values(axes_.size());
  // Row-major: last axis varies fastest, as in runtime::SweepGrid.
  for (std::size_t i = axes_.size(); i-- > 0;) {
    const auto grid = axes_[i].grid_values();
    values[i] = grid[index % grid.size()];
    index /= grid.size();
  }
  return values;
}

std::vector<double> SearchSpace::sample(std::uint64_t seed) const {
  std::vector<double> values(axes_.size());
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    const std::uint64_t bits = runtime::derive_seed(seed, i);
    const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
    values[i] = axes_[i].value_at(u);
  }
  return values;
}

void SearchSpace::apply(core::ScenarioConfig& scenario,
                        const std::vector<double>& values) const {
  if (values.size() != axes_.size()) {
    fail("point has " + std::to_string(values.size()) + " values for " +
         std::to_string(axes_.size()) + " axes");
  }
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    core::scenario_schema().apply(scenario, axes_[i].key,
                                  axes_[i].format(values[i]));
  }
}

std::string SearchSpace::dump() const {
  std::ostringstream os;
  os << "# aetr optimizer search space\n";
  for (const auto& a : axes_) {
    os << a.key << " = " << to_string(a.kind) << "(";
    if (a.kind == AxisKind::kChoice) {
      for (std::size_t i = 0; i < a.choices.size(); ++i) {
        if (i) os << ", ";
        os << a.format(a.choices[i]);
      }
    } else {
      os << a.format(a.lo) << ", " << a.format(a.hi);
      if (a.kind != AxisKind::kInteger) os << ", " << a.steps;
    }
    os << ")\n";
  }
  return os.str();
}

SearchSpace SearchSpace::parse(std::istream& is) {
  SearchSpace space;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const auto fail_at = [&](const std::string& what) {
      fail("line " + std::to_string(line_no) + ": " + what);
    };
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      if (b == std::string::npos) return std::string{};
      const auto e = s.find_last_not_of(" \t\r");
      return s.substr(b, e - b + 1);
    };
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail_at("expected 'key = domain(...)'");
    const std::string key = trim(line.substr(0, eq));
    const std::string domain = trim(line.substr(eq + 1));
    const auto open = domain.find('(');
    if (open == std::string::npos || domain.back() != ')') {
      fail_at("expected 'kind(args)' after '='");
    }
    const std::string kind = trim(domain.substr(0, open));
    std::vector<double> args;
    std::istringstream arg_stream(
        domain.substr(open + 1, domain.size() - open - 2));
    std::string cell;
    while (std::getline(arg_stream, cell, ',')) {
      cell = trim(cell);
      if (cell.empty()) fail_at("empty argument");
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0') {
        fail_at("bad number '" + cell + "'");
      }
      args.push_back(v);
    }
    try {
      if (kind == "lin" && args.size() == 3) {
        space.linear(key, args[0], args[1],
                     static_cast<std::size_t>(args[2]));
      } else if (kind == "log" && args.size() == 3) {
        space.log(key, args[0], args[1], static_cast<std::size_t>(args[2]));
      } else if (kind == "logint" && args.size() == 3) {
        space.log_int(key, args[0], args[1],
                      static_cast<std::size_t>(args[2]));
      } else if (kind == "int" && args.size() == 2) {
        space.integer(key, args[0], args[1]);
      } else if (kind == "choice" && !args.empty()) {
        space.choice(key, args);
      } else {
        fail_at("unknown domain '" + kind + "' (or wrong arity)");
      }
    } catch (const std::runtime_error& e) {
      fail_at(e.what());
    }
  }
  if (space.axes().empty()) fail("no axes");
  return space;
}

SearchSpace SearchSpace::parse_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) fail("cannot open '" + path + "'");
  return parse(is);
}

SearchSpace SearchSpace::default_space() {
  SearchSpace space;
  // The paper's energy/accuracy trade runs through the clock division
  // schedule (theta_div sets the error bound, n_div the awake span) and the
  // buffering depth (batch threshold trades drain energy against latency).
  space.choice("clock.theta_div", {16, 32, 64, 128, 256});
  space.integer("clock.n_div", 4, 10);
  space.log_int("fifo.batch_threshold", 64, 2048, 6);
  space.integer("frontend.sync_stages", 1, 3);
  return space;
}

}  // namespace aetr::opt
