// Declarative "key = value" schema registry: one typed declaration per key
// names the field (an accessor), its unit and its domain, and parse, dump
// and the domain check all derive from it. Parsing (apply) rejects text the
// field cannot hold with std::runtime_error; check() walks the declarations
// and rejects values the model cannot mean with std::invalid_argument. Both
// name the key (docs/ROBUSTNESS.md, "Config keys").
//
// Registration order is dump order, so dump -> load -> dump stays
// byte-identical. extend() grafts a complete inner schema through an
// accessor: the scenario schema embeds every interface key, the fleet
// schema every scenario key.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

/// Accessor for one config field that works on a mutable and on a const
/// config alike: AETR_FIELD(clock.wake_latency) names c.clock.wake_latency.
#define AETR_FIELD(path) [](auto& c) -> auto& { return c.path; }

namespace aetr::core {

/// Shared value-parsing and key-suggestion helpers for KeySchema tables.
namespace keyio {

inline std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

inline bool parse_bool(const std::string& v, const std::string& key) {
  if (v == "true" || v == "1" || v == "on") return true;
  if (v == "false" || v == "0" || v == "off") return false;
  throw std::runtime_error("config: bad boolean for " + key + ": " + v);
}

/// A finite number; NaN and infinities are rejected like any other text
/// no numeric field can hold.
inline double parse_double(const std::string& v, const std::string& key) {
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &pos);
  } catch (const std::exception&) {
    throw std::runtime_error("config: bad number for " + key + ": " + v);
  }
  if (pos != v.size()) {
    throw std::runtime_error("config: trailing junk for " + key + ": " + v);
  }
  if (!std::isfinite(d)) {
    throw std::runtime_error("config: non-finite number for " + key + ": " +
                             v);
  }
  return d;
}

/// A non-negative integer. Plain digits parse exactly over the whole
/// 64-bit range; other spellings ("1e3") must be an exactly integral
/// number below 2^53.
inline std::uint64_t parse_uint(const std::string& v, const std::string& key) {
  std::uint64_t n = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ptr == end && ec == std::errc{}) return n;
  if (ptr == end && ec == std::errc::result_out_of_range) {
    throw std::runtime_error("config: integer too large for " + key + ": " +
                             v);
  }
  const double d = parse_double(v, key);
  if (!(d >= 0.0) || d != std::floor(d) || d > 0x1p53) {
    throw std::runtime_error("config: expected non-negative integer for " +
                             key + ": " + v);
  }
  return static_cast<std::uint64_t>(d);
}

/// Classic two-row Levenshtein distance, for the unknown-key suggestions.
inline std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    cur[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, subst});
    }
    std::swap(prev, cur);
  }
  return prev[b.size()];
}

/// Nearest key among `candidates`, or "" when nothing is within the typo
/// threshold (a third of the key's length, but at least two edits — short
/// keys still deserve a hint, unrelated keys must not produce one).
inline std::string nearest_key(const std::string& key,
                               const std::vector<std::string>& candidates) {
  const std::size_t threshold = std::max<std::size_t>(2, key.size() / 3);
  std::size_t best = threshold + 1;
  std::string match;
  for (const auto& c : candidates) {
    const std::size_t d = edit_distance(key, c);
    if (d < best) {
      best = d;
      match = c;
    }
  }
  return match;
}

/// Drive the shared line syntax (comments, blank lines, `key = value`)
/// over a stream, calling fn(key, value, line_no) per assignment. Throws
/// "<context>: line N is not 'key = value'" on malformed lines.
template <typename Fn>
void parse_stream(std::istream& is, const std::string& context, Fn&& fn) {
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error(context + ": line " + std::to_string(line_no) +
                               " is not 'key = value': " + stripped);
    }
    fn(trim(stripped.substr(0, eq)), trim(stripped.substr(eq + 1)), line_no);
  }
}

}  // namespace keyio

/// The interval a numeric key's value may take, in the key's text unit.
struct Domain {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;

  [[nodiscard]] bool contains(double x) const {
    return std::isfinite(x) && (lo_open ? x > lo : x >= lo) &&
           (hi_open ? x < hi : x <= hi);
  }
  /// "must be in [lo, hi]" / "must be >= lo" — only built on failure.
  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os.precision(10);
    if (std::isinf(hi)) {
      os << "must be " << (lo_open ? "> " : ">= ") << lo;
    } else {
      os << "must be in " << (lo_open ? '(' : '[') << lo << ", " << hi
         << (hi_open ? ')' : ']');
    }
    return os.str();
  }
};

namespace domain {
inline constexpr double kInf = std::numeric_limits<double>::infinity();
inline constexpr Domain kProbability{0.0, 1.0};
inline constexpr Domain kNonNegative{0.0, kInf};
inline constexpr Domain kPositive{0.0, kInf, true};
/// Longest configurable span: one day of simulated time, so sums of
/// configured spans stay far inside Time's +-106-day range.
inline constexpr double kDaySec = 86400.0;
}  // namespace domain

/// How a numeric key's text maps onto its field: `from` parses the text
/// value into the field, `to` is the exact dump arithmetic back to text.
/// Time units also bound the text to Time's range at parse time. `domain`
/// is the default a declaration gets when it names none.
template <typename T>
struct Unit {
  T (*from)(double);
  double (*to)(const T&);
  double ps_per_unit;  ///< Time units only; 0 for every other unit
  Domain domain;
};

namespace units {
using domain::kDaySec;
using domain::kInf;
inline constexpr Unit<Time> ns{[](double v) { return Time::ns(v); },
                               [](const Time& t) { return t.to_ns(); }, 1e3,
                               {0.0, kDaySec * 1e9}};
inline constexpr Unit<Time> us{[](double v) { return Time::us(v); },
                               [](const Time& t) { return t.to_us(); }, 1e6,
                               {0.0, kDaySec * 1e6}};
inline constexpr Unit<Time> ms{[](double v) { return Time::ms(v); },
                               [](const Time& t) { return t.to_ms(); }, 1e9,
                               {0.0, kDaySec * 1e3}};
/// Period between 1 ps and 1 s.
inline constexpr Unit<Frequency> mhz{
    [](double v) { return Frequency::mhz(v); },
    [](const Frequency& f) { return f.to_mhz(); }, 0.0, {1e-6, 1e6}};
/// Watts written in microwatts / milliwatts; up to 1 kW.
inline constexpr Unit<double> uw{[](double v) { return v * 1e-6; },
                                 [](const double& w) { return w * 1e6; }, 0.0,
                                 {0.0, 1e9}};
inline constexpr Unit<double> mw{[](double v) { return v * 1e-3; },
                                 [](const double& w) { return w * 1e3; }, 0.0,
                                 {0.0, 1e6}};
/// The text is the field; every plain declaration names its domain.
inline constexpr Unit<double> plain{[](double v) { return v; },
                                    [](const double& v) { return v; }, 0.0,
                                    {-kInf, kInf}};
}  // namespace units

/// What a key's value is: the parser and dumper a declaration derives.
enum class KeyKind { kNumber, kInteger, kFlag, kChoice, kText };

/// A declaration's description, shared by every schema layer.
struct KeyInfo {
  std::string key;  ///< canonical key ("" for comment rows)
  KeyKind kind{KeyKind::kText};
  Domain domain;                   ///< numeric kinds, in the key's text unit
  std::vector<std::string> names;  ///< kChoice spellings
  std::string why;      ///< reason appended to a domain failure
  std::string comment;  ///< dump-only comment row when key is empty
};

template <typename Config>
class KeySchema {
 public:
  using Apply = std::function<void(Config&, const std::string&)>;
  using Dump = std::function<void(std::ostream&, const Config&)>;
  /// True when the field's current value lies in its declared domain.
  using Check = std::function<bool(const Config&)>;

  /// The field type an accessor names.
  template <typename Acc>
  using FieldOf = std::remove_cvref_t<std::invoke_result_t<Acc, Config&>>;

  struct Entry : KeyInfo {
    Apply apply;  ///< parse + assign into the config
    Dump dump;    ///< write the current value (no key, no newline)
    Check check;  ///< empty: any value the parser accepts is valid
  };

  /// `context` prefixes diagnostics ("config", "fleet config", ...).
  explicit KeySchema(std::string context) : context_{std::move(context)} {}

  /// A real-valued field in `unit`, restricted to `d`.
  template <typename Acc, typename T>
  KeySchema& number(std::string key, Acc acc, const Unit<T>& unit,
                    Domain d) {
    Entry e = named(std::move(key), KeyKind::kNumber);
    e.domain = d;
    e.apply = [acc, unit, k = e.key](Config& c, const std::string& v) {
      const double x = keyio::parse_double(v, k);
      if (unit.ps_per_unit > 0.0 &&
          !(std::fabs(x * unit.ps_per_unit) < 0x1p63)) {
        throw std::runtime_error("config: " + k +
                                 " is outside the time range: " + v);
      }
      acc(c) = unit.from(x);
    };
    e.dump = [acc, unit](std::ostream& os, const Config& c) {
      os << unit.to(acc(c));
    };
    e.check = [acc, unit, d](const Config& c) {
      return d.contains(unit.to(acc(c)));
    };
    return push(std::move(e));
  }
  /// A real-valued field in `unit` with the unit's default domain.
  template <typename Acc, typename T>
  KeySchema& number(std::string key, Acc acc, const Unit<T>& unit) {
    return number(std::move(key), acc, unit, unit.domain);
  }

  /// An unsigned integer field, restricted to [lo, hi] and to the field's
  /// width; `why` explains the bound in the failure message.
  template <typename Acc>
  KeySchema& integer(std::string key, Acc acc, double lo = 0.0,
                     double hi = domain::kInf, std::string why = {}) {
    using T = FieldOf<Acc>;
    static_assert(std::is_unsigned_v<T>);
    Entry e = named(std::move(key), KeyKind::kInteger);
    e.domain = Domain{lo, hi};
    e.why = std::move(why);
    e.apply = [acc, k = e.key, d = e.domain, w = e.why](
                  Config& c, const std::string& v) {
      const std::uint64_t n = keyio::parse_uint(v, k);
      if (n > std::numeric_limits<T>::max() ||
          !d.contains(static_cast<double>(n))) {
        throw std::runtime_error("config: " + k + " out of range (" +
                                 failure(d, w) + "): " + v);
      }
      acc(c) = static_cast<T>(n);
    };
    e.dump = [acc](std::ostream& os, const Config& c) { os << acc(c); };
    e.check = [acc, d = e.domain](const Config& c) {
      return d.contains(static_cast<double>(acc(c)));
    };
    return push(std::move(e));
  }

  /// A boolean field: true/1/on, false/0/off; dumps as true/false.
  template <typename Acc>
  KeySchema& flag(std::string key, Acc acc) {
    Entry e = named(std::move(key), KeyKind::kFlag);
    e.apply = [acc, k = e.key](Config& c, const std::string& v) {
      acc(c) = keyio::parse_bool(v, k);
    };
    e.dump = [acc](std::ostream& os, const Config& c) {
      os << (acc(c) ? "true" : "false");
    };
    return push(std::move(e));
  }

  /// An enum field spelled by one of `names` (name -> value).
  template <typename Acc>
  KeySchema& choice(std::string key, Acc acc,
                    std::vector<std::pair<std::string, FieldOf<Acc>>> names) {
    Entry e = named(std::move(key), KeyKind::kChoice);
    std::string expected;
    for (const auto& [name, value] : names) {
      e.names.push_back(name);
      expected += (expected.empty() ? "" : " or ") + name;
    }
    e.apply = [acc, names, k = e.key, expected](Config& c,
                                                const std::string& v) {
      for (const auto& [name, value] : names) {
        if (v == name) return void(acc(c) = value);
      }
      throw std::runtime_error("config: " + k + " must be " + expected +
                               ": " + v);
    };
    e.dump = [acc, names](std::ostream& os, const Config& c) {
      for (const auto& [name, value] : names) {
        if (acc(c) == value) os << name;
      }
    };
    return push(std::move(e));
  }

  /// A free-text field, stored and dumped verbatim.
  template <typename Acc>
  KeySchema& text(std::string key, Acc acc) {
    Entry e = named(std::move(key), KeyKind::kText);
    e.apply = [acc](Config& c, const std::string& v) { acc(c) = v; };
    e.dump = [acc](std::ostream& os, const Config& c) { os << acc(c); };
    return push(std::move(e));
  }

  /// Register a dump-only comment row ("# <text>") at this position.
  KeySchema& comment(std::string text) {
    entries_.push_back(named({}, KeyKind::kText));
    entries_.back().comment = std::move(text);
    return *this;
  }

  /// Graft a complete inner schema: every inner key parses, dumps and
  /// checks through `acc`, inner comment rows carry over. This is how
  /// layered formats share one table instead of re-implementing key
  /// fall-through.
  template <typename Inner, typename Acc>
  KeySchema& extend(const KeySchema<Inner>& inner, Acc acc) {
    for (const auto& ie : inner.entries()) {
      Entry e;
      static_cast<KeyInfo&>(e) = ie;
      if (ie.apply) {
        e.apply = [acc, f = ie.apply](Config& c, const std::string& v) {
          f(acc(c), v);
        };
        e.dump = [acc, f = ie.dump](std::ostream& os, const Config& c) {
          f(os, acc(c));
        };
      }
      if (ie.check) {
        e.check = [acc, f = ie.check](const Config& c) { return f(acc(c)); };
      }
      if (e.key.empty()) {
        entries_.push_back(std::move(e));
      } else {
        push(std::move(e));
      }
    }
    return *this;
  }

  /// True when `key` is a registered key.
  [[nodiscard]] bool known(const std::string& key) const {
    return index_.count(key) != 0;
  }

  /// The entry registered under `key`; throws like apply() when unknown.
  [[nodiscard]] const Entry& entry(const std::string& key,
                                   std::size_t line_no = 0) const {
    const auto it = index_.find(key);
    if (it == index_.end()) throw_unknown(key, line_no);
    return entries_[it->second];
  }

  /// Apply one assignment; throws "<context>: unknown key [at line N]:
  /// <key>" with a did-you-mean hint when the key is unknown, and the
  /// value's parse error (with " at line N") when the field cannot hold it.
  void apply(Config& config, const std::string& key, const std::string& value,
             std::size_t line_no = 0) const {
    const Entry& e = entry(key, line_no);
    try {
      e.apply(config, value);
    } catch (const std::runtime_error& err) {
      if (line_no == 0) throw;
      throw std::runtime_error(std::string{err.what()} + " at line " +
                               std::to_string(line_no));
    }
  }

  /// Parse a whole `key = value` stream into `config` (see apply()).
  void read(std::istream& is, Config& config) const {
    keyio::parse_stream(is, context_, [&](const std::string& key,
                                          const std::string& value,
                                          std::size_t line_no) {
      apply(config, key, value, line_no);
    });
  }

  /// Throws std::invalid_argument "<context>: <key> must be ..." for the
  /// first declared field whose value lies outside its domain.
  void check(const Config& config) const {
    for (const auto& e : entries_) {
      if (e.check && !e.check(config)) {
        throw std::invalid_argument(context_ + ": " + e.key + " " +
                                    failure(e.domain, e.why));
      }
    }
  }

  /// Parse `value` into a default Config and check it: throws as apply()
  /// and check() would for that one key.
  void check_value(const std::string& key, const std::string& value) const {
    Config probe{};
    apply(probe, key, value);
    check(probe);
  }

  /// Every registered key, sorted.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> keys;
    keys.reserve(index_.size());
    for (const auto& [key, idx] : index_) keys.push_back(key);
    return keys;
  }

  /// " (did you mean '<key>'?)" for the known key nearest to `key` by
  /// edit distance, or "" when nothing is plausibly a typo of it.
  [[nodiscard]] std::string did_you_mean(const std::string& key) const {
    const std::string hint = keyio::nearest_key(key, keys());
    return hint.empty() ? "" : " (did you mean '" + hint + "'?)";
  }

  /// Emit every entry in registration order in one pass: comment rows as
  /// "# <text>", keys as "key = <value>".
  void dump(std::ostream& os, const Config& config) const {
    for (const auto& e : entries_) {
      if (e.key.empty()) {
        os << "# " << e.comment << '\n';
      } else {
        os << e.key << " = ";
        e.dump(os, config);
        os << '\n';
      }
    }
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  [[noreturn]] void throw_unknown(const std::string& key,
                                  std::size_t line_no) const {
    std::string msg = context_ + ": unknown key";
    if (line_no != 0) msg += " at line " + std::to_string(line_no);
    throw std::runtime_error(msg + ": " + key + did_you_mean(key));
  }

  static Entry named(std::string key, KeyKind kind) {
    Entry e;
    e.key = std::move(key);
    e.kind = kind;
    return e;
  }

  KeySchema& push(Entry e) {
    index_.emplace(e.key, entries_.size());
    entries_.push_back(std::move(e));
    return *this;
  }

  static std::string failure(const Domain& d, const std::string& why) {
    std::string msg = d.describe();
    if (!why.empty()) msg += " (" + why + ")";
    return msg;
  }

  std::string context_;
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace aetr::core
