#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "util/blob.hpp"

namespace aetr::telemetry {
namespace {

/// Deterministic microsecond rendering of a picosecond timestamp for the
/// Chrome trace format (ts/dur are microseconds): pure integer arithmetic,
/// six fractional digits, exact to the picosecond.
std::string us_fixed(Time t) {
  const auto ps = t.count_ps();
  const auto sign = ps < 0 ? -1 : 1;
  const auto mag = static_cast<std::uint64_t>(ps * sign);
  char buf[40];
  std::snprintf(buf, sizeof buf, "%s%" PRIu64 ".%06" PRIu64,
                sign < 0 ? "-" : "", mag / 1000000u, mag % 1000000u);
  return buf;
}

/// Deterministic value rendering: trailing-zero-free for integral values
/// (the common case — counts, levels), %.9g otherwise.
std::string num(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<std::int64_t>(v)) &&
      v >= -9e15 && v <= 9e15) {
    std::snprintf(buf, sizeof buf, "%" PRId64,
                  static_cast<std::int64_t>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return buf;
}

std::string json_escape(const char* s) {
  std::string out;
  for (const char* p = s; *p != '\0'; ++p) {
    switch (*p) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(*p) >= 0x20) out.push_back(*p);
    }
  }
  return out;
}

/// Stable ts order: Chrome/Perfetto tolerate unsorted input, but sorted
/// output makes the files diffable and the CSV readable.
std::vector<std::size_t> sorted_order(
    const std::vector<TraceSession::Event>& events) {
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return events[a].ts < events[b].ts;
                   });
  return order;
}

}  // namespace

// --- TraceSession -----------------------------------------------------------

TraceSession::Track TraceSession::track(const std::string& name) {
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return static_cast<Track>(i);
  }
  track_names_.push_back(name);
  return static_cast<Track>(track_names_.size() - 1);
}

const char* TraceSession::intern(const std::string& s) {
  interned_.push_back(s);
  return interned_.back().c_str();
}

void TraceSession::push(Phase phase, Track t, const char* name, Time ts,
                        Time dur, std::initializer_list<TraceArg> args) {
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  Event e;
  e.phase = phase;
  e.track = t;
  e.name = name;
  e.ts = ts;
  e.dur = dur;
  for (const auto& a : args) {
    if (e.n_args < 2) e.args[e.n_args++] = a;
  }
  events_.push_back(e);
}

void TraceSession::write_chrome_json(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return;
  os << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"source\":\"aetr\","
     << "\"dropped_events\":" << dropped_ << "},\n\"traceEvents\":[\n";
  bool first = true;
  const auto comma = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Process metadata: Perfetto groups the track lanes under the process
  // row, which renders as "(pid 1)" without an explicit process_name.
  comma();
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
     << "\"args\":{\"name\":\"aetr\"}}";
  comma();
  os << "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":1,"
     << "\"args\":{\"sort_index\":0}}";
  // Track-name metadata events: tid n renders as the named block lane.
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    comma();
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
       << ",\"args\":{\"name\":\"" << json_escape(track_names_[i].c_str())
       << "\"}}";
    // Fix lane order to track-creation (pipeline) order, not name order.
    comma();
    os << "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << i << ",\"args\":{\"sort_index\":" << i << "}}";
  }
  for (const std::size_t i : sorted_order(events_)) {
    const Event& e = events_[i];
    comma();
    os << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
       << json_escape(track_names_[e.track].c_str()) << "\",\"ph\":\""
       << static_cast<char>(e.phase) << "\",\"pid\":1,\"tid\":" << e.track
       << ",\"ts\":" << us_fixed(e.ts);
    if (e.phase == Phase::kComplete) os << ",\"dur\":" << us_fixed(e.dur);
    if (e.phase == Phase::kInstant) os << ",\"s\":\"t\"";
    if (e.n_args > 0) {
      os << ",\"args\":{";
      for (std::uint8_t a = 0; a < e.n_args; ++a) {
        os << (a ? "," : "") << "\"" << json_escape(e.args[a].key)
           << "\":" << num(e.args[a].value);
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

void TraceSession::write_csv(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return;
  os << "track,phase,name,ts_ps,dur_ps,arg0_key,arg0,arg1_key,arg1\n";
  for (const std::size_t i : sorted_order(events_)) {
    const Event& e = events_[i];
    os << track_names_[e.track] << ',' << static_cast<char>(e.phase) << ','
       << e.name << ',' << e.ts.count_ps() << ','
       << (e.phase == Phase::kComplete ? e.dur.count_ps() : 0);
    for (std::uint8_t a = 0; a < 2; ++a) {
      if (a < e.n_args) {
        os << ',' << e.args[a].key << ',' << num(e.args[a].value);
      } else {
        os << ",,";
      }
    }
    os << '\n';
  }
  if (dropped_ > 0) os << "#dropped," << dropped_ << '\n';
}

// --- MetricsRegistry --------------------------------------------------------

void MetricsRegistry::probe(const std::string& name, SampleFn fn) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      samplers_[i] = std::move(fn);
      return;
    }
  }
  names_.push_back(name);
  samplers_.push_back(std::move(fn));
}

LogHistogram* MetricsRegistry::log_histogram(const std::string& name,
                                             double lo, double hi,
                                             std::size_t bins_per_decade) {
  for (auto& [n, h] : histograms_) {
    if (n == name) return &h;
  }
  histograms_.emplace_back(name, LogHistogram{lo, hi, bins_per_decade});
  return &histograms_.back().second;
}

void MetricsRegistry::snapshot(Time t) {
  Snapshot s;
  s.at = t;
  s.values.reserve(samplers_.size());
  for (const auto& fn : samplers_) s.values.push_back(fn ? fn() : 0.0);
  snapshots_.push_back(std::move(s));
}

double MetricsRegistry::last(const std::string& name) const {
  if (snapshots_.empty()) return 0.0;
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      // A probe registered after the last snapshot has no column in it yet.
      const auto& values = snapshots_.back().values;
      return i < values.size() ? values[i] : 0.0;
    }
  }
  return 0.0;
}

void MetricsRegistry::write_csv(const std::string& path) const {
  std::ofstream os{path};
  if (!os) return;
  os << "time_ms";
  for (const auto& n : names_) os << ',' << n;
  os << '\n';
  for (const auto& s : snapshots_) {
    os << num(s.at.to_ms());
    for (const double v : s.values) os << ',' << num(v);
    os << '\n';
  }
  if (!histograms_.empty()) {
    os << "#histogram,bin_lo,bin_hi,count\n";
    for (const auto& [name, h] : histograms_) {
      for (std::size_t i = 0; i < h.bin_count(); ++i) {
        if (h.count(i) == 0.0) continue;
        os << name << ',' << num(h.bin_lo(i)) << ',' << num(h.bin_hi(i))
           << ',' << num(h.count(i)) << '\n';
      }
    }
  }
}

// --- snapshot/restore -------------------------------------------------------

void TraceSession::save_state(BlobWriter& w) const {
  w.u64(track_names_.size());
  for (const auto& n : track_names_) w.str(n);
  w.u64(events_.size());
  for (const Event& e : events_) {
    w.u8(static_cast<std::uint8_t>(e.phase));
    w.u32(e.track);
    w.str(e.name);
    w.time(e.ts);
    w.time(e.dur);
    w.u8(e.n_args);
    for (std::uint8_t a = 0; a < e.n_args; ++a) {
      w.str(e.args[a].key);
      w.f64(e.args[a].value);
    }
  }
  w.u64(dropped_);
}

void TraceSession::restore_state(BlobReader& r) {
  track_names_.clear();
  const auto nt = r.count(8);  // length-prefixed names
  track_names_.reserve(nt);
  for (std::size_t i = 0; i < nt; ++i) track_names_.push_back(r.str());
  events_.clear();
  const auto ne = r.count(30);  // fixed fields + an empty name
  events_.reserve(ne);
  for (std::size_t i = 0; i < ne; ++i) {
    Event e;
    e.phase = static_cast<Phase>(r.u8());
    e.track = r.u32();
    e.name = intern(r.str());
    e.ts = r.time();
    e.dur = r.time();
    e.n_args = r.u8();
    for (std::uint8_t a = 0; a < e.n_args && a < 2; ++a) {
      e.args[a].key = intern(r.str());
      e.args[a].value = r.f64();
    }
    events_.push_back(e);
  }
  dropped_ = r.u64();
}

void MetricsRegistry::save_state(BlobWriter& w) const {
  w.u64(snapshots_.size());
  for (const Snapshot& s : snapshots_) {
    w.time(s.at);
    w.u64(s.values.size());
    for (const double v : s.values) w.f64(v);
  }
  w.u64(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    w.str(name);
    w.f64(h.total());
    w.u64(h.bin_count());
    for (std::size_t i = 0; i < h.bin_count(); ++i) w.f64(h.count(i));
  }
}

void MetricsRegistry::restore_state(BlobReader& r) {
  snapshots_.clear();
  const auto ns = r.count(16);  // time + value count
  snapshots_.reserve(ns);
  for (std::size_t i = 0; i < ns; ++i) {
    Snapshot s;
    s.at = r.time();
    const auto nv = r.count(8);
    s.values.reserve(nv);
    for (std::size_t v = 0; v < nv; ++v) s.values.push_back(r.f64());
    snapshots_.push_back(std::move(s));
  }
  const auto nh = r.count(24);  // name + total + bin count
  for (std::size_t i = 0; i < nh; ++i) {
    const std::string name = r.str();
    const double total = r.f64();
    const auto bins = r.count(8);
    std::vector<double> counts;
    counts.reserve(bins);
    for (std::size_t b = 0; b < bins; ++b) counts.push_back(r.f64());
    LogHistogram* h = nullptr;
    for (auto& [n, hist] : histograms_) {
      if (n == name) {
        h = &hist;
        break;
      }
    }
    if (h == nullptr) {
      throw std::runtime_error(
          "MetricsRegistry::restore_state: histogram not registered: " + name);
    }
    h->set_counts(counts, total);
  }
}

// --- TelemetrySession -------------------------------------------------------

void TelemetrySession::save_state(BlobWriter& w) const {
  trace_.save_state(w);
  metrics_.save_state(w);
}

void TelemetrySession::restore_state(BlobReader& r) {
  trace_.restore_state(r);
  metrics_.restore_state(r);
}

void TelemetrySession::write_artifacts() const {
  if (trace_on() && !opt_.trace_json_path.empty()) {
    trace_.write_chrome_json(opt_.trace_json_path);
  }
  if (trace_on() && !opt_.trace_csv_path.empty()) {
    trace_.write_csv(opt_.trace_csv_path);
  }
  if (metrics_on() && !opt_.metrics_csv_path.empty()) {
    metrics_.write_csv(opt_.metrics_csv_path);
  }
}

}  // namespace aetr::telemetry
