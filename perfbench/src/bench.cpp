#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace perfbench {

void Checks::op(bool ok, const std::string& what, std::uint64_t n) {
  attempted += n;
  if (!ok) {
    failed += n;
    std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream f{path, std::ios::binary};
  if (!f) throw std::runtime_error("perfbench: cannot read " + path);
  return fnv1a(std::string{std::istreambuf_iterator<char>(f),
                           std::istreambuf_iterator<char>()});
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::int32_t Tracer::begin(const char* name, std::uint32_t session) {
  if (!on_) return -1;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0_)
                       .count();
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, now, now, parent, session});
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

double Tracer::self_total(const std::string& name) const {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 &&
        name == spans_[static_cast<std::size_t>(s.parent)].name) {
      sum -= s.end_ns - s.start_ns;
    }
    if (name == s.name) sum += s.end_ns - s.start_ns;
  }
  return static_cast<double>(sum) * 1e-9;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os{path, std::ios::trunc};
  if (!os) throw std::runtime_error("perfbench: cannot write " + path);
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, s.session,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent);
    os << line;
  }
  os << "\n]}\n";
  if (!os) throw std::runtime_error("perfbench: write failed for " + path);
}

}  // namespace perfbench
