// Shared pieces of the layered benchmark: run settings, the metric record,
// the correctness tally, order statistics, and the span tracer.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into each layer's public functions; nothing under src/ is instrumented.
// Every span is recorded on the main thread, so the open-span stack gives
// each span its parent and self time = span minus its direct children.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One run's settings, all taken from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs, for the benchmark's own smoke test.
  bool smoke = false;
  /// Worker threads: min(4, nproc).
  std::size_t jobs = 1;
  /// Scratch directory inside the checkout (sockets, snapshots, CSVs).
  std::string work_dir;
};

struct Metric {
  double value{0.0};
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Attempted and failed operations. A failed op is counted, never dropped.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Count `n` ops that all passed or all failed; prints `what` on failure.
  void op(bool ok, const std::string& what, std::uint64_t n = 1);
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// FNV-1a 64 over a byte string, chainable through `h`.
[[nodiscard]] std::uint64_t fnv1a(const std::string& bytes,
                                  std::uint64_t h = 0xCBF29CE484222325ull);
/// Whole-file FNV-1a 64; throws std::runtime_error when unreadable.
[[nodiscard]] std::uint64_t file_digest(const std::string& path);

/// splitmix64 of (seed, k): independent sub-seeds from the --seed argument.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at top level
    std::uint32_t session;
  };

  /// Closes its span when it leaves scope. Inert when tracing is off.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint32_t session)
        : tracer_{&t}, id_{t.begin(name, session)} {}
    ~Scope() { tracer_->end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t id_;
  };

  explicit Tracer(bool on) : on_{on} {}
  [[nodiscard]] bool on() const { return on_; }

  [[nodiscard]] Scope scope(const char* name, std::uint32_t session = 0) {
    return Scope{*this, name, session};
  }
  std::int32_t begin(const char* name, std::uint32_t session = 0);
  void end(std::int32_t id);

  /// Inclusive durations, in seconds, of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  [[nodiscard]] double total(const std::string& name) const;
  /// Sum over spans called `name` of duration minus direct children.
  [[nodiscard]] double self_total(const std::string& name) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON ("X" events; tid = session id).
  void write_chrome_json(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point t0_{Clock::now()};
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
