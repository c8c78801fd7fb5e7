// Host-side scoped sampling profiler for the simulator's residual hot path.
//
// PR 6's fast-path work left an ad-hoc wall-clock profile (mcu decode ~30%,
// harvest ~20%, schedule measure ~15%, word-path dispatch ~20%); this
// formalises those four sites so hot-path regressions become visible across
// PRs (bench/profile_hotpath -> BENCH_profile.json).
//
// Cost model mirrors AETR_TELEMETRY's: every ProfScope is one relaxed
// atomic load and a branch when profiling is off — no clock reads, no
// allocation, no stores. Enable at runtime with profiler_set_enabled(true)
// or by exporting AETR_PROFILE=1 before the process starts. Counters are
// global atomics (relaxed), so sweep workers may profile concurrently;
// totals are exact, attribution across threads is pooled.
//
// Wall-clock numbers are inherently nondeterministic, so profiler output
// must NEVER feed a deterministic artifact (CSV series, ledgers, traces) —
// it goes to BENCH_profile.json and stderr reports only.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

namespace aetr::util {

/// The instrumented sites (the PR 6 residual profile, one enumerator each).
enum class ProfSite : std::size_t {
  kMcuDecode,        ///< mcu::McuConsumer::decode_one
  kHarvest,          ///< run_scenario's delivery-latency harvest
  kScheduleMeasure,  ///< clockgen::SamplingSchedule::measure via capture
  kWordPath,         ///< I2S word_fn dispatch chain into the MCU
  kCount,
};

constexpr std::size_t kProfSiteCount =
    static_cast<std::size_t>(ProfSite::kCount);

[[nodiscard]] const char* to_string(ProfSite s);

namespace detail {
struct ProfSlot {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
};
extern std::atomic<bool> g_prof_enabled;
extern ProfSlot g_prof_slots[kProfSiteCount];
}  // namespace detail

/// Runtime toggle. Initialised once from the AETR_PROFILE environment
/// variable ("1"/"true"/"on"); flip at will afterwards.
[[nodiscard]] inline bool profiler_enabled() {
  return detail::g_prof_enabled.load(std::memory_order_relaxed);
}
void profiler_set_enabled(bool on);
/// Zero every site's counters (the toggle is left alone).
void profiler_reset();

struct ProfStats {
  std::uint64_t calls{0};
  std::uint64_t ns{0};
  [[nodiscard]] double sec() const {
    return static_cast<double>(ns) * 1e-9;
  }
};
[[nodiscard]] ProfStats profiler_stats(ProfSite site);


/// RAII sample: times the enclosing scope into its site's slot. When the
/// profiler is off, construction is a single relaxed load + branch and the
/// destructor a predictable non-taken branch — zero-cost in the same sense
/// as a detached telemetry session.
class ProfScope {
 public:
  explicit ProfScope(ProfSite site) {
    if (profiler_enabled()) [[unlikely]] {
      site_ = site;
      armed_ = true;
      t0_ = std::chrono::steady_clock::now();
    }
  }
  ~ProfScope() {
    if (armed_) [[unlikely]] {
      const auto dt = std::chrono::steady_clock::now() - t0_;
      auto& slot = detail::g_prof_slots[static_cast<std::size_t>(site_)];
      slot.calls.fetch_add(1, std::memory_order_relaxed);
      slot.ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                  .count()),
          std::memory_order_relaxed);
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  std::chrono::steady_clock::time_point t0_{};
  ProfSite site_{ProfSite::kMcuDecode};
  bool armed_{false};
};

}  // namespace aetr::util
