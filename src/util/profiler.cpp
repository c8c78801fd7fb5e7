#include "util/profiler.hpp"

#include <cstdlib>
#include <cstring>

namespace aetr::util {

namespace detail {

namespace {

bool env_wants_profile() {
  const char* v = std::getenv("AETR_PROFILE");
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "true") == 0 ||
         std::strcmp(v, "on") == 0;
}

}  // namespace

std::atomic<bool> g_prof_enabled{env_wants_profile()};
ProfSlot g_prof_slots[kProfSiteCount];

}  // namespace detail

const char* to_string(ProfSite s) {
  switch (s) {
    case ProfSite::kMcuDecode: return "mcu_decode";
    case ProfSite::kHarvest: return "harvest";
    case ProfSite::kScheduleMeasure: return "schedule_measure";
    case ProfSite::kWordPath: return "word_path";
    case ProfSite::kCount: break;
  }
  return "?";
}

void profiler_set_enabled(bool on) {
  detail::g_prof_enabled.store(on, std::memory_order_relaxed);
}

void profiler_reset() {
  for (auto& slot : detail::g_prof_slots) {
    slot.calls.store(0, std::memory_order_relaxed);
    slot.ns.store(0, std::memory_order_relaxed);
  }
}

ProfStats profiler_stats(ProfSite site) {
  const auto& slot = detail::g_prof_slots[static_cast<std::size_t>(site)];
  ProfStats st;
  st.calls = slot.calls.load(std::memory_order_relaxed);
  st.ns = slot.ns.load(std::memory_order_relaxed);
  return st;
}

}  // namespace aetr::util
