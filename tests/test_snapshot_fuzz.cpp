// Session snapshot blobs are input from outside the process (files on disk,
// possibly torn or bit-rotted), so restore() must reject every damaged
// blob with a std::runtime_error instead of loading corrupt state.
//
// A mid-stream blob is mutated region by region — magic, version, config
// fingerprint, session and component state, CRC-32 trailer — by single-bit
// flips, then truncated and extended. Every mutant must throw. A CRC-valid
// blob with a forged element count must throw too, before any container is
// sized from the count. The byte codec's own fuzzers live in
// test_net_wire.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fault/fault_plan.hpp"
#include "gen/sources.hpp"
#include "util/crc32.hpp"

// Largest single allocation requested while armed. Requests above the cap
// fail without reaching malloc, so an unbounded reserve() shows up as a
// recorded size (and a std::bad_alloc) instead of exhausting memory.
namespace {
std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_largest{0};
constexpr std::size_t kAllocCap = std::size_t{64} << 20;
}  // namespace

void* operator new(std::size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
    if (n > kAllocCap) throw std::bad_alloc{};
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace aetr;

core::ScenarioConfig scenario() {
  core::ScenarioConfig sc;
  sc.fast_forward = false;
  sc.faults = fault::scaled_plan(0.3, 42);
  return sc;
}

/// The fault scenario with tracing and metrics on (no artifact paths), so
/// the telemetry sections are in the blob too.
core::ScenarioConfig traced_scenario() {
  core::ScenarioConfig sc = scenario();
  telemetry::SessionOptions tel;
  tel.trace = true;
  tel.metrics = true;
  tel.metrics_window = Time::us(50.0);
  sc.telemetry = core::TelemetryChoice::owned(tel);
  return sc;
}

/// Snapshot taken mid-stream: events delivered, some still buffered.
std::vector<std::uint8_t> mid_stream_blob(
    const core::ScenarioConfig& sc = scenario(), std::size_t n = 600,
    std::size_t at = 400) {
  gen::PoissonSource source{100e3, 256, 9};
  const aer::EventStream events = gen::take(source, n);
  core::Session s{sc};
  s.feed_all(events);
  s.advance_to(events[at].time);
  return s.snapshot();
}

/// Returns the restore() error text, or "" when the blob was accepted.
std::string restore_error(const std::vector<std::uint8_t>& blob,
                          const core::ScenarioConfig& sc = scenario()) {
  core::Session fresh{sc};
  try {
    fresh.restore(blob);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

struct Region {
  const char* name;
  std::size_t begin;
  std::size_t end;
};

/// Layout: "AETRSNAP" | u32 version | u64 length + fingerprint text |
/// state sections | u32 CRC-32 trailer.
std::vector<Region> regions(const std::vector<std::uint8_t>& blob) {
  std::uint64_t text = 0;
  for (int i = 0; i < 8; ++i) {
    text |= static_cast<std::uint64_t>(blob[12 + static_cast<std::size_t>(i)])
            << (8 * i);
  }
  const std::size_t state = 20 + static_cast<std::size_t>(text);
  return {{"magic", 0, 8},
          {"version", 8, 12},
          {"fingerprint", 12, state},
          {"state", state, blob.size() - 4},
          {"trailer", blob.size() - 4, blob.size()}};
}

TEST(SnapshotFuzz, IntactBlobRestores) {
  const auto blob = mid_stream_blob();
  EXPECT_EQ(restore_error(blob), "");
}

TEST(SnapshotFuzz, EverySampledBitFlipInEveryRegionThrows) {
  const auto blob = mid_stream_blob();
  std::mt19937_64 rng{20261020};
  for (const Region& region : regions(blob)) {
    ASSERT_LT(region.begin, region.end) << region.name;
    const std::size_t bits = (region.end - region.begin) * 8;
    // Every bit of the small regions, 400 sampled bits of the large ones.
    const std::size_t flips = std::min<std::size_t>(bits, 400);
    for (std::size_t k = 0; k < flips; ++k) {
      const std::size_t bit =
          bits <= 400 ? k : std::uniform_int_distribution<std::size_t>{
                                0, bits - 1}(rng);
      auto mutant = blob;
      mutant[region.begin + bit / 8] ^=
          static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_NE(restore_error(mutant), "")
          << region.name << " bit " << bit << " restored without error";
    }
  }
}

TEST(SnapshotFuzz, CorruptStateNamesTheChecksum) {
  auto blob = mid_stream_blob();
  blob[blob.size() / 2] ^= 0x10u;
  EXPECT_NE(restore_error(blob).find("CRC-32"), std::string::npos);
}

TEST(SnapshotFuzz, EveryTruncationThrows) {
  const auto blob = mid_stream_blob();
  std::mt19937_64 rng{7};
  std::vector<std::size_t> lengths{0, 1, 8, 11, 12, 15, 16, 19, 20,
                                   blob.size() / 2, blob.size() - 5,
                                   blob.size() - 4, blob.size() - 1};
  for (int k = 0; k < 100; ++k) {
    lengths.push_back(std::uniform_int_distribution<std::size_t>{
        0, blob.size() - 1}(rng));
  }
  for (const std::size_t n : lengths) {
    const std::vector<std::uint8_t> cut(blob.begin(),
                                        blob.begin() + static_cast<long>(n));
    EXPECT_NE(restore_error(cut), "") << "truncated to " << n << " bytes";
  }
}

TEST(SnapshotFuzz, EveryExtensionThrows) {
  const auto blob = mid_stream_blob();
  for (const std::size_t extra : {1u, 3u, 4u, 5u, 64u}) {
    for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
      auto longer = blob;
      longer.resize(blob.size() + extra, fill);
      EXPECT_NE(restore_error(longer), "")
          << "extended by " << extra << " bytes of " << int{fill};
    }
    // The intact trailer repeated: a second, valid-looking CRC word.
    auto doubled = blob;
    for (std::size_t i = 0; i < extra; ++i) {
      doubled.push_back(blob[blob.size() - 4 + i % 4]);
    }
    EXPECT_NE(restore_error(doubled), "") << "trailer repeated, +" << extra;
  }
}

TEST(SnapshotFuzz, ForgedCountsThrowBeforeAnyLargeAllocation) {
  // Every u64 position of the state region in turn is rewritten to 2^40
  // and to (bytes left after it) + 1, with the CRC trailer recomputed so
  // the forgery reaches the state readers. Wherever the position is an
  // element count, the count guard must reject it; nowhere may a forged
  // value size an allocation beyond a few times the blob.
  for (const auto& sc : {scenario(), traced_scenario()}) {
    const auto blob = mid_stream_blob(sc, 24, 16);
    const Region state = regions(blob)[3];
    const std::size_t payload = blob.size() - 4;
    std::size_t guarded = 0;
    for (std::size_t off = state.begin; off + 8 <= payload; ++off) {
      const std::uint64_t left = payload - (off + 8);
      for (const std::uint64_t forged : {std::uint64_t{1} << 40, left + 1}) {
        auto mutant = blob;
        for (std::size_t i = 0; i < 8; ++i) {
          mutant[off + i] = static_cast<std::uint8_t>(forged >> (8 * i));
        }
        const std::uint32_t crc = crc32(mutant.data(), payload);
        for (std::size_t i = 0; i < 4; ++i) {
          mutant[payload + i] = static_cast<std::uint8_t>(crc >> (8 * i));
        }
        core::Session fresh{sc};
        g_largest = 0;
        g_armed = true;
        std::string error;
        try {
          fresh.restore(mutant);
        } catch (const std::exception& e) {
          error = e.what();
        }
        g_armed = false;
        EXPECT_LE(g_largest.load(), 64 * blob.size())
            << "offset " << off << " forged " << forged << ": " << error;
        if (error.find("blob: count") != std::string::npos) ++guarded;
      }
    }
    // Both forgeries of every counted section (pending events, FIFO words,
    // records, sender queues, violations, MCU logs, latencies, trace and
    // metric series) are caught by the guard.
    EXPECT_GE(guarded, 20u);
  }
}

}  // namespace
