// CAVIAR AER hardware-interface-standard timing checker.
//
// The paper (§5) dimensions the interface so that "each event [is] completed
// within 700 ns", the bound from the CAVIAR standard v2.01. This monitor
// watches a channel and verifies the bound on every handshake.
#pragma once

#include <cstdint>

#include "aer/channel.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace aetr::aer {

/// Passive monitor: attach to a channel, read back compliance statistics.
class CaviarChecker {
 public:
  /// CAVIAR v2.01 handshake completion bound.
  static constexpr Time kDefaultBound = Time::ns(700);

  explicit CaviarChecker(AerChannel& channel, Time bound = kDefaultBound);

  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  /// Handshakes that exceeded the bound.
  [[nodiscard]] std::uint64_t violations() const { return violations_; }
  [[nodiscard]] bool compliant() const { return violations_ == 0; }

  /// Handshake duration statistics (seconds).
  [[nodiscard]] const RunningStats& durations() const { return durations_; }

  /// Serialize monitor state (bound_ comes from the constructor).
  void save_state(BlobWriter& w) const;
  void restore_state(BlobReader& r);

 private:
  Time bound_;
  Time req_rise_{Time::zero()};
  bool in_flight_{false};
  std::uint64_t checked_{0};
  std::uint64_t violations_{0};
  RunningStats durations_;
};

}  // namespace aetr::aer
