// Batch framing for the AETR carrier.
//
// Raw AETR words on I2S leave the MCU no way to detect a dropped word, a
// bit error, or where a batch starts after it wakes mid-stream. This layer
// wraps each drained batch into a frame:
//
//   header : [magic 0xA5 : 8 | sequence : 8 | payload length : 16]
//   payload: the AETR words
//   trailer: CRC-32 (IEEE, reflected) over the payload words
//
// The decoder resynchronises on the magic byte, verifies length and CRC,
// and reports sequence gaps — everything a robust MCU driver needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "aer/event.hpp"

namespace aetr::i2s {

/// CRC-32 (util/crc32.hpp) over 32-bit words fed in little-endian byte
/// order.
[[nodiscard]] std::uint32_t crc32_words(const std::vector<std::uint32_t>& words);

/// Frame assembly.
class FrameEncoder {
 public:
  static constexpr std::uint32_t kMagic = 0xA5;
  static constexpr std::size_t kMaxPayload = 0xFFFF;

  /// Wrap one batch; returns header + payload + CRC trailer.
  /// Throws std::invalid_argument if the batch exceeds kMaxPayload.
  [[nodiscard]] std::vector<std::uint32_t> encode(
      const std::vector<aer::AetrWord>& batch);

  [[nodiscard]] std::uint8_t next_sequence() const { return seq_; }

 private:
  std::uint8_t seq_{0};
};

/// Streaming frame parser with resynchronisation.
class FrameDecoder {
 public:
  /// Delivered for every CRC-clean frame: (sequence, payload).
  using FrameFn =
      std::function<void(std::uint8_t seq, const std::vector<aer::AetrWord>&)>;

  explicit FrameDecoder(FrameFn on_frame) : on_frame_{std::move(on_frame)} {}

  /// Feed one received word.
  void feed(std::uint32_t word);

  // --- health counters --------------------------------------------------
  [[nodiscard]] std::uint64_t frames_ok() const { return frames_ok_; }
  [[nodiscard]] std::uint64_t crc_errors() const { return crc_errors_; }
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  /// Total missing frames implied by sequence jumps.
  [[nodiscard]] std::uint64_t sequence_gaps() const { return seq_gaps_; }

 private:
  enum class State { kHunting, kPayload, kTrailer };

  FrameFn on_frame_;
  State state_{State::kHunting};
  std::uint8_t seq_{0};
  std::size_t expected_{0};
  std::vector<std::uint32_t> payload_;
  bool have_last_seq_{false};
  std::uint8_t last_seq_{0};
  std::uint64_t frames_ok_{0};
  std::uint64_t crc_errors_{0};
  std::uint64_t resyncs_{0};
  std::uint64_t seq_gaps_{0};
};

}  // namespace aetr::i2s
