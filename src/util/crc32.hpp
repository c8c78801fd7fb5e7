// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), byte-wise.
//
// The one CRC of the system: the I2S carrier's batch trailer and the MCU's
// batch gate fold 32-bit words in little-endian byte order, the socket
// wire codec and Session snapshot blobs hash byte buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aetr {

/// Incremental form over 32-bit words: seed with crc32_init(), fold each
/// word in as its four little-endian bytes, finalise with crc32_final().
[[nodiscard]] constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t state,
                                         std::uint32_t word);
[[nodiscard]] constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC of a byte buffer.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size);
[[nodiscard]] std::uint32_t crc32(const std::vector<std::uint8_t>& bytes);

}  // namespace aetr
