#include "util/crc32.hpp"

#include <array>

namespace aetr {
namespace {

constexpr std::array<std::uint32_t, 256> kTable = [] {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0u ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}();

std::uint32_t fold(std::uint32_t state, const std::uint8_t* data,
                   std::size_t size) {
  for (std::size_t i = 0; i < size; ++i) {
    state = kTable[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  }
  return state;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t state, std::uint32_t word) {
  const std::uint8_t bytes[4] = {
      static_cast<std::uint8_t>(word), static_cast<std::uint8_t>(word >> 8),
      static_cast<std::uint8_t>(word >> 16),
      static_cast<std::uint8_t>(word >> 24)};
  return fold(state, bytes, sizeof bytes);
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return crc32_final(fold(crc32_init(), data, size));
}

std::uint32_t crc32(const std::vector<std::uint8_t>& bytes) {
  return crc32(bytes.data(), bytes.size());
}

}  // namespace aetr
