// Versioned little-endian binary blob serialization for snapshot/restore.
//
// The Session checkpoint format (docs/SERVICE.md) is built on these two
// helpers. All integers are written little-endian regardless of host order,
// doubles as IEEE-754 bit patterns via u64, and strings/byte-spans as a u64
// length prefix followed by the raw bytes. Readers throw std::runtime_error
// on truncation so a torn snapshot file is rejected rather than half-loaded,
// and element counts are read through BlobReader::count(), which bounds
// them by the bytes left before any container is sized from them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/time.hpp"

namespace aetr {

class BlobWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void b(bool v) { u8(v ? 1 : 0); }
  void time(Time t) { i64(t.count_ps()); }
  void str(std::string_view s) {
    u64(s.size());
    raw(s.data(), s.size());
  }
  // resize + memcpy rather than a range insert: GCC 12 misreads the
  // inserted range's bounds at LTO link (-Wstringop-overflow).
  void raw(const void* data, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    std::memcpy(bytes_.data() + at, data, n);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

class BlobReader {
 public:
  BlobReader(const std::uint8_t* data, std::size_t size)
      : data_{data}, size_{size} {}
  explicit BlobReader(const std::vector<std::uint8_t>& bytes)
      : BlobReader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  bool b() { return u8() != 0; }
  Time time() { return Time::ps(i64()); }
  std::string str() {
    std::uint64_t n = u64();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  void raw(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  /// A u64 element count, accepted only when that many items of at least
  /// `min_item_bytes` each fit in the bytes left: a forged count fails
  /// here, before it can size a reserve().
  std::size_t count(std::size_t min_item_bytes) {
    const std::uint64_t n = u64();
    if (n > remaining() / min_item_bytes) {
      throw std::runtime_error("blob: count " + std::to_string(n) +
                               " exceeds the " + std::to_string(remaining()) +
                               " bytes left");
    }
    return static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  void need(std::uint64_t n) const {
    if (n > size_ - pos_) {
      throw std::runtime_error("blob: truncated (need " + std::to_string(n) +
                               " bytes, have " + std::to_string(size_ - pos_) +
                               ")");
    }
  }
  std::uint64_t le(int n) {
    need(static_cast<std::uint64_t>(n));
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace aetr
