// Little-endian byte writer/reader shared by every binary format of the
// project: the checkpoint container (core/run_control), the job server's
// wire protocol (server/wire) and its write-ahead journal
// (server/journal).
//
// Integers are fixed-width little-endian, doubles travel by bit pattern
// (so round trips are exact), booleans are one byte, and strings are
// u32-length-prefixed byte runs. The reader takes the exception type of
// its format as a template parameter, so a damaged checkpoint still
// raises CheckpointError, a bad frame WireError and a torn record
// JournalError; the type needs a `const std::string&` constructor.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

namespace mmsyn {

class ByteWriter {
public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Appends the bytes as they are (no length prefix).
  void raw(std::string_view s) { bytes_.append(s.data(), s.size()); }
  /// u32 length prefix, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s);
  }

  /// Hands over the bytes written so far; write nothing more after.
  [[nodiscard]] std::string take() { return std::move(bytes_); }

private:
  void put(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::string bytes_;
};

/// Reads what ByteWriter wrote; any read past the end throws `Error`.
template <class Error>
class ByteReader {
public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  /// The next `n` bytes as a view into the input.
  std::string_view raw(std::size_t n) {
    need(n);
    const std::string_view slice = bytes_.substr(pos_, n);
    pos_ += n;
    return slice;
  }
  /// A u32-length-prefixed string.
  std::string str() { return std::string(raw(u32())); }

  /// Passes `n` through as the count of elements that take at least
  /// `element_bytes` each; a count the bytes left cannot hold means a
  /// damaged input, rejected before it can reach an allocation.
  std::uint64_t bounded(std::uint64_t n, std::uint64_t element_bytes) const {
    if (n > (bytes_.size() - pos_) / element_bytes)
      throw Error("element count " + std::to_string(n) +
                  " exceeds the payload");
    return n;
  }

  void expect_end() const {
    if (pos_ != bytes_.size()) throw Error("trailing bytes in payload");
  }

private:
  void need(std::size_t n) const {
    if (n > bytes_.size() - pos_) throw Error("payload truncated");
  }
  std::uint64_t get(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= std::uint64_t{static_cast<std::uint8_t>(bytes_[pos_++])} << (8 * i);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace mmsyn
