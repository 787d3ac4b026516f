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
//
// Records whose layout is a plain list of fields declare that list once,
// in encoding order, and put()/get() below walk it:
//
//   struct WaitRequest {
//     std::uint64_t job_id = 0;
//     template <class Self>
//     static auto fields(Self& s) { return std::tie(s.job_id); }
//   };
//
// The same list serves any other field-by-field walk of the record
// (digests, equality), so a field added to it reaches every one of them.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace mmsyn {

class ByteWriter {
public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
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
  void put_le(std::uint64_t v, int width) {
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
  std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  std::uint64_t u64() { return get_le(8); }
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
  std::uint64_t get_le(int width) {
    need(static_cast<std::size_t>(width));
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= std::uint64_t{static_cast<std::uint8_t>(bytes_[pos_++])} << (8 * i);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// Writes `v`: an integer at its declared width (an enum as its
/// underlying type), a bool, double or string as the methods above, a
/// std::vector<bool> as a u64 count and one byte per flag, and any other
/// type as its `T::fields(v)` list, each field in turn.
template <class T>
void put(ByteWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(v);
  } else if constexpr (std::is_enum_v<T>) {
    put(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T>) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    if constexpr (sizeof(T) == 1) w.u8(u);
    else if constexpr (sizeof(T) == 2) w.u16(u);
    else if constexpr (sizeof(T) == 4) w.u32(u);
    else w.u64(u);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
    w.u64(v.size());
    for (bool b : v) w.boolean(b);
  } else {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, T::fields(v));
  }
}

/// Reads back what put() wrote into `v`. A flag vector's count is
/// checked against the bytes left before anything is allocated.
template <class Error, class T>
void get(ByteReader<Error>& r, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = r.boolean();
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> u{};
    get(r, u);
    v = static_cast<T>(u);
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) v = static_cast<T>(r.u8());
    else if constexpr (sizeof(T) == 2) v = static_cast<T>(r.u16());
    else if constexpr (sizeof(T) == 4) v = static_cast<T>(r.u32());
    else v = static_cast<T>(r.u64());
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (std::is_same_v<T, std::vector<bool>>) {
    v.resize(r.bounded(r.u64(), 1));
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = r.boolean();
  } else {
    std::apply([&r](auto&... f) { (get(r, f), ...); }, T::fields(v));
  }
}

}  // namespace mmsyn
