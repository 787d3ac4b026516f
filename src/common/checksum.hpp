// Checksums and incremental hashing for on-disk state files.
//
// The checkpoint writer (core/run_control) protects its payload with a
// CRC-32 so a truncated or bit-flipped file is rejected instead of
// silently resuming from garbage, and fingerprints the GA configuration
// with FNV-1a so a checkpoint can refuse to resume under different
// options. Both live here because they are generic byte-level utilities.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mmsyn {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range.
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size);

[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(bytes.data(), bytes.size());
}

/// Incremental FNV-1a (64-bit) hasher for mixed scalar fields. Feed the
/// same field sequence on both sides and compare the digests; doubles are
/// hashed by bit pattern so the comparison is exact.
class Fnv1a64 {
public:
  Fnv1a64& add_bytes(const void* data, std::size_t size);
  Fnv1a64& add(std::uint64_t v);
  Fnv1a64& add(int v) { return add(static_cast<std::uint64_t>(v)); }
  Fnv1a64& add(long v) { return add(static_cast<std::uint64_t>(v)); }
  Fnv1a64& add(bool v) { return add(static_cast<std::uint64_t>(v)); }
  Fnv1a64& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }

  [[nodiscard]] std::uint64_t digest() const { return hash_; }

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// One step of the in-memory bucket hashes (ModeEvalKeyHash, the GA's
/// slice table): a multiply–xorshift fold of a whole word into `h`.
/// Never persisted, so it may change freely; a collision costs a key
/// compare, never a result.
[[nodiscard]] constexpr std::uint64_t mix_word(std::uint64_t h,
                                               std::uint64_t word) {
  h = (h ^ word) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 32);
}

}  // namespace mmsyn
