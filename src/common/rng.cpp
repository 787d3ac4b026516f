#include "common/rng.hpp"

#include <bit>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace mmsyn {

namespace rng_streams {

std::uint64_t stream_id(Domain domain, std::uint32_t index) {
  // Reservation audit: the base domain owns exactly one id (0); only the
  // domains declared in the header exist. A new subsystem that needs
  // streams must claim a fresh domain value there — reusing an existing
  // one would overlap another subsystem's reservation.
  assert(domain == Domain::kBase || domain == Domain::kIsland ||
         domain == Domain::kLeapfrog);
  assert(domain != Domain::kBase || index == 0);
  return (std::uint64_t{static_cast<std::uint32_t>(domain)} << 32) | index;
}

std::uint64_t island_stream(std::uint32_t island) {
  return stream_id(Domain::kIsland, island);
}

}  // namespace rng_streams

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  // Expand the seed so that low-entropy seeds (0, 1, 2, ...) still yield
  // well-mixed initial state.
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng::Rng(RngKind kind, std::uint64_t seed) : kind_(kind) {
  if (kind_ == RngKind::kXoshiro) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    return;
  }
  // Counter engine: state = {key0, key1, block counter, phase}. The key
  // is seed-expanded the same way as the xoshiro state so low-entropy
  // seeds still key well-separated streams.
  std::uint64_t sm = seed;
  state_[0] = splitmix64(sm);
  state_[1] = splitmix64(sm);
  state_[2] = 0;  // block counter
  state_[3] = 0;  // (stream id << 1) | phase within the 2-word block
}

Rng::Rng(RngKind kind, std::uint64_t seed, std::uint64_t stream)
    : Rng(kind, seed) {
  if (stream == 0) return;
  if (kind != RngKind::kThreefry)
    throw std::invalid_argument(
        "rng: nonzero stream ids require the counter-based Threefry engine "
        "(the stateful xoshiro engine has no counter to partition)");
  // The id shares state_[3] with the 1-bit block phase; ids this large
  // cannot come from the (domain << 32 | index) layout anyway.
  assert(stream < (std::uint64_t{1} << 63));
  state_[3] = stream << 1;
}

std::array<std::uint64_t, 2> Rng::threefry2x64(
    std::array<std::uint64_t, 2> counter, std::array<std::uint64_t, 2> key) {
  // Threefry2x64, 20 rounds (the Random123 default). The key schedule
  // parity constant is from Skein/Threefish. Written out round by round:
  // a loop indexing its rotation table by `r % 8` is not unrolled at -O3
  // and costs about four times as much per block.
  constexpr std::uint64_t kParity = 0x1BD11BDAA9FC1A22ull;
  const std::uint64_t ks[3] = {key[0], key[1], kParity ^ key[0] ^ key[1]};
  std::uint64_t x0 = counter[0] + ks[0];
  std::uint64_t x1 = counter[1] + ks[1];
  const auto round = [&](int rotation) {
    x0 += x1;
    x1 = std::rotl(x1, rotation) ^ x0;
  };
  // Key injection after every fourth round; `s` counts the injections.
  const auto inject = [&](std::uint64_t s) {
    x0 += ks[s % 3];
    x1 += ks[(s + 1) % 3] + s;
  };
  round(16); round(42); round(12); round(31); inject(1);
  round(16); round(32); round(24); round(21); inject(2);
  round(16); round(42); round(12); round(31); inject(3);
  round(16); round(32); round(24); round(21); inject(4);
  round(16); round(42); round(12); round(31); inject(5);
  return {x0, x1};
}

std::uint64_t Rng::next_xoshiro() {
  const std::uint64_t result =
      std::rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_threefry() {
  // state_[3] packs (stream id << 1) | phase. The stream id fills the
  // second counter word, so distinct streams of the same key can never
  // collide on a (key, counter) input; stream 0 reproduces the historic
  // {counter, 0} blocks bit-for-bit.
  if (!block_valid_) {
    block_ = threefry2x64({state_[2], state_[3] >> 1}, {state_[0], state_[1]});
    block_valid_ = true;
  }
  const std::uint64_t out = block_[state_[3] & 1];
  if ((state_[3] & 1) == 0) {
    state_[3] |= 1;
  } else {
    state_[3] &= ~std::uint64_t{1};
    ++state_[2];
    block_valid_ = false;
  }
  return out;
}

Rng::result_type Rng::operator()() {
  if (kind_ == RngKind::kXoshiro) return next_xoshiro();
  return next_threefry();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Debiased modulo (rejection sampling on the top of the range).
  const std::uint64_t limit = max() - max() % range;
  std::uint64_t draw;
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::canonical() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * canonical();
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return canonical() < p;
}

std::size_t Rng::pick_index(std::size_t size) {
  assert(size > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

std::size_t Rng::pick_weighted(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  assert(total > 0.0);
  double r = uniform_real(0.0, total);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;  // numeric tail: return last positive entry
}

Rng Rng::fork() {
  std::uint64_t s = (*this)();
  return Rng{kind_, splitmix64(s)};
}

}  // namespace mmsyn
