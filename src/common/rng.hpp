// Deterministic pseudo-random number generation.
//
// All stochastic components of mmsyn (benchmark generator, GA, improvement
// operators) draw from this generator so that a 64-bit seed fully determines
// every experiment. Two bit-portable engines are provided (see DESIGN.md
// §12):
//
//  - kXoshiro: xoshiro256++ (public-domain algorithm by Blackman & Vigna),
//    the original *stateful* engine. Still the default constructor so the
//    benchmark generator (src/tgff) and its suite instances stay
//    byte-identical.
//  - kThreefry: a Threefry2x64-style *counter-based* engine (Salmon et
//    al., "Parallel random numbers: as easy as 1, 2, 3"). The n-th draw
//    is a pure function of (seed, n), so streams can be split, replayed
//    or leapfrogged across any thread count or island decomposition
//    without serialising a hidden state evolution. The GA's only engine.
//
// Both engines expose their state as the same 4-word array, which the GA
// checkpoint format (run_control.hpp, `rng_state`) stores.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace mmsyn {

/// SplitMix64 — used to expand a single seed into engine keys/state and
/// to derive independent child seeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

namespace rng_streams {

/// Stream-id layout for the counter-based engine (DESIGN.md §14).
///
/// A stream id occupies the second word of the Threefry counter, so two
/// Rng instances with the same seed but different stream ids can never
/// feed the same (key, counter) block into the cipher: the streams are
/// disjoint by construction, not by statistical luck. Ids are partitioned
/// into domains (high 32 bits) with a per-domain index (low 32 bits) so
/// independent subsystems can reserve streams without coordinating:
///
///   domain 0 (kBase)     — exactly id 0, the legacy single-population
///                          stream; bit-identical to pre-island runs.
///   domain 1 (kIsland)   — one stream per GA island, index = island.
///   domain 2 (kLeapfrog) — reserved for per-thread leapfrog splits.
enum class Domain : std::uint32_t {
  kBase = 0,
  kIsland = 1,
  kLeapfrog = 2,
};

/// Packs (domain, index) into a stream id. Debug-asserts the reservation
/// rules: the base domain owns only index 0 (anything else would alias a
/// future sub-partition of the legacy stream), and the domain must be one
/// of the reserved values above.
[[nodiscard]] std::uint64_t stream_id(Domain domain, std::uint32_t index);

/// The stream of GA island `island` (domain kIsland).
[[nodiscard]] std::uint64_t island_stream(std::uint32_t island);

}  // namespace rng_streams

/// Random-engine selector (see file comment).
enum class RngKind : std::uint8_t {
  kXoshiro = 0,   ///< stateful xoshiro256++ (the legacy streams)
  kThreefry = 1,  ///< counter-based Threefry2x64 (depends only on seed+counter)
};

/// Pseudo-random engine with convenience sampling helpers.
///
/// Satisfies UniformRandomBitGenerator so it can feed <random>
/// distributions, but the helpers below are preferred: they are portable
/// (no libstdc++/libc++ distribution divergence).
class Rng {
public:
  using result_type = std::uint64_t;

  /// Legacy xoshiro256++ engine — the historic default, kept so existing
  /// call sites (the tgff generator in particular) produce unchanged
  /// streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Engine-selecting constructor. `Rng(RngKind::kXoshiro, s)` is exactly
  /// `Rng(s)`.
  Rng(RngKind kind, std::uint64_t seed);

  /// Stream-selecting constructor (kThreefry only; xoshiro has no counter
  /// to partition and rejects a nonzero stream). Streams with the same
  /// seed but different ids are disjoint by construction — the id becomes
  /// the second Threefry counter word, so no (key, counter) input can
  /// collide. Stream 0 is bit-identical to `Rng(kind, seed)`. Use the
  /// rng_streams:: helpers to pick ids.
  Rng(RngKind kind, std::uint64_t seed, std::uint64_t stream);

  [[nodiscard]] RngKind kind() const { return kind_; }

  /// The stream id this engine draws from (always 0 for kXoshiro).
  [[nodiscard]] std::uint64_t stream() const {
    return kind_ == RngKind::kThreefry ? state_[3] >> 1 : 0;
  }

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()();

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi);

  /// Uniform real in [0, 1).
  [[nodiscard]] double canonical();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p);

  /// Uniformly chosen index into a container of `size` elements. Requires
  /// size > 0.
  [[nodiscard]] std::size_t pick_index(std::size_t size);

  /// Uniformly chosen element reference.
  template <typename Container>
  [[nodiscard]] auto& pick(Container& c) {
    return c[pick_index(c.size())];
  }

  /// Index sampled proportionally to non-negative weights; at least one
  /// weight must be positive.
  [[nodiscard]] std::size_t pick_weighted(std::span<const double> weights);

  /// Fisher–Yates shuffle.
  template <typename Container>
  void shuffle(Container& c) {
    for (std::size_t i = c.size(); i > 1; --i) {
      using std::swap;
      swap(c[i - 1], c[pick_index(i)]);
    }
  }

  /// Derives a child generator (same engine kind) whose stream is
  /// independent of subsequent draws from this one (seeded via splitmix
  /// of a fresh draw).
  [[nodiscard]] Rng fork();

  /// Raw engine state, for checkpointing. Restoring a saved state resumes
  /// the stream exactly where it left off. Layout: the xoshiro words for
  /// kXoshiro; {key0, key1, block counter, (stream id << 1) | phase} for
  /// kThreefry — the stream id travels inside the state words, so island
  /// checkpoints need no extra field and stream 0 keeps the historic
  /// {.., counter, phase} layout bit-for-bit. The engine kind is *not*
  /// part of the words — callers restore into an Rng of the matching kind
  /// (the GA always uses kThreefry).
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) {
    state_ = state;
    block_valid_ = false;
  }

  /// One Threefry2x64 block: the pure function behind kThreefry, exposed
  /// for stream-stability tests and future leapfrog decompositions.
  [[nodiscard]] static std::array<std::uint64_t, 2> threefry2x64(
      std::array<std::uint64_t, 2> counter, std::array<std::uint64_t, 2> key);

private:
  [[nodiscard]] std::uint64_t next_xoshiro();
  [[nodiscard]] std::uint64_t next_threefry();

  RngKind kind_ = RngKind::kXoshiro;
  std::array<std::uint64_t, 4> state_{};
  // kThreefry block cache (derived from state_, never checkpointed).
  std::array<std::uint64_t, 2> block_{};
  bool block_valid_ = false;
};

}  // namespace mmsyn
