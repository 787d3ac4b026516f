#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <vector>

namespace mmsyn {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, LowEntropySeedsStillMix) {
  // Sequential seeds must not produce correlated first draws.
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 64; ++s) firsts.insert(Rng(s)());
  EXPECT_EQ(firsts.size(), 64u);
}

TEST(Rng, UniformIntRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::array<int, 6> counts{};
  for (int i = 0; i < 6000; ++i)
    counts[static_cast<std::size_t>(rng.uniform_int(0, 5))]++;
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 expected each
}

TEST(Rng, CanonicalInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.canonical();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRealRespectsBounds) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, PickWeightedFollowsWeights) {
  Rng rng(29);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 8000; ++i) counts[rng.pick_weighted(weights)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIsIndependentOfParentContinuation) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream differs from what the parent produces next.
  Rng parent_copy(5);
  (void)parent_copy();  // same draw the fork consumed
  EXPECT_NE(child(), parent());
}

TEST(Rng, StateRoundTripResumesStream) {
  Rng rng(99);
  (void)rng();
  (void)rng();
  const auto saved = rng.state();

  // A fresh generator restored from the saved state continues the exact
  // stream — the property the GA checkpoint/resume machinery relies on.
  Rng restored(1);
  restored.set_state(saved);
  Rng original = rng;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(restored(), original());
}

// ---- Engine selection & the counter-based (Threefry) engine. -----------

// Independent xoshiro256++ reference (re-implemented here from the
// published algorithm) — pins the stateful streams the tgff generator
// draws from, so the suite instances provably stay unchanged.
std::uint64_t ref_rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

struct RefXoshiro {
  std::array<std::uint64_t, 4> s{};
  explicit RefXoshiro(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : s) word = splitmix64(sm);
  }
  std::uint64_t next() {
    const std::uint64_t result = ref_rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = ref_rotl(s[3], 45);
    return result;
  }
};

TEST(Rng, LegacyKindReproducesHistoricStreams) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
    Rng via_default(seed);
    Rng via_kind(RngKind::kXoshiro, seed);
    RefXoshiro reference(seed);
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t expected = reference.next();
      EXPECT_EQ(via_default(), expected);
      EXPECT_EQ(via_kind(), expected);
    }
  }
}

TEST(Rng, ThreefryDrawIsPureFunctionOfSeedAndCounter) {
  const std::uint64_t seed = 12345;
  Rng rng(RngKind::kThreefry, seed);
  const auto key0 = rng.state()[0];
  const auto key1 = rng.state()[1];
  // The n-th draw equals word (n % 2) of block (n / 2) — no hidden state.
  for (std::uint64_t n = 0; n < 64; ++n) {
    const auto block = Rng::threefry2x64({n / 2, 0}, {key0, key1});
    EXPECT_EQ(rng(), block[n % 2]) << "draw " << n;
  }
}

TEST(Rng, ThreefryStateJumpLeapfrogsTheStream) {
  Rng sequential(RngKind::kThreefry, 7);
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < 40; ++i) draws.push_back(sequential());

  // Restoring {key, counter, phase} lands mid-stream without replaying.
  for (std::uint64_t n : {1ull, 2ull, 7ull, 31ull}) {
    Rng jumper(RngKind::kThreefry, 7);
    auto s = jumper.state();
    s[2] = n / 2;  // block counter
    s[3] = n % 2;  // phase
    jumper.set_state(s);
    for (std::uint64_t i = n; i < 40; ++i)
      EXPECT_EQ(jumper(), draws[static_cast<std::size_t>(i)]);
  }
}

TEST(Rng, ThreefryKnownBlockIsStable) {
  // Known answers: pin the Threefry2x64-20 round/key schedule so a
  // refactor cannot silently change every counter stream.
  using Block = std::array<std::uint64_t, 2>;
  // Random123's published test vector for the zero counter and key.
  EXPECT_EQ(Rng::threefry2x64({0, 0}, {0, 0}),
            (Block{0xc2b6e3a8c2c69865ull, 0x6f81ed42f350084dull}));
  // Blocks recorded from the round loop the unrolled rounds replaced.
  EXPECT_EQ(Rng::threefry2x64({1, 0}, {0, 0}),
            (Block{0xbaf51c00fb3a5957ull, 0xed553e57f10b3b42ull}));
  EXPECT_EQ(Rng::threefry2x64({0, 0},
                              {0x0123456789abcdefull, 0xfedcba9876543210ull}),
            (Block{0x31cb77f8835522b7ull, 0xdaee349c173b4741ull}));
  EXPECT_EQ(Rng::threefry2x64({~0ull, ~0ull}, {~0ull, ~0ull}),
            (Block{0xe02cb7c4d95d277aull, 0xd06633d0893b8b68ull}));
  EXPECT_EQ(Rng::threefry2x64({7, 1ull << 32},
                              {0x243f6a8885a308d3ull, 0x13198a2e03707344ull}),
            (Block{0x7dcc73213da45c2bull, 0xe0622a78d717617dull}));
}

TEST(Rng, ThreefryHelpersRespectDistributionContracts) {
  Rng rng(RngKind::kThreefry, 3);
  std::array<int, 6> counts{};
  for (int i = 0; i < 6000; ++i)
    counts[static_cast<std::size_t>(rng.uniform_int(0, 5))]++;
  for (int c : counts) EXPECT_GT(c, 800);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.canonical();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ThreefryStateRoundTripResumesStream) {
  Rng rng(RngKind::kThreefry, 99);
  (void)rng();  // mid-block: phase == 1, the awkward restore point
  const auto saved = rng.state();
  EXPECT_EQ(saved[3], 1u);
  Rng restored(RngKind::kThreefry, 1);
  restored.set_state(saved);
  Rng original = rng;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(restored(), original());
}

TEST(Rng, ForkPreservesEngineKind) {
  Rng counter(RngKind::kThreefry, 5);
  EXPECT_EQ(counter.fork().kind(), RngKind::kThreefry);
  Rng legacy(5);
  EXPECT_EQ(legacy.fork().kind(), RngKind::kXoshiro);
}

TEST(Rng, EnginesProduceDistinctStreams) {
  Rng a(RngKind::kXoshiro, 11), b(RngKind::kThreefry, 11);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(splitmix64(state2), first);
  EXPECT_EQ(splitmix64(state2), second);
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace mmsyn
