// Determinism contract of parallel fitness evaluation, the bounded
// memoisation cache, and the offspring/immigrant replacement fixes.
#include <gtest/gtest.h>

#include "core/cosynth.hpp"
#include "core/ga.hpp"
#include "core/island_ga.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

GaOptions fast_ga() {
  GaOptions options;
  options.population_size = 24;
  options.max_generations = 30;
  options.stagnation_limit = 12;
  return options;
}

/// Bit-exact equality of everything a SynthesisResult determines.
void expect_identical(const SynthesisResult& a, const SynthesisResult& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.mode_cache_hits, b.mode_cache_hits);
  EXPECT_EQ(a.mode_cache_lookups, b.mode_cache_lookups);
  EXPECT_EQ(a.evaluation.avg_power_true, b.evaluation.avg_power_true);
  EXPECT_EQ(a.evaluation.avg_power_weighted, b.evaluation.avg_power_weighted);
  ASSERT_EQ(a.mapping.modes.size(), b.mapping.modes.size());
  for (std::size_t m = 0; m < a.mapping.modes.size(); ++m)
    EXPECT_EQ(a.mapping.modes[m].task_to_pe, b.mapping.modes[m].task_to_pe);
}

TEST(ParallelEvaluation, BitIdenticalToSerialOnSuites) {
  for (const int mul : {3, 6}) {
    const System system = make_mul(mul);
    SynthesisOptions options;
    options.ga = fast_ga();
    options.seed = 11;
    options.ga.num_threads = 1;
    const SynthesisResult serial = synthesize(system, options);
    options.ga.num_threads = 4;
    const SynthesisResult parallel = synthesize(system, options);
    SCOPED_TRACE("mul" + std::to_string(mul));
    expect_identical(serial, parallel);
  }
}

TEST(ParallelEvaluation, BitIdenticalWithDvs) {
  const System system = make_mul(3);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.use_dvs = true;
  options.seed = 5;
  options.ga.num_threads = 1;
  const SynthesisResult serial = synthesize(system, options);
  options.ga.num_threads = 0;  // all hardware threads
  const SynthesisResult parallel = synthesize(system, options);
  expect_identical(serial, parallel);
}

TEST(ParallelEvaluation, BitIdenticalWithoutMemoization) {
  const System system = make_mul(6);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.ga.memoize_evaluations = false;
  options.seed = 7;
  options.ga.num_threads = 1;
  const SynthesisResult serial = synthesize(system, options);
  options.ga.num_threads = 3;
  const SynthesisResult parallel = synthesize(system, options);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.cache_lookups, 0);
  EXPECT_EQ(serial.cache_hits, 0);
}

TEST(MemoCache, HitRateAccountingIsConsistent) {
  const System system = make_mul(3);
  SynthesisOptions options;
  options.ga = fast_ga();
  const SynthesisResult result = synthesize(system, options);
  EXPECT_GT(result.cache_lookups, 0);
  EXPECT_GE(result.cache_hits, 0);
  // Every lookup either hits or triggers exactly one evaluation.
  EXPECT_EQ(result.cache_hits + result.evaluations, result.cache_lookups);
}

TEST(MemoCache, ProgressExposesHitCounters) {
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  IslandGa ga(system, evaluator, {}, {}, fast_ga(), IslandOptions{}, 2);
  long last_lookups = -1;
  (void)ga.run([&](const GaProgress& p) {
    EXPECT_GE(p.cache_lookups, p.cache_hits);
    EXPECT_GE(p.cache_lookups, last_lookups);
    last_lookups = p.cache_lookups;
  });
  EXPECT_GT(last_lookups, 0);
}

TEST(MemoCache, BoundedCapacityChangesCostNotResults) {
  const System system = make_mul(3);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 9;
  options.ga.memoize_cache_capacity = 0;  // unbounded
  const SynthesisResult unbounded = synthesize(system, options);
  options.ga.memoize_cache_capacity = 16;  // tiny: constant eviction
  const SynthesisResult bounded = synthesize(system, options);
  // Eviction only forces recomputation; the search trajectory (and hence
  // the result) is unchanged.
  EXPECT_EQ(bounded.fitness, unbounded.fitness);
  EXPECT_EQ(bounded.generations, unbounded.generations);
  EXPECT_EQ(bounded.evaluation.avg_power_true,
            unbounded.evaluation.avg_power_true);
  EXPECT_GE(bounded.evaluations, unbounded.evaluations);
}

// ---- Offspring replacement clamp (elite-clobbering regression). --------

TEST(GaReplacement, OffspringCountClampedToNonEliteSlots) {
  // Pre-fix: replacement_fraction = 1.0 yielded 24 offspring for a
  // 24-strong population and overwrote the elite (including slot 0).
  EXPECT_EQ(ga_detail::clamped_offspring_count(1.0, 24, 2), 22);
  EXPECT_EQ(ga_detail::clamped_offspring_count(1.0, 10, 2), 8);
  EXPECT_EQ(ga_detail::clamped_offspring_count(0.5, 24, 2), 12);  // unchanged
  EXPECT_EQ(ga_detail::clamped_offspring_count(0.5, 64, 2), 32);  // default
  // Degenerate: everything elite -> no offspring at all.
  EXPECT_EQ(ga_detail::clamped_offspring_count(0.5, 4, 4), 0);
}

TEST(GaReplacement, ImmigrantSlotsAreSignedAndSkipCleanly) {
  // Pre-fix this arithmetic ran in std::size_t and relied on an
  // implementation-defined int round-trip of a huge value to stop.
  EXPECT_EQ(ga_detail::immigrant_slot(10, 8, 0), 1);
  EXPECT_EQ(ga_detail::immigrant_slot(10, 10, 0), -1);
  EXPECT_EQ(ga_detail::immigrant_slot(10, 10, 5), -6);
  EXPECT_EQ(ga_detail::immigrant_slot(64, 32, 4), 27);
}

TEST(GaReplacement, ImmigrantCountPinnedBehaviour) {
  // Truncation, capped by the free-slot walk (slots 3-i, elite 2 -> 2).
  EXPECT_EQ(ga_detail::immigrant_count(0.5, 10, 6, 2), 2);
  // Small population: trunc(0.05 * 10) == 0, but a nonzero fraction must
  // inject at least one immigrant when a free slot exists.
  EXPECT_EQ(ga_detail::immigrant_count(0.05, 10, 4, 2), 1);
  // Zero fraction stays zero — the >= 1 guarantee is only for nonzero.
  EXPECT_EQ(ga_detail::immigrant_count(0.0, 10, 4, 2), 0);
  // No free slots (offspring reach down to the elite boundary): zero even
  // with a nonzero fraction.
  EXPECT_EQ(ga_detail::immigrant_count(0.5, 10, 8, 2), 0);
  // Default-config value is unchanged by the fix: trunc(0.08 * 64) == 5.
  EXPECT_EQ(ga_detail::immigrant_count(0.08, 64, 32, 2), 5);
}

/// Options that make the per-generation evaluation count exactly
/// predictable: no memoisation, no improvement operators, no polish.
GaOptions counting_ga(int population, int generations) {
  GaOptions options;
  options.population_size = population;
  options.max_generations = generations;
  options.stagnation_limit = generations + 100;
  options.memoize_evaluations = false;
  options.shutdown_improvement_rate = 0.0;
  options.infeasibility_trigger = 1'000'000;
  options.final_hill_climb_passes = 0;
  options.final_two_opt_max_genes = 0;
  options.elite_count = 2;
  return options;
}

TEST(GaReplacement, FullReplacementPreservesElite) {
  // population 10, elite 2, replacement_fraction 1.0: offspring clamp to
  // 8, immigrants find no free slot. Evaluations are then exactly
  // 10 (generation 0) + 8 per later generation. Pre-fix the unclamped 10
  // offspring clobbered the elite and this count was 10 + 3*10.
  const System system = make_mul(3);
  GaOptions options = counting_ga(10, 4);
  options.replacement_fraction = 1.0;
  options.immigrant_fraction = 0.5;
  const Evaluator evaluator(system, EvaluationOptions{});
  IslandGa ga(system, evaluator, {}, {}, options, IslandOptions{}, 21);
  const SynthesisResult result = ga.run();
  EXPECT_EQ(result.generations, 4);
  EXPECT_EQ(result.evaluations, 10 + 3 * 8);
}

TEST(GaReplacement, OverflowingImmigrantsSkipWithoutWrap) {
  // offspring (6) + immigrants (5) > population (10) - elite (2): slots 3
  // and 2 are free for two immigrants, the rest must stop cleanly. Slot 2
  // is the first non-elite slot (elites occupy [0, elite)); the pre-fix
  // `slot <= elite` comparison wrongly treated it as protected and this
  // count was 10 + 3*7. Evaluations: 10 (generation 0) + (6 offspring +
  // 2 immigrants) per later generation.
  const System system = make_mul(3);
  GaOptions options = counting_ga(10, 4);
  options.replacement_fraction = 0.6;
  options.immigrant_fraction = 0.5;
  const Evaluator evaluator(system, EvaluationOptions{});
  IslandGa ga(system, evaluator, {}, {}, options, IslandOptions{}, 21);
  const SynthesisResult result = ga.run();
  EXPECT_EQ(result.evaluations, 10 + 3 * 8);
}

TEST(GaReplacement, FullReplacementStaysDeterministicInParallel) {
  const System system = make_mul(3);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.ga.replacement_fraction = 1.0;
  options.ga.immigrant_fraction = 0.4;
  options.seed = 13;
  options.ga.num_threads = 1;
  const SynthesisResult serial = synthesize(system, options);
  options.ga.num_threads = 4;
  const SynthesisResult parallel = synthesize(system, options);
  expect_identical(serial, parallel);
}

}  // namespace
}  // namespace mmsyn
