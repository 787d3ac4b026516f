#include "core/cosynth.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/run_control.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

SynthesisOptions small(std::uint64_t seed) {
  SynthesisOptions options;
  options.ga.population_size = 24;
  options.ga.max_generations = 60;
  options.ga.stagnation_limit = 20;
  options.seed = seed;
  return options;
}

// Golden trajectory: every other identity test compares two runs of the
// same build, so a refactor that shifts the GA's trajectory would pass
// them all. The recorded integers move with any change to the RNG draws,
// the evaluation order or the cache accounting.
struct GoldenRun {
  int islands;
  int generations;
  long evaluations;
  long cache_hits;
  long cache_lookups;
  long mode_cache_hits;
  long mode_cache_lookups;
};

TEST(Cosynth, TrajectoryMatchesRecordedGolden) {
  const System system = make_mul(4);
  // Both runs end on the same mapping.
  const std::vector<std::vector<int>> golden_mapping = {
      {1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
      {1, 2, 2, 1, 1, 2, 2, 1, 1, 1, 2, 1},
      {2, 1, 2, 1, 1, 1, 0, 2, 1, 2, 1, 1, 1},
      {2, 1, 1, 1, 1, 1, 0, 1, 2, 1, 1, 1, 1, 1, 1, 2, 0, 1, 0},
      {2, 2, 1, 2, 2, 0, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 0},
  };
  for (const GoldenRun& golden : {GoldenRun{1, 30, 480, 163, 643, 1520, 2400},
                                  GoldenRun{3, 30, 1029, 394, 1423, 2948,
                                            5145}}) {
    SCOPED_TRACE("islands " + std::to_string(golden.islands));
    SynthesisOptions options;
    options.seed = 21;
    options.ga.population_size = 24;
    options.ga.max_generations = 30;
    options.islands = golden.islands;
    options.migration_interval = 5;
    const SynthesisResult result = synthesize(system, options);
    EXPECT_EQ(result.generations, golden.generations);
    EXPECT_EQ(result.evaluations, golden.evaluations);
    EXPECT_EQ(result.cache_hits, golden.cache_hits);
    EXPECT_EQ(result.cache_lookups, golden.cache_lookups);
    EXPECT_EQ(result.mode_cache_hits, golden.mode_cache_hits);
    EXPECT_EQ(result.mode_cache_lookups, golden.mode_cache_lookups);
    ASSERT_EQ(result.mapping.modes.size(), golden_mapping.size());
    for (std::size_t m = 0; m < golden_mapping.size(); ++m) {
      std::vector<int> task_to_pe;
      for (PeId pe : result.mapping.modes[m].task_to_pe)
        task_to_pe.push_back(pe.value());
      EXPECT_EQ(task_to_pe, golden_mapping[m]) << "mode " << m;
    }
  }
}

TEST(Cosynth, MemoisationDoesNotChangeResults) {
  const System system = make_mul(9);
  SynthesisOptions with = small(6);
  with.ga.memoize_evaluations = true;
  SynthesisOptions without = small(6);
  without.ga.memoize_evaluations = false;
  const SynthesisResult a = synthesize(system, with);
  const SynthesisResult b = synthesize(system, without);
  EXPECT_DOUBLE_EQ(a.evaluation.avg_power_true,
                   b.evaluation.avg_power_true);
  EXPECT_EQ(a.fitness, b.fitness);
  // Memoisation strictly reduces the number of inner-loop evaluations.
  EXPECT_LE(a.evaluations, b.evaluations);
}

TEST(Cosynth, SchedulingPolicyIsPlumbedThrough) {
  const System system = make_mul(9);
  for (SchedulingPolicy policy :
       {SchedulingPolicy::kBottomLevel, SchedulingPolicy::kTopoOrder,
        SchedulingPolicy::kLongestTask}) {
    SynthesisOptions options = small(7);
    options.scheduling_policy = policy;
    const SynthesisResult result = synthesize(system, options);
    EXPECT_TRUE(result.evaluation.feasible());
    EXPECT_GT(result.evaluation.avg_power_true, 0.0);
  }
}

TEST(Cosynth, FinalEvaluationKeepsSchedules) {
  const System system = make_mul(11);
  const SynthesisResult result = synthesize(system, small(8));
  for (const ModeEvaluation& m : result.evaluation.modes)
    EXPECT_TRUE(m.schedule.has_value());
}

TEST(Cosynth, BaselineUsesUniformWeightsOnlyInObjective) {
  // The probability-neglecting run must still *report* with the true Ψ:
  // its avg_power_weighted (uniform) and avg_power_true (Ψ) differ unless
  // the mode powers are equal.
  const System system = make_mul(6);
  SynthesisOptions options = small(9);
  options.consider_probabilities = false;
  const SynthesisResult result = synthesize(system, options);
  // Reported power is the Ψ-weighted combination of per-mode powers.
  double expected = 0.0;
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m)
    expected += (result.evaluation.modes[m].dyn_power +
                 result.evaluation.modes[m].static_power) *
                system.omsm.mode(ModeId{static_cast<int>(m)}).probability;
  EXPECT_NEAR(result.evaluation.avg_power_true, expected, 1e-12);
}

TEST(Cosynth, DvsInLoopCoarsenessDoesNotAffectFinalReportingConfig) {
  // The reported evaluation always uses the fine DVS settings, so making
  // the in-loop settings coarser can change *which* mapping wins but the
  // reported number is always a fine evaluation of that mapping.
  const System system = make_mul(9);
  SynthesisOptions options = small(10);
  options.use_dvs = true;
  options.dvs_in_loop.max_iterations_per_node = 2;  // very coarse
  const SynthesisResult result = synthesize(system, options);
  // Re-evaluate the returned mapping with the fine settings: identical.
  EvaluationOptions fine;
  fine.use_dvs = true;
  fine.dvs = options.dvs_final;
  const Evaluator evaluator(system, fine);
  const Evaluation check = evaluator.evaluate(result.mapping, result.cores);
  EXPECT_NEAR(check.avg_power_true, result.evaluation.avg_power_true, 1e-12);
}

TEST(Cosynth, CompletedRunHasNoStopReason) {
  const System system = make_mul(6);
  const SynthesisResult result = synthesize(system, small(3));
  EXPECT_FALSE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kNone);
}

TEST(Cosynth, BudgetExhaustionIsTypedRecoverableOutcome) {
  // An expired wall-clock budget is not a generic "cancelled": service
  // layers need to distinguish "the job used up its budget, here is the
  // partial fine-DVS result" from an external cancellation.
  const System system = make_mul(9);
  SynthesisOptions options = small(4);
  options.ga.max_generations = 1'000'000;
  options.ga.stagnation_limit = 1'000'000;
  RunControl control;
  control.time_budget_seconds = 1e-9;  // expires at the first boundary
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kBudgetExhausted);
  // The partial result still carries a priced best-so-far evaluation.
  EXPECT_GT(result.evaluation.avg_power_true, 0.0);
}

TEST(Cosynth, CancellationIsTypedSeparatelyFromBudget) {
  const System system = make_mul(9);
  SynthesisOptions options = small(4);
  options.ga.max_generations = 1'000'000;
  options.ga.stagnation_limit = 1'000'000;
  RunControl control;
  control.request_cancel();
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
}

TEST(Cosynth, BudgetTakesPrecedenceOverConcurrentCancel) {
  // When both stop conditions hold at the same generation boundary the
  // typed reason is budget exhaustion — the recoverable outcome — so a
  // watchdog cancel racing the budget check cannot mask it.
  const System system = make_mul(9);
  SynthesisOptions options = small(4);
  options.ga.max_generations = 1'000'000;
  options.ga.stagnation_limit = 1'000'000;
  RunControl control;
  control.time_budget_seconds = 1e-9;
  control.request_cancel();
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kBudgetExhausted);
}

}  // namespace
}  // namespace mmsyn
