// GA-level random-stream stability (DESIGN.md §12): the counter-based
// engine yields bit-identical populations and results for any thread
// count.
#include <gtest/gtest.h>

#include <string>

#include "core/cosynth.hpp"
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

void expect_results_identical(const SynthesisResult& a,
                              const SynthesisResult& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.evaluation.avg_power_true, b.evaluation.avg_power_true);
  ASSERT_EQ(a.mapping.modes.size(), b.mapping.modes.size());
  for (std::size_t m = 0; m < a.mapping.modes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    EXPECT_EQ(a.mapping.modes[m].task_to_pe, b.mapping.modes[m].task_to_pe);
  }
}

// The headline counter-engine property: the whole GA trajectory — not
// just the final fitness — is a pure function of the seed, so runs under
// 1, 4 and 16 evaluation threads match bit for bit.
TEST(RngStreams, ThreefryTrajectoryIdenticalAcrossThreadCounts) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 21;

  options.ga.num_threads = 1;
  const SynthesisResult one = synthesize(system, options);
  options.ga.num_threads = 4;
  const SynthesisResult four = synthesize(system, options);
  options.ga.num_threads = 16;
  const SynthesisResult sixteen = synthesize(system, options);

  expect_results_identical(one, four);
  expect_results_identical(one, sixteen);
}

}  // namespace
}  // namespace mmsyn
