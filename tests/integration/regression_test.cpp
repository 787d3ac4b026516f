// Headline-number regression pins.
//
// These run the *default* synthesis configuration (the one the bench
// binaries use) on fixed seeds and assert loose lower bounds on the
// paper-shape results, so a future change that silently destroys the
// reproduction (e.g. a generator or GA regression) fails the suite
// instead of only showing up in the bench output. The committed inputs
// under tests/data pin crashes once found, as audited syntheses.
#include <gtest/gtest.h>

#include <string>

#include "core/cosynth.hpp"
#include "model/io.hpp"

#include "../support/audit_every_result.hpp"
#include "tgff/smart_phone.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

double reduction_pct(const System& system, bool dvs, std::uint64_t seed) {
  SynthesisOptions options;
  options.use_dvs = dvs;
  options.seed = seed;
  options.consider_probabilities = false;
  const double base =
      audited_synthesize(system, options).evaluation.avg_power_true;
  options.consider_probabilities = true;
  const double prop =
      audited_synthesize(system, options).evaluation.avg_power_true;
  return 100.0 * (base - prop) / base;
}

TEST(Regression, Mul9Table1ReductionStaysLarge) {
  // Final bench measurement: 37.4 % (paper: 38.28 %).
  EXPECT_GT(reduction_pct(make_mul(9), false, 1), 20.0);
}

TEST(Regression, Mul11Table1ReductionStaysLarge) {
  // Final bench measurement: 58.5 % (paper: 40.70 %).
  EXPECT_GT(reduction_pct(make_mul(11), false, 1), 30.0);
}

TEST(Regression, Mul6Table1ReductionStaysDoubleDigit) {
  // Final bench measurement: 26.4 % (paper: 22.46 %).
  EXPECT_GT(reduction_pct(make_mul(6), false, 1), 12.0);
}

TEST(Regression, SmartPhoneNoDvsReductionStaysLarge) {
  // Final bench measurement: 33.5 % (paper: 30.76 %).
  EXPECT_GT(reduction_pct(make_smart_phone(), false, 1), 15.0);
}

TEST(Regression, Mul9DvsReductionStaysPositive) {
  // Final bench measurement: 24.0 % (paper: 34.66 %).
  EXPECT_GT(reduction_pct(make_mul(9), true, 1), 10.0);
}

TEST(Regression, DvsAlwaysBeatsNominalOnSuiteSample) {
  for (int idx : {6, 9, 11}) {
    const System system = make_mul(idx);
    SynthesisOptions options;
    options.seed = 2;
    options.use_dvs = false;
    const double nominal =
        audited_synthesize(system, options).evaluation.avg_power_true;
    options.use_dvs = true;
    const double dvs = audited_synthesize(system, options).evaluation.avg_power_true;
    EXPECT_LT(dvs, nominal * 0.8) << "mul" << idx;
  }
}

TEST(Regression, ShortDvsHardwareTasksSynthesizeAndAudit) {
  // A hardware task shorter than the Fig. 5 cut tolerance once left its
  // DVS-graph node index at -1 (an out-of-bounds read: SIGSEGV for the
  // first input, a silently wrong graph for the second).
  for (const char* name :
       {"dvs_hw_short_task.mmsyn", "dvs_hw_short_task_chain.mmsyn"}) {
    SCOPED_TRACE(name);
    const System system = load_system(std::string(MMSYN_SOURCE_DIR) +
                                      "/tests/data/" + name);
    SynthesisOptions options;
    options.use_dvs = true;
    options.ga.population_size = 8;
    options.ga.max_generations = 3;
    const SynthesisResult result = audited_synthesize(system, options);
    EXPECT_TRUE(result.evaluation.feasible());
    EXPECT_GT(result.evaluation.avg_power_true, 0.0);
  }
}

}  // namespace
}  // namespace mmsyn
