#include "core/ga.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "core/cosynth.hpp"
#include "core/island_ga.hpp"
#include "tgff/motivational.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

GaOptions fast_ga() {
  GaOptions options;
  options.population_size = 24;
  options.max_generations = 60;
  options.stagnation_limit = 20;
  return options;
}

/// Runs fast_ga() as a single population (a one-island driver).
SynthesisResult run_ga(const System& system, const Evaluator& evaluator,
                       std::uint64_t seed,
                       const std::function<void(const GaProgress&)>&
                           observer = {}) {
  IslandGa ga(system, evaluator, {}, {}, fast_ga(), IslandOptions{}, seed);
  return ga.run(observer);
}

TEST(MappingGa, FindsExampleOneOptimumWithProbabilities) {
  const System system = make_motivational_example1();
  const Evaluator evaluator(system, EvaluationOptions{});
  const SynthesisResult result = run_ga(system, evaluator, /*seed=*/1);
  // 2^6 search space: the GA must hit the exact optimum (Fig. 2c).
  EXPECT_NEAR(result.evaluation.avg_power_true * 1e3, 15.7423, 1e-3);
  EXPECT_TRUE(result.evaluation.feasible());
}

TEST(MappingGa, FindsExampleOneOptimumWithoutProbabilities) {
  const System system = make_motivational_example1();
  EvaluationOptions options;
  options.weight_override = {1.0, 1.0};
  const Evaluator evaluator(system, options);
  const SynthesisResult result = run_ga(system, evaluator, /*seed=*/1);
  EXPECT_NEAR(result.evaluation.avg_power_true * 1e3, 26.7158, 1e-3);
}

TEST(MappingGa, ObserverSeesMonotoneBest) {
  const System system = make_mul(9);
  const Evaluator evaluator(system, EvaluationOptions{});
  double last_best = std::numeric_limits<double>::infinity();
  int calls = 0;
  (void)run_ga(system, evaluator, 7, [&](const GaProgress& p) {
    EXPECT_LE(p.best_fitness, last_best * (1 + 1e-9));
    last_best = p.best_fitness;
    EXPECT_EQ(p.generation, calls);
    ++calls;
  });
  EXPECT_GT(calls, 1);
}

TEST(MappingGa, DeterministicForEqualSeeds) {
  const System system = make_mul(9);
  const Evaluator evaluator(system, EvaluationOptions{});
  const SynthesisResult r1 = run_ga(system, evaluator, 42);
  const SynthesisResult r2 = run_ga(system, evaluator, 42);
  EXPECT_EQ(r1.fitness, r2.fitness);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  for (std::size_t m = 0; m < r1.mapping.modes.size(); ++m)
    EXPECT_EQ(r1.mapping.modes[m].task_to_pe, r2.mapping.modes[m].task_to_pe);
}

TEST(MappingGa, SeedsAreWellFormedAndDistinct) {
  const System system = make_mul(6);
  const Evaluator evaluator(system, EvaluationOptions{});
  MappingGa ga(system, evaluator, {}, {}, fast_ga(), 1);
  const Genome knapsack = ga.knapsack_seed_genome();
  const Genome software = ga.software_seed_genome();
  const GenomeCodec& codec = ga.codec();
  EXPECT_TRUE(mapping_is_well_formed(codec.decode(knapsack), system.omsm,
                                     system.arch, system.tech));
  EXPECT_TRUE(mapping_is_well_formed(codec.decode(software), system.omsm,
                                     system.arch, system.tech));
  EXPECT_NE(knapsack, software);
  // The software seed never touches hardware.
  for (std::size_t g = 0; g < codec.genome_length(); ++g)
    EXPECT_TRUE(
        is_software(system.arch.pe(codec.pe_at(software, g)).kind));
}

TEST(MappingGa, KnapsackSeedRespectsWeights) {
  const System system = make_mul(6);
  const Evaluator evaluator(system, EvaluationOptions{});
  MappingGa ga(system, evaluator, {}, {}, fast_ga(), 1);
  const Genome with_psi = ga.knapsack_seed_genome(system.omsm.probabilities());
  const Genome uniform = ga.knapsack_seed_genome(
      std::vector<double>(system.omsm.mode_count(), 1.0));
  // mul6 is calibrated to have probability head-room: the seeds differ.
  EXPECT_NE(with_psi, uniform);
}

TEST(MappingGa, ResultIsAtLeastAsGoodAsItsSeeds) {
  const System system = make_mul(9);
  const Evaluator evaluator(system, EvaluationOptions{});
  MappingGa probe(system, evaluator, {}, {}, fast_ga(), 3);
  const GenomeCodec& codec = probe.codec();
  auto fitness_of = [&](const Genome& g) {
    const MultiModeMapping m = codec.decode(g);
    const CoreAllocation cores = build_core_allocation(system, m);
    const Evaluation e = evaluator.evaluate(m, cores);
    return mapping_fitness(e, evaluator, FitnessParams{});
  };
  const double seed_fitness = std::min(
      fitness_of(probe.knapsack_seed_genome()),
      fitness_of(probe.software_seed_genome()));
  const SynthesisResult result = run_ga(system, evaluator, 3);
  EXPECT_LE(result.fitness, seed_fitness * (1 + 1e-9));
}

TEST(Synthesize, ProbabilityAwareNeverWorseOnCalibratedInstance) {
  const System system = make_mul(9);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 5;
  options.consider_probabilities = false;
  const SynthesisResult base = synthesize(system, options);
  options.consider_probabilities = true;
  const SynthesisResult prop = synthesize(system, options);
  EXPECT_LE(prop.evaluation.avg_power_true,
            base.evaluation.avg_power_true * 1.02);
}

TEST(ExhaustiveSearch, MatchesGaOnTinySystem) {
  const System system = make_motivational_example1();
  SynthesisOptions options;
  options.ga = fast_ga();
  const SynthesisResult exact = exhaustive_search(system, options);
  const SynthesisResult ga = synthesize(system, options);
  EXPECT_NEAR(exact.evaluation.avg_power_true,
              ga.evaluation.avg_power_true, 1e-12);
  EXPECT_EQ(exact.evaluations, 64);
}

TEST(ExhaustiveSearch, RejectsHugeSpaces) {
  const System system = make_mul(1);
  SynthesisOptions options;
  // Still catchable as the old generic type...
  EXPECT_THROW((void)exhaustive_search(system, options, 1000),
               std::invalid_argument);
  // ...but the typed error carries the bound that was exceeded.
  try {
    (void)exhaustive_search(system, options, 1000);
    FAIL() << "expected ExhaustiveOverflow";
  } catch (const ExhaustiveOverflow& e) {
    EXPECT_EQ(e.budget(), 1000u);
    EXPECT_GT(e.space_at_least(), e.budget());
    EXPECT_NE(std::string(e.what()).find("1000"), std::string::npos);
  }
}

}  // namespace
}  // namespace mmsyn
