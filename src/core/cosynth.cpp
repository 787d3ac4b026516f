#include "core/cosynth.hpp"

#include <chrono>
#include <stdexcept>

#include "core/island_ga.hpp"
#include "core/run_control.hpp"
#include "model/system.hpp"

namespace mmsyn {
namespace {

EvaluationOptions make_eval_options(const System& system,
                                    const SynthesisOptions& options,
                                    bool final_eval) {
  EvaluationOptions eval;
  eval.use_dvs = options.use_dvs;
  eval.dvs = final_eval ? options.dvs_final : options.dvs_in_loop;
  eval.keep_schedules = final_eval;
  eval.scheduling_policy = options.scheduling_policy;
  eval.profiler = options.profiler;
  eval.power = options.power;
  if (!options.consider_probabilities)
    eval.weight_override.assign(system.omsm.mode_count(), 1.0);
  return eval;
}

}  // namespace

SynthesisResult synthesize(const System& system,
                           const SynthesisOptions& options,
                           RunControl* control) {
  IslandOptions topology;
  topology.islands = options.islands;
  topology.migration_interval = options.migration_interval;
  topology.migrants = options.migrants;

  const Evaluator loop_evaluator(system,
                                 make_eval_options(system, options, false));
  IslandGa ga(system, loop_evaluator, options.fitness, options.allocation,
              options.ga, topology, options.seed);
  if (control && !control->resume_path.empty()) {
    // Recovery-aware resume: fall back through the kept generations when
    // the newest checkpoint is torn, corrupt, or from a different
    // configuration, and surface each skip in the recovery log.
    LoadedCheckpoint loaded = load_island_checkpoint_fallback(
        control->resume_path, control->checkpoint_keep_generations,
        ga.state_fingerprint());
    for (const std::string& note : loaded.notes)
      control->log_recovery("skipped checkpoint generation: " + note);
    if (loaded.generation > 0)
      control->log_recovery("resumed from older generation " +
                            loaded.loaded_path);
    ga.restore(loaded.snapshot);
  }
  SynthesisResult result = ga.run({}, control);

  // Final (reported) evaluation: fine DVS, schedules kept, true Ψ power.
  const Evaluator final_evaluator(system,
                                  make_eval_options(system, options, true));
  result.evaluation = final_evaluator.evaluate(result.mapping, result.cores);
  return result;
}

SynthesisResult exhaustive_search(const System& system,
                                  const SynthesisOptions& options,
                                  std::uint64_t max_candidates) {
  using Clock = std::chrono::steady_clock;
  const auto t_begin = Clock::now();

  const GenomeCodec codec(system);
  std::uint64_t space = 1;
  for (std::size_t g = 0; g < codec.genome_length(); ++g) {
    space *= codec.candidates(g).size();
    if (space > max_candidates) throw ExhaustiveOverflow(space, max_candidates);
  }

  const Evaluator evaluator(system, make_eval_options(system, options, false));

  Genome genome(codec.genome_length(), 0);
  Genome best_genome = genome;
  double best_fitness = std::numeric_limits<double>::infinity();
  double best_violation = std::numeric_limits<double>::infinity();
  long evaluations = 0;

  bool done = codec.genome_length() == 0;
  while (true) {
    const MultiModeMapping mapping = codec.decode(genome);
    const CoreAllocation cores =
        build_core_allocation(system, mapping, options.allocation);
    const Evaluation eval = evaluator.evaluate(mapping, cores);
    const double fitness = mapping_fitness(eval, evaluator, options.fitness);
    const double violation = constraint_violation(eval, evaluator);
    ++evaluations;
    if (candidate_better(violation, fitness, best_violation, best_fitness)) {
      best_fitness = fitness;
      best_violation = violation;
      best_genome = genome;
    }
    if (done) break;
    // Odometer increment over the mixed-radix genome.
    std::size_t g = 0;
    for (; g < codec.genome_length(); ++g) {
      if (genome[g] + 1u < codec.candidates(g).size()) {
        ++genome[g];
        break;
      }
      genome[g] = 0;
    }
    if (g == codec.genome_length()) break;
  }

  SynthesisResult result;
  result.mapping = codec.decode(best_genome);
  result.cores =
      build_core_allocation(system, result.mapping, options.allocation);
  const Evaluator final_evaluator(system,
                                  make_eval_options(system, options, true));
  result.evaluation = final_evaluator.evaluate(result.mapping, result.cores);
  result.fitness = best_fitness;
  result.generations = 0;
  result.evaluations = evaluations;
  result.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - t_begin).count();
  return result;
}

}  // namespace mmsyn
