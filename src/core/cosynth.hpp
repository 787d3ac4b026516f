// Top-level co-synthesis entry points.
//
// `synthesize` runs the full two-loop flow of the paper for one system:
// the GA outer loop maps tasks and allocates cores; the inner loop
// (scheduling + optional PV-DVS) and the probability-weighted power model
// judge every candidate. Setting `consider_probabilities = false` yields
// the paper's comparison baseline: the identical flow optimised with
// uniform mode weights — the *reported* power always uses the true Ψ.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/ga.hpp"

namespace mmsyn {

class PowerModel;
class RunControl;

struct SynthesisOptions {
  /// true: weight the objective with the OMSM's Ψ (the proposed method);
  /// false: uniform weights (the probability-neglecting baseline).
  bool consider_probabilities = true;
  /// Apply dynamic voltage scaling (software PEs and — via the Fig. 5
  /// transformation — hardware PEs).
  bool use_dvs = false;

  GaOptions ga;
  FitnessParams fitness;
  AllocationOptions allocation;
  /// Inner-loop list-scheduler priority (kBottomLevel = paper behaviour).
  SchedulingPolicy scheduling_policy = SchedulingPolicy::kBottomLevel;
  /// Coarse PV-DVS settings for the GA hot loop. Too coarse and the GA
  /// ranks candidates differently from the fine (reported) evaluation,
  /// which systematically mis-steers the search; these values keep the
  /// coarse/fine ranking agreement while staying ~2x cheaper than the
  /// final settings.
  PvDvsOptions dvs_in_loop{/*max_iterations_per_node=*/12,
                           /*step_fraction=*/0.5,
                           /*min_relative_gain=*/1e-5,
                           /*discrete_voltages=*/true};
  /// Fine PV-DVS settings for the final (reported) evaluation.
  PvDvsOptions dvs_final{};

  std::uint64_t seed = 1;

  /// Island-model sharding of the GA (see core/island_ga.hpp and
  /// DESIGN.md §14). 1 island is the single-population GA, and the
  /// migration knobs are then inert; N > 1 evolves N independent
  /// populations that exchange `migrants` elites every
  /// `migration_interval` generations along a deterministic ring.
  /// `synthesize` throws std::invalid_argument naming the offending flag
  /// when the topology is inconsistent.
  int islands = 1;
  int migration_interval = 20;
  int migrants = 2;

  /// Optional per-stage pipeline instrumentation shared by the loop and
  /// final evaluators (see pipeline/profile.hpp). Not fingerprinted;
  /// enabling it never changes any result.
  PipelineProfiler* profiler = nullptr;

  /// Power-model backend shared by the loop and final evaluators (see
  /// power/backends.hpp); null means `paper`.
  const PowerModel* power = nullptr;
};

/// Runs the co-synthesis. The returned evaluation is a *final* evaluation:
/// fine DVS settings, schedules retained, powers reported with true Ψ.
///
/// `control` (optional) makes the run crash-safe: wall-clock budget,
/// cooperative cancellation, periodic checkpoints, and resume from
/// `RunControl::resume_path` (see core/run_control.hpp). A budget/cancel
/// stop still returns a final fine-DVS evaluation of the best individual
/// found so far, flagged `partial = true`.
[[nodiscard]] SynthesisResult synthesize(const System& system,
                                         const SynthesisOptions& options,
                                         RunControl* control = nullptr);

/// Raised by exhaustive_search when the candidate space exceeds the
/// enumeration budget. Derives from std::invalid_argument so callers that
/// caught the previous generic exception keep working; new callers should
/// catch the typed error and read the bound that was exceeded.
class ExhaustiveOverflow : public std::invalid_argument {
public:
  ExhaustiveOverflow(std::uint64_t space_at_least, std::uint64_t budget)
      : std::invalid_argument(
            "exhaustive_search: search space (>= " +
            std::to_string(space_at_least) + " candidates) exceeds budget " +
            std::to_string(budget)),
        space_at_least_(space_at_least),
        budget_(budget) {}

  /// Lower bound on the candidate count (the running product at the gene
  /// where enumeration was abandoned).
  [[nodiscard]] std::uint64_t space_at_least() const { return space_at_least_; }
  [[nodiscard]] std::uint64_t budget() const { return budget_; }

private:
  std::uint64_t space_at_least_;
  std::uint64_t budget_;
};

/// Exhaustively enumerates every well-formed mapping of a (tiny) system
/// and returns the candidate with the lowest fitness. Intended for the
/// motivational examples and for cross-checking the GA on small instances;
/// throws ExhaustiveOverflow when the space exceeds `max_candidates`.
[[nodiscard]] SynthesisResult exhaustive_search(
    const System& system, const SynthesisOptions& options,
    std::uint64_t max_candidates = 2'000'000);

}  // namespace mmsyn
