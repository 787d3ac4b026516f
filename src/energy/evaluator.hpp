// Implementation-candidate evaluation: Eq. (1) of the paper.
//
// Given a multi-mode task mapping and a hardware core allocation, this
// module runs the per-mode pipeline for every mode (communication mapping
// + list scheduling, optionally PV-DVS voltage scaling — see
// pipeline/mode_pipeline.hpp), performs the component shut-down analysis,
// and aggregates
//
//   p̄ = Σ_O ( p̄_dyn(O) + p̄_stat(O) ) · Ψ_O
//
// together with the penalty quantities (area, timing, mode-transition)
// that the GA fitness combines. The probability-neglecting baseline is
// obtained by overriding the Ψ weights used during optimisation while the
// reported power always uses the true Ψ.
//
// Incremental evaluation: the expensive part of an evaluation is the
// per-mode pipeline, and crossover/mutation usually change only a few
// modes' gene slices. `evaluate_mode` exposes one mode's pipeline as a
// pure function of that mode's exact inputs, `mode_key` captures those
// inputs as a hashable key, and `ModeEvalCache` memoises whole-mode
// results under that key (see DESIGN.md §10).
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dvs/pv_dvs.hpp"
#include "model/core_allocation.hpp"
#include "model/mapping.hpp"
#include "model/system.hpp"
#include "pipeline/artifacts.hpp"
#include "pipeline/mode_pipeline.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/schedule.hpp"

namespace mmsyn {

class PowerModel;

/// Evaluation controls.
struct EvaluationOptions {
  /// Apply PV-DVS voltage scaling to DVS-enabled PEs (the "pv-dvs"
  /// backend; false selects the nominal-voltage "none" backend).
  bool use_dvs = false;
  /// Voltage-scaling knobs (used when use_dvs).
  PvDvsOptions dvs;
  /// Mode weights used for the *optimisation* objective. Empty = the true
  /// probabilities Ψ from the OMSM. The probability-neglecting baseline
  /// passes uniform weights here.
  std::vector<double> weight_override;
  /// Keep the per-mode schedules in the result (off in the GA hot loop).
  bool keep_schedules = false;
  /// Task-selection priority of the inner-loop list scheduler.
  SchedulingPolicy scheduling_policy = SchedulingPolicy::kBottomLevel;
  /// Optional per-stage instrumentation (not fingerprinted; never alters
  /// any result).
  PipelineProfiler* profiler = nullptr;
  /// Power-model backend (see power/power_model.hpp). Null selects the
  /// pinned `paper` reference model (bit-identical to its absence); any
  /// non-reference backend folds into the evaluation fingerprint.
  const PowerModel* power = nullptr;
};

/// Whole-candidate evaluation.
struct Evaluation {
  std::vector<ModeEvaluation> modes;

  /// Average power with the true probabilities Ψ (the reported metric).
  double avg_power_true = 0.0;
  /// Average power with the optimisation weights (== avg_power_true when
  /// no override) — the p̄ entering the fitness.
  double avg_power_weighted = 0.0;

  /// Per-PE used area (hardware PEs; max over modes for FPGAs).
  std::vector<double> pe_used_area;
  /// Per-PE max(0, used − capacity).
  std::vector<double> pe_area_violation;
  double total_area_violation = 0.0;

  /// Per-OMSM-transition reconfiguration time (seconds).
  std::vector<double> transition_times;
  /// Per-transition max(0, t_T − t_T^max).
  std::vector<double> transition_violations;

  /// Σ over modes of weighted timing violations, each mode's violation
  /// expressed as a fraction of that mode's period (dimensionless, so the
  /// timing penalty is invariant under rescaling the time base), weighted
  /// by the optimisation weights.
  double weighted_timing_violation = 0.0;

  [[nodiscard]] bool timing_feasible() const {
    for (const ModeEvaluation& m : modes)
      if (m.timing_violation > 0.0 || !m.routable) return false;
    return true;
  }
  [[nodiscard]] bool area_feasible() const {
    return total_area_violation <= 0.0;
  }
  [[nodiscard]] bool transitions_feasible() const {
    for (double v : transition_violations)
      if (v > 0.0) return false;
    return true;
  }
  [[nodiscard]] bool feasible() const {
    return timing_feasible() && area_feasible() && transitions_feasible();
  }
};

/// Cache key of one mode's pipeline result: exactly the inputs the
/// stages read for that mode — its task→PE gene slice, the core sets
/// loaded in that mode (the allocation slice; for ASICs this folds in
/// demand from *other* modes, which is why it must be part of the key),
/// and the evaluation fingerprint of the options the stages read
/// (scheduler + DVS backend + knobs + power backend). Everything else
/// (architecture, technology library, task graphs) is fixed per system.
/// Equality is exact, so a hash collision can never change a result —
/// the unordered_map resolves it through full key comparison.
struct ModeEvalKey {
  std::uint32_t mode = 0;
  std::uint64_t options_fingerprint = 0;
  std::vector<PeId> task_to_pe;
  std::vector<CoreSet> cores;

  friend bool operator==(const ModeEvalKey&, const ModeEvalKey&) = default;
};

struct ModeEvalKeyHash {
  std::size_t operator()(const ModeEvalKey& key) const;
};

/// Bounded FIFO memo of whole-mode pipeline results. Not thread-safe:
/// callers that evaluate concurrently must confine lookups/insertions to
/// a serial phase (see MappingGa::evaluate_batch). A cached value is
/// bitwise-identical to a cold evaluation — entries store the complete
/// ModeEvaluation the pipeline produced.
///
/// Self-healing: every entry carries an FNV-1a digest of its value,
/// verified on lookup. An entry whose bytes no longer match (bit rot, a
/// `cache.insert` corrupt failpoint) is *quarantined* — erased and
/// reported as a miss — so the caller transparently recomputes instead
/// of propagating a poisoned result. Recomputation is bit-identical to
/// a cold evaluation, so quarantine never changes a trajectory.
class ModeEvalCache {
public:
  explicit ModeEvalCache(std::size_t capacity = 1 << 16)
      : capacity_(capacity) {}

  /// Looks `key` up, counting one lookup (and a hit when found). The
  /// returned pointer is invalidated by the next insert().
  [[nodiscard]] const ModeEvaluation* find(const ModeEvalKey& key);

  /// Inserts (FIFO-evicting at capacity); duplicate keys are ignored.
  void insert(const ModeEvalKey& key, const ModeEvaluation& value);

  /// Accounts one extra hit. Batch evaluators that dedup in-flight keys
  /// call this for an aliased lookup — the one-at-a-time execution they
  /// mirror would have found the entry its preceding job inserted.
  void credit_hit() { ++hits_; }

  [[nodiscard]] long hits() const { return hits_; }
  [[nodiscard]] long lookups() const { return lookups_; }
  /// Entries evicted by a failed digest check.
  [[nodiscard]] long quarantined() const { return quarantined_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Entries in insertion (FIFO) order, for checkpoints.
  [[nodiscard]] std::vector<std::pair<ModeEvalKey, ModeEvaluation>>
  entries() const;

  /// Restores contents in insertion order plus the counters, so a resumed
  /// run's statistics continue exactly where they left off.
  void restore(std::vector<std::pair<ModeEvalKey, ModeEvaluation>> entries,
               long hits, long lookups);

  void clear();

private:
  /// A cached value plus the digest of the bytes that were stored, so a
  /// later lookup can prove the entry is still what insert() computed.
  struct Stored {
    ModeEvaluation value;
    std::uint64_t digest = 0;
  };

  std::size_t capacity_;
  long hits_ = 0;
  long lookups_ = 0;
  long quarantined_ = 0;
  std::unordered_map<ModeEvalKey, Stored, ModeEvalKeyHash> map_;
  std::deque<ModeEvalKey> order_;  // insertion order for FIFO eviction
};

/// Evaluates candidates against one system. The system reference must
/// outlive the evaluator. Construction finalizes every mode's task graph
/// on the constructing thread, so the graphs' lazily built adjacency is
/// never first built concurrently by pool threads; a cyclic graph throws
/// std::invalid_argument naming its mode.
///
/// Thread safety: `evaluate(mapping, cores)`, `evaluate_mode`, `mode_key`
/// and `assemble` are pure — they read only the immutable
/// system/options/weights state and touch no caches or globals (the
/// whole pipeline: list scheduler, DVS-graph construction and PV-DVS
/// keep their state on the stack). One Evaluator instance may therefore
/// be shared by concurrent callers; the GA's parallel fitness evaluation
/// relies on this contract. The cache-taking `evaluate` overload mutates
/// the caller-owned cache and is not reentrant on the same cache.
class Evaluator {
public:
  Evaluator(const System& system, EvaluationOptions options);

  /// Full evaluation of (mapping, core allocation). Const and
  /// reentrant: safe to call concurrently from multiple threads.
  [[nodiscard]] Evaluation evaluate(const MultiModeMapping& mapping,
                                    const CoreAllocation& cores) const;

  /// Full evaluation through the per-mode memo: modes whose key is
  /// cached skip the pipeline entirely, misses run it and are inserted.
  /// Bitwise-identical to the cache-less overload. A null cache, or
  /// options().keep_schedules (cached entries carry no schedules), takes
  /// the cold path and leaves the cache untouched.
  [[nodiscard]] Evaluation evaluate(const MultiModeMapping& mapping,
                                    const CoreAllocation& cores,
                                    ModeEvalCache* cache) const;

  /// The per-mode pipeline (communication mapping + list scheduling +
  /// optional PV-DVS + shut-down analysis) for mode `m` alone. Pure.
  [[nodiscard]] ModeEvaluation evaluate_mode(
      std::size_t m, const MultiModeMapping& mapping,
      const CoreAllocation& cores) const;

  /// Cache key of mode `m` under this evaluator's options. Two equal
  /// keys are guaranteed identical pipeline results.
  [[nodiscard]] ModeEvalKey mode_key(std::size_t m,
                                     const MultiModeMapping& mapping,
                                     const CoreAllocation& cores) const;

  /// Cross-mode aggregation: Eq. 1 weighted powers, the per-period
  /// timing penalty, area usage/violations (max-over-modes for FPGAs) and
  /// the mode-transition reconfiguration times. Cheap relative to the
  /// per-mode pipeline; `modes` must hold one entry per OMSM mode.
  [[nodiscard]] Evaluation assemble(const MultiModeMapping& mapping,
                                    const CoreAllocation& cores,
                                    std::vector<ModeEvaluation> modes) const;

  [[nodiscard]] const EvaluationOptions& options() const { return options_; }
  [[nodiscard]] const System& system() const { return system_; }

  /// The staged pipeline this evaluator drives (for audit replay/tests).
  [[nodiscard]] const ModePipeline& pipeline() const { return pipeline_; }

  /// FNV-1a fingerprint of the options that shape a per-mode result
  /// (DVS settings, scheduling policy, non-reference power backend);
  /// baked into every ModeEvalKey so a cache snapshot can never be
  /// replayed under different options.
  [[nodiscard]] std::uint64_t options_fingerprint() const {
    return pipeline_.evaluation_fingerprint();
  }

  /// The weights entering the optimisation objective (true Ψ or override),
  /// normalised to sum 1.
  [[nodiscard]] const std::vector<double>& optimisation_weights() const {
    return weights_;
  }

private:
  const System& system_;
  EvaluationOptions options_;
  ModePipeline pipeline_;
  std::vector<double> weights_;      // optimisation weights (normalised)
  std::vector<double> true_probs_;   // Ψ from the OMSM
};

}  // namespace mmsyn
