// The outer optimisation loop of Fig. 4: a genetic algorithm over
// multi-mode mapping strings with ranking selection, two-point crossover,
// offspring insertion, and the four improvement mutation operators.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/allocation_builder.hpp"
#include "core/fitness.hpp"
#include "core/genome.hpp"
#include "energy/evaluator.hpp"
#include "model/core_allocation.hpp"

namespace mmsyn {

class ThreadPool;
class RunControl;
struct GaSnapshot;

namespace ga_detail {

/// Offspring count per generation: an even number derived from
/// `replacement_fraction`, clamped so offspring can never spill into the
/// elite slots (replacement fills the ranked-worst positions upwards).
[[nodiscard]] int clamped_offspring_count(double replacement_fraction,
                                          int population_size,
                                          int elite_count);

/// Population slot taken by immigrant `immigrant_index` (signed: negative
/// or elite-overlapping results mean "no free slot left, stop").
[[nodiscard]] int immigrant_slot(int population_size, int offspring_count,
                                 int immigrant_index);

/// Number of random immigrants inserted per generation. Pinned behaviour
/// (checkpointed runs replay it): the fraction is truncated —
/// `int(immigrant_fraction * population_size)` — but a positive fraction
/// always requests at least one immigrant (small populations previously
/// lost their diversity pressure to truncation), and the request is then
/// capped by the free slots below the offspring block and above the elite
/// (slots `[0, elite_count)` are reserved; `elite_count` itself is the
/// first insertable slot).
[[nodiscard]] int immigrant_count(double immigrant_fraction,
                                  int population_size, int offspring_count,
                                  int elite_count);

}  // namespace ga_detail

/// GA tuning parameters.
struct GaOptions {
  int population_size = 64;
  int max_generations = 600;
  /// Convergence: stop after this many generations without improvement of
  /// the best individual.
  int stagnation_limit = 70;
  /// Convergence: also stop when average pairwise diversity (sampled
  /// normalised Hamming distance) drops below this value *and* the search
  /// has stagnated for stagnation_limit/2 generations. Random immigrants
  /// keep this from firing prematurely; 0 disables the check.
  double diversity_floor = 0.0;
  /// Fraction of the population replaced by fresh random genomes each
  /// generation (random-immigrant diversity maintenance).
  double immigrant_fraction = 0.08;
  /// Fraction of the population replaced by offspring each generation.
  double replacement_fraction = 0.5;
  /// Per-gene probability of random re-assignment applied to offspring.
  double gene_mutation_rate = 0.02;
  /// Tournament size of the mating selection (on rank-scaled fitness).
  int tournament_size = 2;
  /// Selection pressure of the linear ranking (1 < s <= 2).
  double ranking_pressure = 1.8;
  /// Number of elite individuals never replaced or mutated.
  int elite_count = 2;

  /// Seed the initial population with deterministic heuristics (weighted
  /// area-knapsack greedies and all-software) besides the random genomes.
  bool seed_heuristic_individuals = true;
  /// Hill-climbing passes over the best individual after convergence
  /// (memetic polish): every gene tries all its candidates, improvements
  /// stick; stops early at a fixpoint.
  int final_hill_climb_passes = 4;
  /// For genomes up to this many genes, additionally run exhaustive
  /// pairwise (2-opt) improvement — escapes the coordinated-swap local
  /// optima that greedy-density seeds produce on tiny instances.
  int final_two_opt_max_genes = 16;

  /// Memoise fitness by genome: concentrated populations re-evaluate the
  /// same mapping strings constantly; caching skips the (scheduling + DVS)
  /// inner loop for repeats. Disable to measure raw evaluation counts.
  bool memoize_evaluations = true;
  /// Upper bound on memoised genomes; the oldest entries are evicted
  /// first (FIFO). 0 = unbounded (pre-existing behaviour, grows without
  /// limit on long runs).
  std::size_t memoize_cache_capacity = 1 << 16;

  /// Memoise the inner loop *per mode* (see energy/evaluator.hpp's
  /// ModeEvalCache): crossover and mutation usually change only a few
  /// modes' gene slices, so most of an offspring's modes can skip
  /// scheduling + DVS even when the whole genome is new. Results are
  /// bitwise-identical with the cache on or off; only the wall clock and
  /// the hit-rate counters differ.
  bool memoize_mode_evaluations = true;
  /// Upper bound on memoised (mode, slice, allocation) entries, FIFO
  /// eviction. 0 = unbounded.
  std::size_t mode_cache_capacity = 1 << 16;

  /// Fitness-evaluation concurrency: 1 = serial (default), 0 = all
  /// hardware threads, otherwise the exact thread count. Results are
  /// bit-identical for every value — evaluation is pure and the GA's RNG
  /// never runs inside the parallel region (see DESIGN.md §8).
  int num_threads = 1;

  /// Shut-down improvement probability per individual per generation.
  double shutdown_improvement_rate = 0.02;
  /// Generations of all-infeasible populations that trigger the area /
  /// timing / transition improvement sweeps.
  int infeasibility_trigger = 4;
  /// Fraction of the (non-elite) population rewritten by a triggered
  /// improvement sweep.
  double improvement_sweep_fraction = 0.25;
};

/// Progress snapshot handed to the optional per-generation observer.
struct GaProgress {
  int generation = 0;
  double best_fitness = 0.0;
  double best_power_true = 0.0;
  double diversity = 0.0;
  long evaluations = 0;
  /// Memoisation-cache hits / lookups so far (hits == 0 when disabled).
  long cache_hits = 0;
  long cache_lookups = 0;
  /// Per-mode incremental-evaluation cache counters (see GaOptions::
  /// memoize_mode_evaluations); lookups stay 0 when the cache is off.
  long mode_cache_hits = 0;
  long mode_cache_lookups = 0;
};

/// Why a run ended early (`SynthesisResult::partial`). Typed so service
/// layers can report budget exhaustion as a recoverable per-job outcome
/// (the job still carries the fine-DVS partial result) instead of
/// inferring the cause from exit codes; the CLI keeps mapping every
/// early stop to exit 3 regardless of the reason (pinned behaviour).
enum class StopReason : std::uint8_t {
  kNone = 0,          ///< ran to convergence / generation cap
  kCancelled,         ///< cooperative cancellation (signal, watchdog, drain)
  kBudgetExhausted,   ///< RunControl wall-clock budget expired
};

/// Synthesis outcome.
struct SynthesisResult {
  MultiModeMapping mapping;
  CoreAllocation cores;
  /// Final evaluation of the best candidate (reporting configuration).
  Evaluation evaluation;
  double fitness = 0.0;
  int generations = 0;
  long evaluations = 0;
  /// Memoisation-cache hits / lookups over the whole run.
  long cache_hits = 0;
  long cache_lookups = 0;
  /// Per-mode incremental-evaluation cache hits / lookups over the run
  /// (both 0 when GaOptions::memoize_mode_evaluations is off).
  long mode_cache_hits = 0;
  long mode_cache_lookups = 0;
  /// Always 0: the schedule-stage cache these counted no longer exists.
  /// Kept only because the whole-system benchmark (perfbench/) reads them.
  long schedule_cache_hits = 0;
  long schedule_cache_lookups = 0;
  double elapsed_seconds = 0.0;
  /// True when the run was stopped early (cancellation or time budget)
  /// rather than running to convergence; the evaluation still prices the
  /// best individual found so far.
  bool partial = false;
  /// Why the run stopped early; kNone exactly when `partial` is false.
  StopReason stop_reason = StopReason::kNone;
};

/// The multi-mode mapping GA of one population. The evaluator decides
/// whether DVS is applied inside the loop and which mode weights the
/// objective uses. Every draw comes from the counter-based Threefry
/// engine on stream `rng_stream` of `seed` (see rng_streams in
/// common/rng.hpp): stream 0 for a single population, one kIsland-domain
/// stream per island otherwise. IslandGa (core/island_ga.hpp) is the
/// driver that runs the loop.
class MappingGa {
public:
  MappingGa(const System& system, const Evaluator& evaluator,
            FitnessParams fitness_params, AllocationOptions alloc_options,
            GaOptions options, std::uint64_t seed,
            std::uint64_t rng_stream = 0);
  ~MappingGa();

  /// Restores the state captured by a checkpoint so the next start_loop()
  /// continues bit-identically to the uninterrupted run. Throws
  /// CheckpointError when the snapshot's fingerprint does not match this
  /// GA's configuration (different seed, options, or system).
  void restore(const GaSnapshot& snapshot);

  /// Fingerprint of everything that shapes the GA trajectory: seed,
  /// random stream, options, genome structure, fitness params, and
  /// evaluator weights. Stored in checkpoints; resume refuses a mismatch.
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  /// Objective-aware greedy seed: for each hardware PE, selects the task
  /// types with the best weighted-energy-saving per area (a knapsack on
  /// the core area) and maps those types' tasks into hardware, the rest
  /// onto their cheapest software candidate. `mode_weights` (normalised
  /// internally; empty = the evaluator's weights) chooses the objective;
  /// the GA seeds itself with the greedy of its own objective, of the
  /// uniform objective and of the true-Ψ objective, so no run depends on
  /// seed luck. Exposed for tests and diagnostics.
  [[nodiscard]] Genome knapsack_seed_genome(
      std::vector<double> mode_weights = {}) const;
  /// All-software seed (lowest-energy software candidate per task).
  [[nodiscard]] Genome software_seed_genome() const;

  [[nodiscard]] const GenomeCodec& codec() const { return codec_; }

  /// The per-mode memo this GA fills during its run (IslandGa sums its
  /// counters into the whole-run totals).
  [[nodiscard]] const ModeEvalCache& mode_cache() const { return mode_cache_; }

  // ---- Stepping interface (DESIGN.md §14) -------------------------------
  //
  // A run is `start_loop` + `step_generation` until it returns false (or
  // the driver stops) + `finish_loop` + `harvest`. IslandGa drives these
  // pieces, inserting checkpoints and migration barriers between blocks
  // of step_generation calls — which is why the loop state lives in an
  // explicit struct instead of a stack frame. Internal API: exposed for
  // the island driver and its tests, not a stability surface.

  struct Individual {
    Genome genome;
    double fitness = 0.0;
    /// Normalised constraint violation (0 == feasible); ranking is
    /// feasible-first (see candidate_better).
    double violation = 0.0;
    bool evaluated = false;
    bool area_infeasible = false;
    bool timing_infeasible = false;
    bool transition_infeasible = false;
    double power_true = 0.0;
  };

  /// The loop bookkeeping a driver keeps between generations.
  struct LoopState {
    Individual best;
    int stagnation = 0;
    int area_infeasible_streak = 0;
    int timing_infeasible_streak = 0;
    int transition_infeasible_streak = 0;
    /// The generation about to run (== generations completed so far).
    int generation = 0;
    bool partial = false;
    /// Typed cause of `partial` (see StopReason).
    StopReason stop_reason = StopReason::kNone;
    /// The convergence criterion fired; step_generation refuses to run.
    bool converged = false;
    /// Wall-clock seconds spent before a resumed checkpoint.
    double elapsed_base = 0.0;
    std::chrono::steady_clock::time_point t_begin{};
  };

  /// Initialises (or, after restore(), replays) the population and loop
  /// bookkeeping and starts the wall clock.
  void start_loop(LoopState& st);

  /// Runs one generation: evaluate, rank, update best, check convergence,
  /// breed, mutate, immigrate, improve. Returns false — without advancing
  /// `st.generation` — when the convergence criterion fires (st.converged
  /// is then set) or when the generation cap is already reached.
  bool step_generation(LoopState& st,
                       const std::function<void(const GaProgress&)>&
                           observer = {});

  /// Post-loop phases: fallback evaluation of the strongest seed when the
  /// loop never evaluated anything, then the memetic polish (hill climb +
  /// small-genome 2-opt), honouring `control` cancellation between trial
  /// batches.
  void finish_loop(LoopState& st, RunControl* control = nullptr);

  /// Assembles the SynthesisResult (decode + final loop-evaluator pricing
  /// of the best individual, plus every counter).
  [[nodiscard]] SynthesisResult harvest(const LoopState& st);

  /// Total elapsed wall-clock seconds of this loop, spanning resumes.
  [[nodiscard]] double loop_elapsed(const LoopState& st) const;

  /// The checkpoint snapshot of the state entering `st.generation`.
  [[nodiscard]] GaSnapshot snapshot(const LoopState& st) const;

  /// Migration hooks: ranked population access (slot 0 = current best
  /// after the last evaluation; the first elite_count slots are the
  /// elite) and migrant installation. Installing copies the individual
  /// wholesale — an evaluated migrant keeps its fitness and is not
  /// re-evaluated, exactly as if it had been bred locally.
  [[nodiscard]] const Individual& population_at(int slot) const;
  void install_individual(int slot, Individual migrant);
  [[nodiscard]] int population_size() const {
    return static_cast<int>(population_.size());
  }

  /// Counter accessors for cross-island aggregation.
  [[nodiscard]] long evaluations() const { return evaluations_; }
  [[nodiscard]] long cache_hits() const { return cache_hits_; }
  [[nodiscard]] long cache_lookups() const { return cache_lookups_; }

private:
  /// Fitness memo entry / result of one pure evaluation.
  struct CachedFitness {
    double fitness;
    double violation;
    bool area_infeasible;
    bool timing_infeasible;
    bool transition_infeasible;
    double power_true;
  };

  /// The pure (thread-safe) part of an evaluation: decode, allocate
  /// cores, schedule + DVS, fitness. Touches no GA state.
  [[nodiscard]] CachedFitness compute_fitness(const Genome& genome) const;

  /// Fitness/violation/feasibility bookkeeping from a finished evaluation.
  [[nodiscard]] CachedFitness finish_fitness(const Evaluation& eval) const;

  /// True when evaluations should run through the per-mode cache (the
  /// option is on and the evaluator keeps no schedules, which the cache
  /// cannot store).
  [[nodiscard]] bool mode_cache_active() const;

  /// Evaluates every individual in `batch`, fanning cache misses out over
  /// the worker pool. Deterministic contract: cache lookups, insertions
  /// and counter updates happen serially in batch order, only the pure
  /// per-genome (or, with the mode cache, per-mode) computation runs
  /// concurrently — results are bit-identical to the serial path for any
  /// thread count.
  void evaluate_batch(const std::vector<Individual*>& batch);

  /// Mode-cache-aware evaluation of the unique-genome jobs of one batch:
  /// decode/allocate/key in parallel, look the per-mode memo up serially
  /// (with in-flight dedup so two jobs sharing a slice schedule it once),
  /// run the missing inner loops in parallel, then assemble + insert
  /// serially in job order. Fills `results[j]` for every job.
  void evaluate_jobs_incremental(const std::vector<const Genome*>& jobs,
                                 std::vector<CachedFitness>& results);

  void evaluate(Individual& ind);
  void cache_insert(const Genome& genome, const CachedFitness& value);
  [[nodiscard]] double population_diversity() const;

  const System& system_;
  const Evaluator& evaluator_;
  FitnessParams fitness_params_;
  AllocationOptions alloc_options_;
  GaOptions options_;
  GenomeCodec codec_;
  std::uint64_t seed_;
  Rng rng_;
  std::vector<Individual> population_;
  long evaluations_ = 0;
  long cache_hits_ = 0;
  long cache_lookups_ = 0;

  /// Restored checkpoint state consumed by the next start_loop(); null
  /// when starting fresh (see restore()).
  std::unique_ptr<GaSnapshot> restored_;

  /// Worker pool for evaluate_batch; null when num_threads resolves to 1.
  std::unique_ptr<ThreadPool> pool_;

  /// Fitness memo keyed by genome (see GaOptions::memoize_evaluations),
  /// bounded by memoize_cache_capacity with FIFO eviction (cache_order_
  /// tracks insertion order).
  std::unordered_map<Genome, CachedFitness, GenomeHash> cache_;
  std::deque<Genome> cache_order_;

  /// Per-mode inner-loop memo (see GaOptions::memoize_mode_evaluations).
  /// Touched only in the serial phases of evaluate_batch; checkpointed in
  /// insertion order so a resumed run replays hits and FIFO eviction
  /// bit-identically.
  ModeEvalCache mode_cache_;
};

}  // namespace mmsyn
