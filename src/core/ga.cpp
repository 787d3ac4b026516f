#include "core/ga.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/checksum.hpp"
#include "common/thread_pool.hpp"
#include "core/improvement.hpp"
#include "core/run_control.hpp"
#include "model/system.hpp"
#include "power/power_model.hpp"

namespace mmsyn {

namespace ga_detail {

int clamped_offspring_count(double replacement_fraction, int population_size,
                            int elite_count) {
  const int n = population_size;
  const int count =
      std::max(2, static_cast<int>(replacement_fraction * n) & ~1);
  // Offspring fill the ranked-worst slots upwards; without the clamp a
  // high replacement fraction overwrites the elite (and the incumbent
  // best at slot 0).
  return std::min(count, std::max(0, n - elite_count));
}

int immigrant_slot(int population_size, int offspring_count,
                   int immigrant_index) {
  return population_size - 1 - offspring_count - immigrant_index;
}

int immigrant_count(double immigrant_fraction, int population_size,
                    int offspring_count, int elite_count) {
  int requested =
      static_cast<int>(immigrant_fraction * population_size);
  // Truncation starves small populations of immigrants entirely (0.08 *
  // 12 == 0 forever); a positive fraction means "keep exploration alive",
  // so it requests at least one.
  if (requested == 0 && immigrant_fraction > 0.0) requested = 1;
  // Cap by the free slots: immigrants fill downwards from just below the
  // offspring block, and the elite slots [0, elite_count) are reserved —
  // slot == elite_count is the first insertable one.
  int count = 0;
  while (count < requested &&
         immigrant_slot(population_size, offspring_count, count) >=
             elite_count)
    ++count;
  return count;
}

}  // namespace ga_detail

MappingGa::MappingGa(const System& system, const Evaluator& evaluator,
                     FitnessParams fitness_params,
                     AllocationOptions alloc_options, GaOptions options,
                     std::uint64_t seed, std::uint64_t rng_stream)
    : system_(system),
      evaluator_(evaluator),
      fitness_params_(fitness_params),
      alloc_options_(alloc_options),
      options_(options),
      codec_(system),
      seed_(seed),
      rng_(RngKind::kThreefry, seed, rng_stream),
      mode_cache_(options.mode_cache_capacity) {
  const int threads = ThreadPool::resolve_thread_count(options_.num_threads);
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);
}

MappingGa::~MappingGa() = default;

MappingGa::CachedFitness MappingGa::finish_fitness(
    const Evaluation& eval) const {
  CachedFitness c;
  c.fitness = mapping_fitness(eval, evaluator_, fitness_params_);
  c.violation = constraint_violation(eval, evaluator_);
  c.area_infeasible = !eval.area_feasible();
  c.timing_infeasible = !eval.timing_feasible();
  c.transition_infeasible = !eval.transitions_feasible();
  c.power_true = eval.avg_power_true;
  return c;
}

MappingGa::CachedFitness MappingGa::compute_fitness(
    const Genome& genome) const {
  const MultiModeMapping mapping = codec_.decode(genome);
  const CoreAllocation cores =
      build_core_allocation(system_, mapping, alloc_options_);
  return finish_fitness(evaluator_.evaluate(mapping, cores));
}

bool MappingGa::mode_cache_active() const {
  // keep_schedules results cannot be cached (the memo stores no
  // schedules); the GA hot loop never keeps them.
  return options_.memoize_mode_evaluations &&
         !evaluator_.options().keep_schedules;
}

void MappingGa::cache_insert(const Genome& genome, const CachedFitness& value) {
  const std::size_t cap = options_.memoize_cache_capacity;
  if (cap > 0) {
    while (cache_.size() >= cap && !cache_order_.empty()) {
      cache_.erase(cache_order_.front());
      cache_order_.pop_front();
    }
  }
  if (cache_.emplace(genome, value).second) cache_order_.push_back(genome);
}

void MappingGa::evaluate_batch(const std::vector<Individual*>& batch) {
  constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);

  auto apply = [](Individual& ind, const CachedFitness& c) {
    ind.fitness = c.fitness;
    ind.violation = c.violation;
    ind.area_infeasible = c.area_infeasible;
    ind.timing_infeasible = c.timing_infeasible;
    ind.transition_infeasible = c.transition_infeasible;
    ind.power_true = c.power_true;
    ind.evaluated = true;
  };

  // Phase 1 (serial, batch order): cache lookups plus in-batch dedup.
  // A genome that repeats inside the batch would, one-at-a-time, hit the
  // cache on its second occurrence — mirror that accounting exactly.
  std::vector<const Genome*> jobs;
  std::vector<std::size_t> job_of(batch.size(), kNoJob);
  std::unordered_map<Genome, std::size_t, GenomeHash> in_flight;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Individual& ind = *batch[i];
    if (options_.memoize_evaluations) {
      ++cache_lookups_;
      if (auto it = cache_.find(ind.genome); it != cache_.end()) {
        ++cache_hits_;
        apply(ind, it->second);
        continue;
      }
      if (auto it = in_flight.find(ind.genome); it != in_flight.end()) {
        ++cache_hits_;
        job_of[i] = it->second;
        continue;
      }
      in_flight.emplace(ind.genome, jobs.size());
    }
    job_of[i] = jobs.size();
    jobs.push_back(&ind.genome);
  }

  // Phase 2: pure evaluations, one slot per unique genome — through the
  // per-mode memo when it is active (see evaluate_jobs_incremental), as
  // plain whole-genome evaluations otherwise.
  std::vector<CachedFitness> results(jobs.size());
  if (mode_cache_active()) {
    evaluate_jobs_incremental(jobs, results);
  } else {
    auto run_job = [&](std::size_t j) {
      results[j] = compute_fitness(*jobs[j]);
    };
    if (pool_ && jobs.size() > 1) {
      pool_->parallel_for(jobs.size(), run_job);
    } else {
      for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
    }
  }

  // Phase 3 (serial, job then batch order): counters, cache, results.
  evaluations_ += static_cast<long>(jobs.size());
  if (options_.memoize_evaluations)
    for (std::size_t j = 0; j < jobs.size(); ++j)
      cache_insert(*jobs[j], results[j]);
  for (std::size_t i = 0; i < batch.size(); ++i)
    if (job_of[i] != kNoJob) apply(*batch[i], results[job_of[i]]);
}

void MappingGa::evaluate_jobs_incremental(
    const std::vector<const Genome*>& jobs,
    std::vector<CachedFitness>& results) {
  constexpr std::size_t kNoJob = static_cast<std::size_t>(-1);
  const std::size_t n_modes = system_.omsm.mode_count();

  // Phase 2a (parallel): decode, allocate cores, and build every mode's
  // cache key. Pure per job, no shared state touched.
  struct JobState {
    MultiModeMapping mapping;
    CoreAllocation cores;
    std::vector<ModeEvalKey> keys;
    std::vector<ModeEvaluation> modes;
    /// Per mode: index into `mode_jobs` when the inner loop still has to
    /// run, kNoJob when the cache served it.
    std::vector<std::size_t> pending;
  };
  std::vector<JobState> states(jobs.size());
  auto prepare = [&](std::size_t j) {
    JobState& st = states[j];
    st.mapping = codec_.decode(*jobs[j]);
    st.cores = build_core_allocation(system_, st.mapping, alloc_options_);
    st.keys.reserve(n_modes);
    for (std::size_t m = 0; m < n_modes; ++m)
      st.keys.push_back(evaluator_.mode_key(m, st.mapping, st.cores));
    st.modes.resize(n_modes);
    st.pending.assign(n_modes, kNoJob);
  };
  if (pool_ && jobs.size() > 1) {
    pool_->parallel_for(jobs.size(), prepare);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) prepare(j);
  }

  // Phase 2b (serial, job then mode order): memo lookups with in-flight
  // dedup — two jobs sharing a mode slice schedule its inner loop once;
  // the alias is credited as the hit a one-at-a-time run would have seen
  // on the entry its predecessor inserted.
  struct ModeJob {
    std::size_t job;  // owning job: runs the inner loop, inserts the result
    std::size_t mode;
  };
  std::vector<ModeJob> mode_jobs;
  std::unordered_map<ModeEvalKey, std::size_t, ModeEvalKeyHash> in_flight;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& st = states[j];
    for (std::size_t m = 0; m < n_modes; ++m) {
      if (const ModeEvaluation* cached = mode_cache_.find(st.keys[m])) {
        st.modes[m] = *cached;  // copy: the pointer dies on the next insert
        continue;
      }
      if (auto it = in_flight.find(st.keys[m]); it != in_flight.end()) {
        mode_cache_.credit_hit();
        st.pending[m] = it->second;
        continue;
      }
      in_flight.emplace(st.keys[m], mode_jobs.size());
      st.pending[m] = mode_jobs.size();
      mode_jobs.push_back({j, m});
    }
  }

  // Phase 2c (parallel): the missing inner loops, one disjoint slot each.
  // They run the same pipeline.run a cold evaluation runs, which is what
  // makes a hit bitwise-indistinguishable from a recompute.
  std::vector<ModeEvaluation> fresh(mode_jobs.size());
  const ModePipeline& pipeline = evaluator_.pipeline();
  auto run_mode = [&](std::size_t k) {
    const ModeJob& mj = mode_jobs[k];
    const JobState& st = states[mj.job];
    fresh[k] = pipeline.run(mj.mode, st.mapping.modes[mj.mode],
                            st.cores.per_mode[mj.mode]);
  };
  if (pool_ && mode_jobs.size() > 1) {
    pool_->parallel_for(mode_jobs.size(), run_mode);
  } else {
    for (std::size_t k = 0; k < mode_jobs.size(); ++k) run_mode(k);
  }

  // Phase 2d (serial, job then mode order): collect the fresh results,
  // insert each exactly once — by its owning job, so the FIFO order
  // matches the inserts a one-at-a-time run would have performed — then
  // assemble the cross-mode aggregations and price the fitness.
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobState& st = states[j];
    for (std::size_t m = 0; m < n_modes; ++m) {
      const std::size_t k = st.pending[m];
      if (k == kNoJob) continue;
      st.modes[m] = fresh[k];
      if (mode_jobs[k].job == j) mode_cache_.insert(st.keys[m], fresh[k]);
    }
    results[j] = finish_fitness(
        evaluator_.assemble(st.mapping, st.cores, std::move(st.modes)));
  }
}

void MappingGa::evaluate(Individual& ind) {
  const std::vector<Individual*> batch{&ind};
  evaluate_batch(batch);
}

double MappingGa::population_diversity() const {
  // Sampled mean pairwise Hamming fraction (full O(n²) is unnecessary).
  if (population_.size() < 2) return 0.0;
  double total = 0.0;
  int samples = 0;
  const std::size_t n = population_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = (i + 1 + i / 2) % n;
    if (i == j) continue;
    total += hamming_fraction(population_[i].genome, population_[j].genome);
    ++samples;
  }
  return samples ? total / samples : 0.0;
}

namespace {

SnapshotIndividual snapshot_individual(double fitness, double violation,
                                       double power_true, bool evaluated,
                                       bool area_inf, bool timing_inf,
                                       bool transition_inf,
                                       const Genome& genome) {
  SnapshotIndividual s;
  s.genome = genome;
  s.fitness = fitness;
  s.violation = violation;
  s.power_true = power_true;
  s.evaluated = evaluated;
  s.area_infeasible = area_inf;
  s.timing_infeasible = timing_inf;
  s.transition_infeasible = transition_inf;
  return s;
}

}  // namespace

std::uint64_t MappingGa::state_fingerprint() const {
  // Everything that shapes the trajectory; num_threads is deliberately
  // excluded (evaluation is bit-identical for any thread count).
  Fnv1a64 h;
  h.add(seed_).add(rng_.stream());
  h.add(options_.population_size)
      .add(options_.max_generations)
      .add(options_.stagnation_limit)
      .add(options_.diversity_floor)
      .add(options_.immigrant_fraction)
      .add(options_.replacement_fraction)
      .add(options_.gene_mutation_rate)
      .add(options_.tournament_size)
      .add(options_.ranking_pressure)
      .add(options_.elite_count)
      .add(options_.seed_heuristic_individuals)
      .add(options_.final_hill_climb_passes)
      .add(options_.final_two_opt_max_genes)
      .add(options_.memoize_evaluations)
      .add(options_.memoize_cache_capacity)
      .add(options_.memoize_mode_evaluations)
      .add(options_.mode_cache_capacity)
      .add(options_.shutdown_improvement_rate)
      .add(options_.infeasibility_trigger)
      .add(options_.improvement_sweep_fraction);
  h.add(fitness_params_.area_weight)
      .add(fitness_params_.transition_weight)
      .add(fitness_params_.timing_weight);
  h.add(alloc_options_.allocate_parallel_cores)
      .add(alloc_options_.mobility_threshold);
  const EvaluationOptions& eval = evaluator_.options();
  h.add(eval.use_dvs)
      .add(static_cast<int>(eval.scheduling_policy))
      .add(eval.dvs.max_iterations_per_node)
      .add(eval.dvs.step_fraction)
      .add(eval.dvs.min_relative_gain)
      .add(eval.dvs.discrete_voltages)
      .add(eval.dvs.scale_hardware);
  // Reference power (null or `paper`) adds nothing — pre-power-registry
  // checkpoints stay resumable; other backends fence the trajectory.
  if (eval.power != nullptr && !eval.power->is_reference_model())
    h.add(eval.power->fingerprint());
  for (double w : evaluator_.optimisation_weights()) h.add(w);
  h.add(codec_.genome_length());
  for (std::size_t g = 0; g < codec_.genome_length(); ++g)
    h.add(codec_.candidates(g).size());
  return h.digest();
}

GaSnapshot MappingGa::snapshot(const LoopState& st) const {
  const Individual& best = st.best;
  GaSnapshot s;
  s.fingerprint = state_fingerprint();
  s.next_generation = st.generation;
  s.stagnation = st.stagnation;
  s.converged = st.converged;
  s.area_infeasible_streak = st.area_infeasible_streak;
  s.timing_infeasible_streak = st.timing_infeasible_streak;
  s.transition_infeasible_streak = st.transition_infeasible_streak;
  s.evaluations = evaluations_;
  s.cache_hits = cache_hits_;
  s.cache_lookups = cache_lookups_;
  s.elapsed_seconds = loop_elapsed(st);
  s.rng_state = rng_.state();
  s.has_best = best.evaluated;
  s.best = snapshot_individual(best.fitness, best.violation, best.power_true,
                               best.evaluated, best.area_infeasible,
                               best.timing_infeasible,
                               best.transition_infeasible, best.genome);
  s.population.reserve(population_.size());
  for (const Individual& ind : population_)
    s.population.push_back(snapshot_individual(
        ind.fitness, ind.violation, ind.power_true, ind.evaluated,
        ind.area_infeasible, ind.timing_infeasible, ind.transition_infeasible,
        ind.genome));
  // Cache entries in insertion order so FIFO eviction replays identically.
  s.cache.reserve(cache_order_.size());
  for (const Genome& genome : cache_order_) {
    const CachedFitness& c = cache_.at(genome);
    s.cache.push_back(snapshot_individual(
        c.fitness, c.violation, c.power_true, /*evaluated=*/true,
        c.area_infeasible, c.timing_infeasible, c.transition_infeasible,
        genome));
  }
  // The per-mode memo travels too (insertion order again): its hit/lookup
  // counters are part of the reported statistics, and replaying the warm
  // cache keeps a resumed run's wall clock — not just its results — close
  // to the uninterrupted run's.
  s.mode_cache = mode_cache_.entries();
  s.mode_cache_hits = mode_cache_.hits();
  s.mode_cache_lookups = mode_cache_.lookups();
  return s;
}

void MappingGa::restore(const GaSnapshot& snapshot) {
  if (snapshot.fingerprint != state_fingerprint())
    throw CheckpointError(
        "fingerprint mismatch: the checkpoint was written by a run with a "
        "different seed, options, or system");
  if (snapshot.population.size() !=
      static_cast<std::size_t>(options_.population_size))
    throw CheckpointError("population size mismatch");
  restored_ = std::make_unique<GaSnapshot>(snapshot);
}

Genome MappingGa::software_seed_genome() const {
  Genome genome(codec_.genome_length(), 0);
  for (std::size_t g = 0; g < codec_.genome_length(); ++g) {
    const auto& cands = codec_.candidates(g);
    const ModeId mode = codec_.mode_of_gene(g);
    const TaskTypeId type =
        system_.omsm.mode(mode).graph.task(codec_.task_of_gene(g)).type;
    double best_energy = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < cands.size(); ++c) {
      if (!is_software(system_.arch.pe(cands[c]).kind)) continue;
      const double e = system_.tech.require(type, cands[c]).energy();
      if (e < best_energy) {
        best_energy = e;
        genome[g] = static_cast<std::uint16_t>(c);
      }
    }
    // Types without any software implementation stay on candidate 0.
  }
  return genome;
}

Genome MappingGa::knapsack_seed_genome(std::vector<double> mode_weights) const {
  std::vector<double> weights = mode_weights.empty()
                                    ? evaluator_.optimisation_weights()
                                    : std::move(mode_weights);
  {
    double total = 0.0;
    for (double w : weights) total += w;
    if (total > 0.0)
      for (double& w : weights) w /= total;
  }
  Genome genome = software_seed_genome();

  // Cheapest software energy per (mode-independent) type, as the baseline
  // each hardware core competes against.
  auto sw_energy = [&](TaskTypeId type) {
    double best = std::numeric_limits<double>::infinity();
    for (PeId p : system_.arch.pe_ids()) {
      if (!is_software(system_.arch.pe(p).kind)) continue;
      if (!system_.tech.supports(type, p)) continue;
      best = std::min(best, system_.tech.require(type, p).energy());
    }
    return best;
  };

  // Per-mode use count of every type.
  const std::size_t n_modes = system_.omsm.mode_count();
  const std::size_t n_types = system_.tech.type_count();
  std::vector<std::vector<std::size_t>> uses(
      n_modes, std::vector<std::size_t>(n_types, 0));
  for (std::size_t m = 0; m < n_modes; ++m)
    for (const Task& task :
         system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)})
             .graph.tasks())
      ++uses[m][task.type.index()];

  // Weighted power saving of implementing `type` on hardware PE `p` for
  // the mode subset `m` (or all modes when m == npos):
  // Σ_m w_m · uses_m · (E_sw − E_hw) / period_m.
  constexpr std::size_t kAllModes = static_cast<std::size_t>(-1);
  auto weighted_saving = [&](TaskTypeId type, PeId p, std::size_t only_mode) {
    const double base = sw_energy(type);
    const Implementation& impl = system_.tech.require(type, p);
    double saving = 0.0;
    for (std::size_t m = 0; m < n_modes; ++m) {
      if (only_mode != kAllModes && m != only_mode) continue;
      if (uses[m][type.index()] == 0) continue;
      const Mode& mode =
          system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
      const double delta =
          std::isfinite(base) ? base - impl.energy() : impl.energy();
      saving += weights[m] * static_cast<double>(uses[m][type.index()]) *
                delta / mode.period;
    }
    return saving;
  };

  struct CoreChoice {
    TaskTypeId type;
    PeId pe;
    std::size_t mode = 0;  // kAllModes for ASIC placements
    double saving = 0.0;   // watts
    double area = 0.0;
  };
  auto by_density = [](const CoreChoice& a, const CoreChoice& b) {
    return a.saving / a.area > b.saving / b.area;
  };

  std::vector<double> remaining(system_.arch.pe_count(), 0.0);
  for (PeId p : system_.arch.pe_ids())
    remaining[p.index()] = system_.arch.pe(p).area_capacity;

  // ---- Pass 1: ASICs (static silicon — one placement serves all modes).
  std::vector<CoreChoice> asic_choices;
  for (std::size_t t = 0; t < n_types; ++t) {
    const TaskTypeId type{static_cast<TaskTypeId::value_type>(t)};
    for (PeId p : system_.arch.pe_ids()) {
      if (system_.arch.pe(p).kind != PeKind::kAsic) continue;
      if (!system_.tech.supports(type, p)) continue;
      const double area = system_.tech.require(type, p).area;
      const double saving = weighted_saving(type, p, kAllModes);
      if (saving > 0.0 && area > 0.0)
        asic_choices.push_back({type, p, kAllModes, saving, area});
    }
  }
  std::sort(asic_choices.begin(), asic_choices.end(), by_density);
  std::vector<PeId> placed(n_types, PeId::invalid());
  for (const CoreChoice& c : asic_choices) {
    if (placed[c.type.index()].valid()) continue;
    if (remaining[c.pe.index()] < c.area) continue;
    remaining[c.pe.index()] -= c.area;
    placed[c.type.index()] = c.pe;
  }

  // ---- Pass 2: FPGAs (reconfigurable — independent per-mode budgets).
  std::vector<std::vector<PeId>> placed_fpga(
      n_modes, std::vector<PeId>(n_types, PeId::invalid()));
  std::vector<CoreChoice> fpga_choices;
  for (std::size_t t = 0; t < n_types; ++t) {
    const TaskTypeId type{static_cast<TaskTypeId::value_type>(t)};
    if (placed[t].valid()) continue;  // already covered by an ASIC
    for (PeId p : system_.arch.pe_ids()) {
      if (system_.arch.pe(p).kind != PeKind::kFpga) continue;
      if (!system_.tech.supports(type, p)) continue;
      const double area = system_.tech.require(type, p).area;
      for (std::size_t m = 0; m < n_modes; ++m) {
        if (uses[m][t] == 0) continue;
        const double saving = weighted_saving(type, p, m);
        if (saving > 0.0 && area > 0.0)
          fpga_choices.push_back({type, p, m, saving, area});
      }
    }
  }
  std::sort(fpga_choices.begin(), fpga_choices.end(), by_density);
  // Per-mode budgets: the free area, additionally capped by the tightest
  // incoming transition-time limit (a full reconfiguration into the mode
  // must stay below t_T^max; resident cores would relax this, which the
  // GA can discover later).
  std::vector<std::vector<double>> remaining_fpga(
      n_modes, std::vector<double>(system_.arch.pe_count(), 0.0));
  for (std::size_t m = 0; m < n_modes; ++m) {
    double tightest = std::numeric_limits<double>::infinity();
    for (const ModeTransition& tr : system_.omsm.transitions())
      if (tr.to.index() == m)
        tightest = std::min(tightest, tr.max_transition_time);
    for (PeId p : system_.arch.pe_ids()) {
      double budget = remaining[p.index()];
      const Pe& pe = system_.arch.pe(p);
      if (pe.kind == PeKind::kFpga && std::isfinite(tightest))
        budget = std::min(budget, tightest * pe.reconfig_bandwidth);
      remaining_fpga[m][p.index()] = budget;
    }
  }
  for (const CoreChoice& c : fpga_choices) {
    if (placed_fpga[c.mode][c.type.index()].valid()) continue;
    if (remaining_fpga[c.mode][c.pe.index()] < c.area) continue;
    remaining_fpga[c.mode][c.pe.index()] -= c.area;
    placed_fpga[c.mode][c.type.index()] = c.pe;
  }

  for (std::size_t g = 0; g < codec_.genome_length(); ++g) {
    const ModeId mode = codec_.mode_of_gene(g);
    const TaskTypeId type =
        system_.omsm.mode(mode).graph.task(codec_.task_of_gene(g)).type;
    PeId target = placed[type.index()];
    if (!target.valid()) target = placed_fpga[mode.index()][type.index()];
    if (target.valid()) codec_.set_pe(genome, g, target);
  }
  return genome;
}

namespace {

MappingGa::Individual individual_from_snapshot(const SnapshotIndividual& s) {
  MappingGa::Individual ind;
  ind.genome = s.genome;
  ind.fitness = s.fitness;
  ind.violation = s.violation;
  ind.power_true = s.power_true;
  ind.evaluated = s.evaluated;
  ind.area_infeasible = s.area_infeasible;
  ind.timing_infeasible = s.timing_infeasible;
  ind.transition_infeasible = s.transition_infeasible;
  return ind;
}

}  // namespace

double MappingGa::loop_elapsed(const LoopState& st) const {
  // Wall-clock seconds spent before a resumed checkpoint count too, so
  // budgets and the reported elapsed time span interruptions.
  return st.elapsed_base +
         std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       st.t_begin)
             .count();
}

const MappingGa::Individual& MappingGa::population_at(int slot) const {
  return population_[static_cast<std::size_t>(slot)];
}

void MappingGa::install_individual(int slot, Individual migrant) {
  population_[static_cast<std::size_t>(slot)] = std::move(migrant);
}

void MappingGa::start_loop(LoopState& st) {
  st = LoopState{};
  st.t_begin = std::chrono::steady_clock::now();
  st.best.fitness = std::numeric_limits<double>::infinity();
  st.best.violation = std::numeric_limits<double>::infinity();

  if (restored_) {
    // Resume: replay the exact state entering `next_generation` — the
    // population, the best-so-far, the RNG stream, every counter, and the
    // memo cache in insertion order (so FIFO eviction continues where it
    // left off). From here the run is bit-identical to one that was never
    // interrupted.
    const GaSnapshot& s = *restored_;
    population_.clear();
    population_.reserve(s.population.size());
    for (const SnapshotIndividual& ind : s.population)
      population_.push_back(individual_from_snapshot(ind));
    if (s.has_best) st.best = individual_from_snapshot(s.best);
    st.stagnation = s.stagnation;
    st.converged = s.converged;
    st.area_infeasible_streak = s.area_infeasible_streak;
    st.timing_infeasible_streak = s.timing_infeasible_streak;
    st.transition_infeasible_streak = s.transition_infeasible_streak;
    evaluations_ = s.evaluations;
    cache_hits_ = s.cache_hits;
    cache_lookups_ = s.cache_lookups;
    st.elapsed_base = s.elapsed_seconds;
    rng_.set_state(s.rng_state);
    cache_.clear();
    cache_order_.clear();
    for (const SnapshotIndividual& entry : s.cache)
      cache_insert(entry.genome,
                   CachedFitness{entry.fitness, entry.violation,
                                 entry.area_infeasible, entry.timing_infeasible,
                                 entry.transition_infeasible,
                                 entry.power_true});
    mode_cache_.restore(s.mode_cache, s.mode_cache_hits,
                        s.mode_cache_lookups);
    st.generation = s.next_generation;
    restored_.reset();
  } else {
    // Line 01: random initial population, optionally with two deterministic
    // heuristic seeds that give both comparison approaches the same footing.
    population_.clear();
    population_.reserve(static_cast<std::size_t>(options_.population_size));
    for (int i = 0; i < options_.population_size; ++i)
      population_.push_back(Individual{codec_.random_genome(rng_)});
    if (options_.seed_heuristic_individuals && options_.population_size >= 4) {
      // Greedy seeds of the GA's own objective and of the uniform objective,
      // plus the all-software mapping. The uniform seed carries no mode-
      // probability information, so the probability-neglecting baseline
      // stays honest while both runs get equally strong starting points.
      population_[0].genome = knapsack_seed_genome();
      population_[1].genome = knapsack_seed_genome(
          std::vector<double>(system_.omsm.mode_count(), 1.0));
      population_[2].genome = software_seed_genome();
    }
  }
}

bool MappingGa::step_generation(
    LoopState& st, const std::function<void(const GaProgress&)>& observer) {
  if (st.converged || st.generation >= options_.max_generations) return false;

  const int n = options_.population_size;
  const int elite = std::min(options_.elite_count, n);

  {
    // Lines 03–14: estimate objectives and assign fitness. The whole
    // unevaluated cohort is batched so cache misses fan out across the
    // worker pool (bit-identical to the serial path, see evaluate_batch).
    std::vector<Individual*> unevaluated;
    for (Individual& ind : population_)
      if (!ind.evaluated) unevaluated.push_back(&ind);
    evaluate_batch(unevaluated);

    // Line 15: rank individuals (best first), feasibility-first.
    std::sort(population_.begin(), population_.end(),
              [](const Individual& a, const Individual& b) {
                return candidate_better(a.violation, a.fitness, b.violation,
                                        b.fitness);
              });

    const Individual& front = population_.front();
    if (candidate_better(front.violation, front.fitness, st.best.violation,
                         st.best.fitness * (1.0 - 1e-9))) {
      st.best = front;
      st.stagnation = 0;
    } else {
      ++st.stagnation;
    }

    const double diversity = population_diversity();
    if (observer)
      observer(GaProgress{st.generation, st.best.fitness, st.best.power_true,
                          diversity, evaluations_, cache_hits_,
                          cache_lookups_, mode_cache_.hits(),
                          mode_cache_.lookups()});

    // Line 02: convergence criterion — stagnation, optionally accelerated
    // by a collapsed population. Latched in `converged` (and persisted in
    // checkpoints): the diversity term is measured on the just-evaluated
    // population, which the breeding below overwrites, so the decision
    // could not be re-derived from a later snapshot.
    if (st.stagnation >= options_.stagnation_limit ||
        (options_.diversity_floor > 0.0 &&
         diversity < options_.diversity_floor &&
         st.stagnation >= options_.stagnation_limit / 2)) {
      st.converged = true;
      return false;
    }

    // Linear-ranking selection weights (position 0 = best).
    const double s = options_.ranking_pressure;
    std::vector<double> rank_weight(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      rank_weight[static_cast<std::size_t>(i)] =
          s - 2.0 * (s - 1.0) * static_cast<double>(i) /
                  std::max(1, n - 1);

    auto tournament_pick = [&]() {
      std::size_t winner = rng_.pick_index(population_.size());
      for (int k = 1; k < options_.tournament_size; ++k) {
        const std::size_t challenger = rng_.pick_index(population_.size());
        if (rank_weight[challenger] > rank_weight[winner])
          winner = challenger;
      }
      return winner;
    };

    // Lines 16–18: mating, two-point crossover, offspring insertion.
    // Clamped to the non-elite range so replacement can never clobber the
    // elite slots (including the incumbent best at slot 0).
    const int offspring_count = ga_detail::clamped_offspring_count(
        options_.replacement_fraction, n, elite);
    std::vector<Individual> offspring;
    offspring.reserve(static_cast<std::size_t>(offspring_count));
    const std::size_t genes = codec_.genome_length();
    while (static_cast<int>(offspring.size()) < offspring_count) {
      const Genome& a = population_[tournament_pick()].genome;
      const Genome& b = population_[tournament_pick()].genome;
      Genome child1 = a;
      Genome child2 = b;
      if (genes >= 2) {
        std::size_t cut1 = rng_.pick_index(genes);
        std::size_t cut2 = rng_.pick_index(genes);
        if (cut1 > cut2) std::swap(cut1, cut2);
        for (std::size_t g = cut1; g < cut2; ++g) {
          child1[g] = b[g];
          child2[g] = a[g];
        }
      }
      offspring.push_back(Individual{std::move(child1)});
      if (static_cast<int>(offspring.size()) < offspring_count)
        offspring.push_back(Individual{std::move(child2)});
    }

    // Random gene mutation on offspring.
    for (Individual& ind : offspring)
      for (std::size_t g = 0; g < genes; ++g)
        if (rng_.chance(options_.gene_mutation_rate))
          ind.genome[g] = static_cast<std::uint16_t>(
              rng_.pick_index(codec_.candidates(g).size()));

    // Replace the ranked-worst individuals.
    for (int i = 0; i < offspring_count; ++i)
      population_[static_cast<std::size_t>(n - 1 - i)] =
          std::move(offspring[static_cast<std::size_t>(i)]);

    // Random immigrants: keep exploration alive after the population
    // concentrates around the incumbent. immigrant_count already caps the
    // request by the free non-elite slots (slot == elite is the first
    // legal one), so every slot here is insertable.
    const int immigrants = ga_detail::immigrant_count(
        options_.immigrant_fraction, n, offspring_count, elite);
    for (int i = 0; i < immigrants; ++i) {
      const int slot = ga_detail::immigrant_slot(n, offspring_count, i);
      population_[static_cast<std::size_t>(slot)] =
          Individual{codec_.random_genome(rng_)};
    }

    // Lines 19–22: improvement mutations (never touching the elite).
    auto non_elite_index = [&]() {
      return static_cast<std::size_t>(
          elite + static_cast<int>(rng_.pick_index(
                      static_cast<std::size_t>(n - elite))));
    };

    // Shut-down improvement on randomly picked individuals (2%).
    for (int i = elite; i < n; ++i) {
      if (!rng_.chance(options_.shutdown_improvement_rate)) continue;
      Individual& ind = population_[static_cast<std::size_t>(i)];
      if (shutdown_improvement(ind.genome, codec_, system_, rng_))
        ind.evaluated = false;
    }

    // Stagnation-triggered sweeps, driven by whole-population
    // infeasibility streaks.
    const bool all_area = std::all_of(
        population_.begin(), population_.end(),
        [](const Individual& i) { return !i.evaluated || i.area_infeasible; });
    const bool all_timing =
        std::all_of(population_.begin(), population_.end(),
                    [](const Individual& i) {
                      return !i.evaluated || i.timing_infeasible;
                    });
    const bool all_transition =
        std::all_of(population_.begin(), population_.end(),
                    [](const Individual& i) {
                      return !i.evaluated || i.transition_infeasible;
                    });
    st.area_infeasible_streak = all_area ? st.area_infeasible_streak + 1 : 0;
    st.timing_infeasible_streak =
        all_timing ? st.timing_infeasible_streak + 1 : 0;
    st.transition_infeasible_streak =
        all_transition ? st.transition_infeasible_streak + 1 : 0;

    const int sweep = std::max(
        1, static_cast<int>(options_.improvement_sweep_fraction * n));
    if (st.area_infeasible_streak >= options_.infeasibility_trigger) {
      for (int i = 0; i < sweep; ++i) {
        Individual& ind = population_[non_elite_index()];
        if (area_improvement(ind.genome, codec_, system_, rng_))
          ind.evaluated = false;
      }
      st.area_infeasible_streak = 0;
    }
    if (st.timing_infeasible_streak >= options_.infeasibility_trigger) {
      for (int i = 0; i < sweep; ++i) {
        Individual& ind = population_[non_elite_index()];
        if (timing_improvement(ind.genome, codec_, system_, rng_))
          ind.evaluated = false;
      }
      st.timing_infeasible_streak = 0;
    }
    if (st.transition_infeasible_streak >= options_.infeasibility_trigger) {
      for (int i = 0; i < sweep; ++i) {
        Individual& ind = population_[non_elite_index()];
        if (transition_improvement(ind.genome, codec_, system_, rng_))
          ind.evaluated = false;
      }
      st.transition_infeasible_streak = 0;
    }
  }

  ++st.generation;
  return true;
}

void MappingGa::finish_loop(LoopState& st, RunControl* control) {
  // Sequential acceptance over a pre-evaluated trial batch. All trials
  // differ from `best` only at the probed gene(s), so accepting an
  // earlier trial never changes what a later trial's genome would have
  // been — evaluating the whole batch up front (in parallel) and merging
  // in order is exactly the one-at-a-time algorithm.
  auto merge_trials = [&](std::vector<Individual>& trials, bool& improved) {
    std::vector<Individual*> batch;
    batch.reserve(trials.size());
    for (Individual& trial : trials) batch.push_back(&trial);
    evaluate_batch(batch);
    for (Individual& trial : trials) {
      if (candidate_better(trial.violation, trial.fitness, st.best.violation,
                           st.best.fitness * (1.0 - 1e-12))) {
        st.best = trial;
        improved = true;
      }
    }
  };

  // A stop before the first evaluation still owes the caller a result:
  // price the strongest seed (slot 0 holds the objective-aware greedy
  // when heuristic seeding is on) so even a zero-budget run returns a
  // well-formed, fully evaluated candidate.
  if (!st.best.evaluated && !population_.empty()) {
    Individual fallback{population_.front().genome};
    evaluate(fallback);
    st.best = fallback;
  }

  // The polish phases honour cancellation between trial batches: a
  // partial run skips them entirely, a cancel arriving mid-polish keeps
  // the best individual accepted so far.
  auto polish_interrupted = [&] {
    if (st.partial) return true;
    if (control && control->should_stop(loop_elapsed(st))) {
      st.partial = true;
      st.stop_reason = control->budget_exhausted(loop_elapsed(st))
                           ? StopReason::kBudgetExhausted
                           : StopReason::kCancelled;
    }
    return st.partial;
  };

  // Memetic polish: single-gene hill climbing on the best individual.
  if (options_.final_hill_climb_passes > 0 && st.best.evaluated &&
      !polish_interrupted()) {
    std::vector<std::size_t> order(codec_.genome_length());
    for (std::size_t g = 0; g < order.size(); ++g) order[g] = g;
    for (int pass = 0;
         pass < options_.final_hill_climb_passes && !polish_interrupted();
         ++pass) {
      bool improved = false;
      rng_.shuffle(order);
      for (std::size_t g : order) {
        if (polish_interrupted()) break;
        const std::size_t cands = codec_.candidates(g).size();
        if (cands < 2) continue;
        const std::uint16_t original = st.best.genome[g];
        std::vector<Individual> trials;
        trials.reserve(cands - 1);
        for (std::uint16_t c = 0; c < cands; ++c) {
          if (c == original) continue;
          Individual trial = st.best;
          trial.genome[g] = c;
          trial.evaluated = false;
          trials.push_back(std::move(trial));
        }
        merge_trials(trials, improved);
      }
      if (!improved) break;
    }
  }

  // 2-opt polish on small genomes: coordinated two-gene moves (e.g. swap
  // one core allocation for another that only fits after freeing area).
  // One gene pair's candidate grid forms one parallel batch.
  if (st.best.evaluated &&
      static_cast<int>(codec_.genome_length()) <=
          options_.final_two_opt_max_genes &&
      !polish_interrupted()) {
    bool improved = true;
    for (int round = 0; improved && round < 3 && !polish_interrupted();
         ++round) {
      improved = false;
      for (std::size_t g1 = 0; g1 < codec_.genome_length(); ++g1) {
        if (polish_interrupted()) break;
        for (std::size_t g2 = g1 + 1; g2 < codec_.genome_length(); ++g2) {
          const std::size_t c1n = codec_.candidates(g1).size();
          const std::size_t c2n = codec_.candidates(g2).size();
          std::vector<Individual> trials;
          trials.reserve(c1n * c2n - 1);
          for (std::uint16_t c1 = 0; c1 < c1n; ++c1) {
            for (std::uint16_t c2 = 0; c2 < c2n; ++c2) {
              if (c1 == st.best.genome[g1] && c2 == st.best.genome[g2])
                continue;
              Individual trial = st.best;
              trial.genome[g1] = c1;
              trial.genome[g2] = c2;
              trial.evaluated = false;
              trials.push_back(std::move(trial));
            }
          }
          merge_trials(trials, improved);
        }
      }
    }
  }
}

SynthesisResult MappingGa::harvest(const LoopState& st) {
  // Assemble the result from the best individual seen.
  SynthesisResult result;
  result.mapping = codec_.decode(st.best.genome);
  result.cores = build_core_allocation(system_, result.mapping, alloc_options_);
  result.evaluation = evaluator_.evaluate(result.mapping, result.cores);
  result.fitness = st.best.fitness;
  result.generations = st.generation;
  result.evaluations = evaluations_;
  result.cache_hits = cache_hits_;
  result.cache_lookups = cache_lookups_;
  result.mode_cache_hits = mode_cache_.hits();
  result.mode_cache_lookups = mode_cache_.lookups();
  result.elapsed_seconds = loop_elapsed(st);
  result.partial = st.partial;
  result.stop_reason = st.stop_reason;
  return result;
}

}  // namespace mmsyn
