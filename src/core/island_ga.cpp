#include "core/island_ga.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/checksum.hpp"
#include "common/thread_pool.hpp"
#include "core/fitness.hpp"
#include "core/run_control.hpp"

namespace mmsyn {

/// One shard: its GA and the loop state the coordinator steps it with.
struct IslandGa::Island {
  MappingGa ga;
  MappingGa::LoopState st;

  Island(const System& system, const Evaluator& evaluator,
         FitnessParams fitness_params, AllocationOptions alloc_options,
         GaOptions options, std::uint64_t seed, std::uint64_t rng_stream)
      : ga(system, evaluator, std::move(fitness_params),
           std::move(alloc_options), std::move(options), seed, rng_stream) {}

  /// Converged or at the generation cap: the loop never runs again.
  [[nodiscard]] bool finished(int max_generations) const {
    return st.converged || st.generation >= max_generations;
  }
};

void IslandGa::validate(const GaOptions& ga_options,
                        const IslandOptions& island_options) {
  if (ga_options.population_size < 1)
    throw std::invalid_argument(
        "population: --population must be >= 1 (got " +
        std::to_string(ga_options.population_size) + ")");
  if (island_options.islands < 1)
    throw std::invalid_argument(
        "islands: --islands must be >= 1 (got " +
        std::to_string(island_options.islands) + ")");
  if (island_options.islands == 1) return;  // no ring: the migration
                                            // knobs are inert
  if (island_options.migration_interval < 1)
    throw std::invalid_argument(
        "islands: --migration-interval must be >= 1 (got " +
        std::to_string(island_options.migration_interval) + ")");
  if (island_options.migrants < 0)
    throw std::invalid_argument(
        "islands: --migrants must be >= 0 (got " +
        std::to_string(island_options.migrants) + ")");
  const int elite =
      std::min(ga_options.elite_count, ga_options.population_size);
  if (island_options.migrants > ga_options.population_size - elite)
    throw std::invalid_argument(
        "islands: --migrants=" + std::to_string(island_options.migrants) +
        " would overwrite elite slots: population " +
        std::to_string(ga_options.population_size) + " keeps " +
        std::to_string(elite) + " elites, so at most " +
        std::to_string(ga_options.population_size - elite) +
        " migrants fit per island");
}

IslandGa::IslandGa(const System& system, const Evaluator& evaluator,
                   FitnessParams fitness_params,
                   AllocationOptions alloc_options, GaOptions ga_options,
                   IslandOptions island_options, std::uint64_t seed)
    : island_options_(island_options),
      max_generations_(ga_options.max_generations) {
  validate(ga_options, island_options);
  const int n = island_options.islands;
  if (n == 1) {
    // No ring: a single population never migrates, so its schedule is
    // neither a barrier nor part of the fingerprint.
    island_options_.migration_interval = 0;
    island_options_.migrants = 0;
  }
  const int resolved = ThreadPool::resolve_thread_count(ga_options.num_threads);
  outer_threads_ = std::min(n, resolved);
  islands_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    GaOptions options = ga_options;
    std::uint64_t stream = 0;
    if (n > 1) {
      // Each island owns a kIsland-domain stream — a pure function of
      // (seed, island index), disjoint from the base stream 0 — and an
      // even share of the thread budget (the coordinator fans the islands
      // themselves out over outer_threads_). A single island keeps stream
      // 0 and the caller's thread count.
      stream = rng_streams::island_stream(static_cast<std::uint32_t>(i));
      options.num_threads = std::max(1, resolved / n);
    }
    islands_.push_back(std::make_unique<Island>(
        system, evaluator, fitness_params, alloc_options, std::move(options),
        seed, stream));
  }
}

IslandGa::~IslandGa() = default;

std::uint64_t IslandGa::state_fingerprint() const {
  Fnv1a64 h;
  h.add(island_options_.islands)
      .add(island_options_.migration_interval)
      .add(island_options_.migrants);
  // The per-island fingerprints embed the seed, every GA option, and the
  // island's random stream, so this digest pins the whole sharded
  // trajectory.
  for (const auto& island : islands_) h.add(island->ga.state_fingerprint());
  return h.digest();
}

IslandSnapshot IslandGa::make_snapshot() const {
  IslandSnapshot s;
  s.fingerprint = state_fingerprint();
  s.island_count = static_cast<std::int32_t>(islands_.size());
  s.migration_interval =
      static_cast<std::int32_t>(island_options_.migration_interval);
  s.migrants = static_cast<std::int32_t>(island_options_.migrants);
  s.next_migration_generation = next_migration_;
  s.islands.reserve(islands_.size());
  for (const auto& island : islands_)
    s.islands.push_back(island->ga.snapshot(island->st));
  return s;
}

void IslandGa::restore(const IslandSnapshot& snapshot) {
  if (snapshot.island_count != static_cast<std::int32_t>(islands_.size()))
    throw CheckpointError(
        "island count mismatch: the checkpoint holds " +
        std::to_string(snapshot.island_count) + " islands, this run has " +
        std::to_string(islands_.size()) + " — rerun with --islands=" +
        std::to_string(snapshot.island_count));
  if (snapshot.fingerprint != state_fingerprint())
    throw CheckpointError(
        "island configuration fingerprint mismatch: the checkpoint was "
        "written under a different migration schedule, seed, or GA options");
  for (std::size_t i = 0; i < islands_.size(); ++i)
    islands_[i]->ga.restore(snapshot.islands[i]);
  next_migration_ = snapshot.next_migration_generation;
  restored_ = true;
}

void IslandGa::migrate() {
  const int n = static_cast<int>(islands_.size());
  const int k = island_options_.migrants;
  if (n < 2 || k == 0) return;  // self-migration is a no-op by contract

  // Gather first, then install: every emigrant is copied from the
  // pre-migration population, so the exchange is order-independent even
  // though the installs run in fixed island order.
  std::vector<std::vector<Individual>> emigrants(
      static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& out = emigrants[static_cast<std::size_t>(i)];
    out.reserve(static_cast<std::size_t>(k));
    for (int m = 0; m < k; ++m)
      out.push_back(islands_[static_cast<std::size_t>(i)]->ga.population_at(m));
  }
  for (int i = 0; i < n; ++i) {
    Island& dest = *islands_[static_cast<std::size_t>(i)];
    // Finished islands still emigrate (gathered above) but receive
    // nothing: their loop never runs again, so installing would only
    // perturb the checkpointed population.
    if (dest.finished(max_generations_)) continue;
    const int source = (i + n - 1) % n;
    const int pop = dest.ga.population_size();
    for (int m = 0; m < k; ++m)
      dest.ga.install_individual(
          pop - 1 - m, emigrants[static_cast<std::size_t>(source)]
                           [static_cast<std::size_t>(m)]);
  }
}

int IslandGa::segment_end(const RunControl* control) const {
  int end = max_generations_;
  if (islands_.size() > 1)
    end = static_cast<int>(std::min<std::int64_t>(end, next_migration_));
  if (control != nullptr) {
    int lowest = end;
    for (const auto& island : islands_)
      if (!island->finished(max_generations_))
        lowest = std::min(lowest, island->st.generation);
    end = std::min(end, control->next_checkpoint_due(lowest));
  }
  return end;
}

SynthesisResult IslandGa::run(
    const std::function<void(const GaProgress&)>& observer,
    RunControl* control) {
  for (auto& island : islands_) island->ga.start_loop(island->st);
  if (!restored_) next_migration_ = island_options_.migration_interval;
  restored_ = false;

  // A cooperative stop (budget/cancel) raises the flag from whichever
  // island notices first; every island then stops at its next generation
  // boundary. The mid-segment checkpoint this produces depends on where
  // each island happened to be — but a resume advances every island to
  // the same barrier before migrating, and island segments are mutually
  // independent, so the post-barrier state (and the final result) is
  // still a pure function of (seed, islands, schedule).
  std::atomic<bool> stopped{false};
  ThreadPool pool(outer_threads_);
  const std::function<void(const GaProgress&)> no_observer{};
  const auto all_finished = [&] {
    return std::all_of(islands_.begin(), islands_.end(),
                       [&](const std::unique_ptr<Island>& island) {
                         return island->finished(max_generations_);
                       });
  };

  while (!all_finished()) {
    const int target = segment_end(control);
    pool.parallel_for(islands_.size(), [&](std::size_t i) {
      Island& island = *islands_[i];
      while (!island.st.converged && island.st.generation < target) {
        if (stopped.load(std::memory_order_relaxed)) return;
        if (control != nullptr &&
            control->should_stop(island.ga.loop_elapsed(island.st))) {
          stopped.store(true, std::memory_order_relaxed);
          return;
        }
        if (!island.ga.step_generation(island.st,
                                       i == 0 ? observer : no_observer)) {
          return;
        }
      }
    });

    if (stopped.load(std::memory_order_relaxed)) {
      if (control->checkpointing_enabled())
        control->write_island_checkpoint(make_snapshot());
      const StopReason reason =
          control->budget_exhausted(
              islands_.front()->ga.loop_elapsed(islands_.front()->st))
              ? StopReason::kBudgetExhausted
              : StopReason::kCancelled;
      for (auto& island : islands_) {
        island->st.partial = true;
        island->st.stop_reason = reason;
      }
      break;
    }

    // Barrier reached with a ring: every unfinished island sits exactly
    // at `next_migration_`. Exchange and schedule the next barrier; the
    // checkpoint below then holds the post-migration state (its
    // next_migration_generation says the exchange already happened).
    const bool barrier = islands_.size() > 1 && target == next_migration_ &&
                         !all_finished();
    if (barrier) {
      migrate();
      next_migration_ += island_options_.migration_interval;
    }
    // One checkpoint rule for every island count: after every migration,
    // and whenever --checkpoint-every says a save is due at the
    // generation an island just reached.
    const bool save =
        control != nullptr && control->checkpointing_enabled() &&
        (barrier || (control->checkpoint_due(target - 1) &&
                     std::any_of(islands_.begin(), islands_.end(),
                                 [&](const std::unique_ptr<Island>& island) {
                                   return island->st.generation == target;
                                 })));
    if (save) control->write_island_checkpoint(make_snapshot());
  }

  Island* best = islands_.front().get();
  for (const auto& island : islands_) {
    const Score& a = island->st.best.score;
    const Score& b = best->st.best.score;
    // Strictly-better wins, so ties go to the lowest island index.
    if (candidate_better(a.violation, a.fitness, b.violation, b.fitness))
      best = island.get();
  }

  // The memetic polish refines one individual; running it on the champion
  // only matches the single-population cost model.
  Island& champion = *best;
  champion.ga.finish_loop(champion.st, control);
  SynthesisResult result = champion.ga.harvest(champion.st);

  // Cross-island aggregation: the champion's mapping with whole-run
  // counters — total work across all shards, the slowest island's
  // generation count and wall clock.
  GaCounters total;
  int generations = 0;
  double elapsed = 0.0;
  for (auto& island : islands_) {
    total += island->ga.counters();
    generations = std::max(generations, island->st.generation);
    elapsed = std::max(elapsed, island->ga.loop_elapsed(island->st));
  }
  static_cast<GaCounters&>(result) = total;
  result.generations = generations;
  result.elapsed_seconds = elapsed;
  return result;
}

}  // namespace mmsyn
