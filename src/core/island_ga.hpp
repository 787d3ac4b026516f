// Island-model sharding of the mapping GA (DESIGN.md §14).
//
// N islands evolve independent populations as in-process shards, each on
// its own counter-based RNG stream (stream id = rng_streams::island_stream
// of the island index), and exchange their elite on a fixed generation
// cadence through a deterministic ring: island i receives the first
// `migrants` ranked individuals of island i-1 (mod N) into its last
// `migrants` population slots. Migration happens only at synchronous
// generation barriers — every island first advances to the same target
// generation, then the exchange runs serially in island order — so the
// result is a pure function of (seed, island count, migration schedule)
// and never of thread timing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/ga.hpp"

namespace mmsyn {

class RunControl;
struct IslandSnapshot;

/// Island-topology knobs (the GA itself is configured by GaOptions; every
/// island runs identical options apart from its rng_stream).
struct IslandOptions {
  /// Number of islands; 1 degenerates to the plain single-population GA
  /// (same stream 0, bit-identical trajectory).
  int islands = 1;
  /// Generations between migration barriers.
  int migration_interval = 20;
  /// Elite individuals exchanged per barrier along the ring.
  int migrants = 2;
};

/// The island coordinator. Owns one MappingGa per island and drives their
/// stepping interface: blocks of `migration_interval` generations per
/// island (fanned out over a thread pool), a barrier, a serial migration,
/// repeat. Checkpoints (island containers, format v4) are written at
/// every barrier and on a cooperative stop; resume restores each island
/// and the barrier position, after which the run is bit-identical to one
/// that was never interrupted.
class IslandGa {
public:
  /// Throws std::invalid_argument (with a flag-level actionable message)
  /// when the island topology is inconsistent with the GA options; see
  /// validate().
  IslandGa(const System& system, const Evaluator& evaluator,
           FitnessParams fitness_params, AllocationOptions alloc_options,
           GaOptions ga_options, IslandOptions island_options,
           std::uint64_t seed);
  ~IslandGa();

  /// Validates an island configuration against the GA options it will
  /// run with. Throws std::invalid_argument naming the offending flag and
  /// the fix; returns normally otherwise. Called by the constructor;
  /// exposed so CLI frontends can fail fast before building evaluators.
  static void validate(const GaOptions& ga_options,
                       const IslandOptions& island_options);

  /// Runs all islands to convergence (or to the generation cap, budget,
  /// or cancellation). `observer` is forwarded to island 0 only and may
  /// be invoked from a worker thread. The result is the champion
  /// island's, with evaluation/cache counters summed across islands,
  /// `generations` the maximum over islands, and `elapsed_seconds` the
  /// wall clock of the whole sharded run.
  [[nodiscard]] SynthesisResult run(
      const std::function<void(const GaProgress&)>& observer = {},
      RunControl* control = nullptr);

  /// Restores an island checkpoint so the next run() continues
  /// bit-identically. Throws CheckpointError on any mismatch (island
  /// count, migration schedule, or any per-island GA fingerprint).
  void restore(const IslandSnapshot& snapshot);

  /// Fingerprint of the whole sharded configuration: island count,
  /// migration schedule, and every per-island GA fingerprint (which embed
  /// the seed, the GA options, and the per-island rng_stream).
  [[nodiscard]] std::uint64_t state_fingerprint() const;

  [[nodiscard]] int island_count() const;

  /// Index of the champion island of the last run() (0 before any run).
  [[nodiscard]] int champion_index() const { return champion_; }

private:
  struct Island;

  [[nodiscard]] IslandSnapshot make_snapshot() const;

  /// One serial ring exchange at a barrier: gather every island's first
  /// `migrants` ranked individuals, then install them over the last
  /// `migrants` slots of the ring successor, in island order. Islands
  /// that already finished (converged or at the cap) still emigrate but
  /// receive nothing — their loop will never run again.
  void migrate();

  IslandOptions island_options_;
  std::vector<std::unique_ptr<Island>> islands_;
  /// The migration barrier the run is advancing toward (absolute
  /// generation); persisted in checkpoints to disambiguate "barrier done,
  /// migration applied" from a mid-segment stop at the same generations.
  std::int64_t next_migration_ = 0;
  bool restored_ = false;
  int champion_ = 0;
  int max_generations_ = 0;
  /// Coordinator fan-out width: min(islands, resolved GA thread count);
  /// the per-island GAs split the remaining threads evenly.
  int outer_threads_ = 1;
};

}  // namespace mmsyn
