// The mapping GA's driver, with island-model sharding (DESIGN.md §14).
//
// Every synthesis runs through IslandGa; one island (the default) is the
// single-population GA. N islands evolve independent populations as
// in-process shards, each on its own counter-based RNG stream (stream id
// = rng_streams::island_stream of the island index), and exchange their
// elite on a fixed generation cadence through a deterministic ring:
// island i receives the first `migrants` ranked individuals of island
// i-1 (mod N) into its last `migrants` population slots. Migration
// happens only at synchronous generation barriers — every island first
// advances to the same target generation, then the exchange runs
// serially in island order — so the result is a pure function of (seed,
// island count, migration schedule) and never of thread timing.
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
/// island runs identical options apart from its random stream).
struct IslandOptions {
  /// Number of islands; 1 is the single-population GA on stream 0.
  int islands = 1;
  /// Generations between migration barriers (inert for one island).
  int migration_interval = 20;
  /// Elite individuals exchanged per barrier along the ring (inert for
  /// one island).
  int migrants = 2;
};

/// The GA driver. Owns one MappingGa per island and drives their stepping
/// interface: blocks of generations per island (fanned out over a thread
/// pool), then a barrier. A block ends at the next migration (multi-island
/// runs only), at the next generation `--checkpoint-every` makes due, or
/// at the cap. After a block the ring exchange runs serially, and an
/// island container checkpoint is written when a migration happened or a
/// periodic save is due; a cooperative stop writes one too. Resume
/// restores each island and the barrier position, after which the run is
/// bit-identical to one that was never interrupted.
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
  /// be invoked from a worker thread. `control` (optional) adds budget /
  /// cancellation checks at generation boundaries and the checkpoints
  /// (see core/run_control.hpp); a controlled stop returns the best
  /// individual found so far, flagged `partial`. The result is the
  /// champion island's, with evaluation/cache counters summed across
  /// islands, `generations` the maximum over islands, and
  /// `elapsed_seconds` the wall clock of the whole sharded run.
  [[nodiscard]] SynthesisResult run(
      const std::function<void(const GaProgress&)>& observer = {},
      RunControl* control = nullptr);

  /// Restores an island checkpoint so the next run() continues
  /// bit-identically. Throws CheckpointError on any mismatch (island
  /// count, migration schedule, or any per-island GA fingerprint).
  void restore(const IslandSnapshot& snapshot);

  /// Fingerprint of the whole sharded configuration: island count,
  /// migration schedule (multi-island runs only), and every per-island GA
  /// fingerprint (which embed the seed, the GA options, and the island's
  /// random stream).
  [[nodiscard]] std::uint64_t state_fingerprint() const;

private:
  struct Island;

  [[nodiscard]] IslandSnapshot make_snapshot() const;

  /// The generation the next block of steps runs up to: the cap, the next
  /// migration barrier (multi-island runs) and the next periodic
  /// checkpoint, whichever comes first.
  [[nodiscard]] int segment_end(const RunControl* control) const;

  /// One serial ring exchange at a barrier: gather every island's first
  /// `migrants` ranked individuals, then install them over the last
  /// `migrants` slots of the ring successor, in island order. Islands
  /// that already finished (converged or at the cap) still emigrate but
  /// receive nothing — their loop will never run again.
  void migrate();

  IslandOptions island_options_;
  std::vector<std::unique_ptr<Island>> islands_;
  /// The migration barrier the run is advancing toward (absolute
  /// generation; 0 for one island); persisted in checkpoints to
  /// disambiguate "barrier done, migration applied" from a mid-segment
  /// stop at the same generations.
  std::int64_t next_migration_ = 0;
  bool restored_ = false;
  int max_generations_ = 0;
  /// Coordinator fan-out width: min(islands, resolved GA thread count);
  /// the per-island GAs split the remaining threads evenly.
  int outer_threads_ = 1;
};

}  // namespace mmsyn
