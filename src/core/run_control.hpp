// Crash-safe run control for long synthesis runs.
//
// A `RunControl` handle threaded through `synthesize()` and the island
// driver (`IslandGa::run`) adds three behaviours to an otherwise
// all-or-nothing GA run:
//
//  * a wall-clock budget — the run stops at the next generation boundary
//    once the budget is exhausted;
//  * a cooperative cancellation token — `request_cancel()` (or a SIGINT
//    when `listen_for_interrupt()` is on) stops the run at the next
//    generation boundary;
//  * checkpoints — the complete state of every island (generation,
//    population, RNG state, best-so-far, memo caches, counters, the
//    migration barrier) is serialized to a versioned, CRC-protected file
//    whenever `checkpoint_every_generations` makes a save due, after every
//    migration, and on every cooperative stop, so `resume_path` can
//    continue the run later **bit-identically** to an uninterrupted run
//    with the same seed.
//
// A budget/cancel stop is graceful: the GA still returns the best
// individual found so far and the result is flagged `partial = true`.
// See DESIGN.md §9 for the full robustness contract.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/ga.hpp"
#include "energy/evaluator.hpp"

namespace mmsyn {

/// Raised when a checkpoint file cannot be read, fails its CRC, carries an
/// unknown version, or does not match the run it is resumed into.
class CheckpointError : public std::runtime_error {
public:
  explicit CheckpointError(const std::string& message)
      : std::runtime_error("checkpoint: " + message) {}
};

/// Complete resumable state of one island's GA, captured at a generation
/// boundary (the state *entering* `next_generation`). Restoring it and
/// running on is bit-identical to never having stopped: the RNG stream,
/// the memo cache (in insertion order, so FIFO eviction replays), and
/// every counter (the GaCounters base) continue exactly where they left
/// off.
struct GaSnapshot : GaCounters {
  /// Configuration fingerprint (seed, GA options, genome structure,
  /// evaluator weights); resume refuses a mismatch.
  std::uint64_t fingerprint = 0;
  int next_generation = 0;
  int stagnation = 0;
  /// The convergence criterion has fired (v4): the island coordinator
  /// treats a converged island as finished (no further steps, no incoming
  /// migrants), and a resumed island must know that before its first step.
  /// Single-population checkpoints always carry false — a lone island
  /// stops at its first converged generation and never snapshots it.
  bool converged = false;
  int area_infeasible_streak = 0;
  int timing_infeasible_streak = 0;
  int transition_infeasible_streak = 0;
  /// Wall-clock seconds already spent before the checkpoint; resumed runs
  /// accumulate on top so time budgets span interruptions.
  double elapsed_seconds = 0.0;
  std::array<std::uint64_t, 4> rng_state{};
  bool has_best = false;
  Individual best;
  std::vector<Individual> population;
  /// Fitness-memo entries in insertion (FIFO) order.
  std::vector<Individual> cache;
  /// Per-mode inner-loop memo entries, also in insertion order (see
  /// ModeEvalCache). Cached entries never carry schedules; serialization
  /// rejects one that does.
  std::vector<std::pair<ModeEvalKey, ModeEvaluation>> mode_cache;
};

/// Resumable state of one synthesis run (see DESIGN.md §9 and §14). Every
/// checkpoint file is an island container — a single-population save is
/// the island_count == 1 special case — so one saver, one loader and one
/// fallback loader cover every island count.
struct IslandSnapshot {
  /// Island-config fingerprint: hashes island_count, migration_interval,
  /// migrants and every per-island GA fingerprint (which differ only in
  /// their random stream), so a checkpoint cannot be resumed under a
  /// different island topology or migration schedule.
  std::uint64_t fingerprint = 0;
  std::int32_t island_count = 1;
  /// The ring's schedule; both 0 for a single island (no ring).
  std::int32_t migration_interval = 0;
  std::int32_t migrants = 0;
  /// The migration barrier the run is advancing toward. Disambiguates a
  /// barrier checkpoint (migration applied, next barrier recorded) from a
  /// mid-segment stop at the same generation numbers — the generations
  /// alone cannot tell whether the exchange already happened.
  std::int64_t next_migration_generation = 0;
  /// One complete GA snapshot per island, in island order.
  std::vector<GaSnapshot> islands;
};

/// The on-disk name of checkpoint generation `generation` (0 = newest):
/// `path` itself, then `path.1`, `path.2`, ...
[[nodiscard]] std::string checkpoint_generation_path(const std::string& path,
                                                     int generation);

/// Writes `snapshot` atomically and durably (temp file + fsync + rename +
/// directory fsync) in the versioned, CRC-protected binary format, after
/// shifting the existing generation files up (`path` -> `path.1` -> ...
/// -> `path.keep-1`, the oldest falling off) so the last `keep` snapshots
/// survive on disk. One torn or bit-rotted generation then costs at most
/// one checkpoint interval of replay instead of the whole run. Throws
/// CheckpointError on I/O failure; a write that throws mid-stream removes
/// its stale `.tmp` file.
void save_island_checkpoint_rotating(const std::string& path,
                                     const IslandSnapshot& snapshot, int keep);

/// Reads a checkpoint. Throws CheckpointError on I/O failure, bad
/// magic/version, CRC mismatch, or a payload whose contents do not parse
/// (including element counts larger than the bytes left could hold).
[[nodiscard]] IslandSnapshot load_island_checkpoint(const std::string& path);

/// Outcome of load_island_checkpoint_fallback: which generation was
/// loaded and what was wrong with every newer generation that had to be
/// skipped.
struct LoadedCheckpoint {
  IslandSnapshot snapshot;
  /// The generation file actually loaded.
  std::string loaded_path;
  /// Its generation index (0 = the newest file, `path` itself).
  int generation = 0;
  /// One human-readable note per skipped (missing/corrupt/mismatched)
  /// newer generation, for the recovery log.
  std::vector<std::string> notes;
};

/// Recovery-aware load: tries generations 0..keep-1 in order and returns
/// the newest one that reads cleanly (and, when `expected_fingerprint` is
/// set, matches that island-config fingerprint). Missing and corrupt
/// generations are skipped with a note instead of aborting the resume.
/// Throws CheckpointError only when no generation is usable, with every
/// skip reason in the message.
[[nodiscard]] LoadedCheckpoint load_island_checkpoint_fallback(
    const std::string& path, int keep,
    std::optional<std::uint64_t> expected_fingerprint = std::nullopt);

/// The run-control handle. Plain-struct configuration plus a thread-safe
/// cancellation token; one instance drives one `synthesize()` call.
class RunControl {
public:
  /// Wall-clock budget in seconds; <= 0 means unlimited. Measured over
  /// the *total* run including time before a resumed checkpoint.
  double time_budget_seconds = 0.0;

  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  /// Write a checkpoint every N completed generations (0 = never
  /// periodically); saves also follow every migration and every
  /// cooperative stop when checkpointing is enabled.
  int checkpoint_every_generations = 25;
  /// Checkpoint generations kept on disk (path, path.1, ...); resume
  /// falls back through them when the newest is torn or corrupt.
  int checkpoint_keep_generations = 3;

  /// Resume from this checkpoint file before the first generation; empty
  /// starts fresh.
  std::string resume_path;

  /// Recovery diagnostics sink (skipped checkpoint generations, tolerated
  /// write failures, quarantined cache entries). Unset = silent.
  std::function<void(const std::string&)> recovery_log;

  /// Emits one recovery-log line (no-op without a sink).
  void log_recovery(const std::string& message) const {
    if (recovery_log) recovery_log(message);
  }

  /// Requests a graceful stop at the next generation boundary. Safe to
  /// call from any thread (e.g. a GA progress observer or a watchdog).
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Also honour the process-wide SIGINT flag (common/interrupt.hpp).
  /// The caller installs the handler; this only opts into polling it.
  void listen_for_interrupt() { poll_interrupt_flag_ = true; }

  [[nodiscard]] bool cancel_requested() const;

  /// True when the wall-clock budget alone mandates a stop. Exposed
  /// separately from should_stop so callers can type the outcome:
  /// budget exhaustion is a recoverable per-job result (StopReason::
  /// kBudgetExhausted, still carrying the best-so-far evaluation), while
  /// cancellation comes from outside (signal, watchdog, drain).
  [[nodiscard]] bool budget_exhausted(double elapsed_seconds) const {
    return time_budget_seconds > 0.0 && elapsed_seconds >= time_budget_seconds;
  }

  /// True when the run should stop at this generation boundary, given the
  /// total elapsed wall-clock seconds so far.
  [[nodiscard]] bool should_stop(double elapsed_seconds) const {
    return cancel_requested() || budget_exhausted(elapsed_seconds);
  }

  /// True when a periodic checkpoint is due after completing `generation`.
  [[nodiscard]] bool checkpoint_due(int generation) const {
    return !checkpoint_path.empty() && checkpoint_every_generations > 0 &&
           (generation + 1) % checkpoint_every_generations == 0;
  }

  [[nodiscard]] bool checkpointing_enabled() const {
    return !checkpoint_path.empty();
  }

  /// The first generation count above `generation` at which a periodic
  /// checkpoint is due; INT_MAX when periodic checkpoints are off.
  [[nodiscard]] int next_checkpoint_due(int generation) const {
    if (checkpoint_path.empty() || checkpoint_every_generations <= 0)
      return std::numeric_limits<int>::max();
    return (generation / checkpoint_every_generations + 1) *
           checkpoint_every_generations;
  }

  /// Writes `snapshot` to checkpoint_path with generation rotation (no-op
  /// when disabled). Failure-tolerant: a checkpoint that cannot be written
  /// is logged and counted, never fatal — losing one periodic snapshot
  /// must not kill a multi-hour run (older generations still cover it).
  void write_island_checkpoint(const IslandSnapshot& snapshot) const;

  /// Checkpoint writes tolerated (logged and skipped) so far.
  [[nodiscard]] long checkpoint_write_failures() const {
    return checkpoint_write_failures_;
  }

private:
  std::atomic<bool> cancelled_{false};
  bool poll_interrupt_flag_ = false;
  mutable long checkpoint_write_failures_ = 0;
};

}  // namespace mmsyn
