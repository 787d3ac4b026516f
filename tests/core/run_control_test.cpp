// Crash-safety tests: checkpoint serialization, corruption rejection, and
// the bit-identical cancel → checkpoint → resume contract.
#include "core/run_control.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/checksum.hpp"
#include "core/cosynth.hpp"
#include "core/island_ga.hpp"
#include "core/report.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Unique-ish scratch path under the build tree's cwd.
std::string scratch_path(const char* name) {
  return std::string(::testing::TempDir()) + "mmsyn_" + name + ".ckpt";
}

/// The little-endian `width`-byte integer at `at` (checkpoint encoding).
std::uint64_t get_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= std::uint64_t{static_cast<unsigned char>(bytes[at + i])} << (8 * i);
  return v;
}

void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i)
    bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

GaSnapshot sample_snapshot() {
  GaSnapshot snap;
  snap.fingerprint = 0x1122334455667788ull;
  snap.next_generation = 17;
  snap.stagnation = 3;
  snap.area_infeasible_streak = 1;
  snap.timing_infeasible_streak = 2;
  snap.transition_infeasible_streak = 0;
  snap.evaluations = 1234;
  snap.cache_hits = 56;
  snap.cache_lookups = 78;
  snap.elapsed_seconds = 9.25;
  snap.rng_state = {1, 2, 3, 0xffffffffffffffffull};
  snap.has_best = true;
  snap.best = SnapshotIndividual{{0, 1, 2}, -1.5, 0.0, 0.004,
                                 true, false, false, false};
  snap.population = {
      SnapshotIndividual{{0, 1, 2}, -1.5, 0.0, 0.004, true, false, false,
                         false},
      SnapshotIndividual{{2, 1, 0}, 3.0, 0.5, 0.009, true, true, false,
                         true},
      SnapshotIndividual{{1, 1, 1}, 0.0, 0.0, 0.0, false, false, false,
                         false},
  };
  snap.cache = {snap.population[0], snap.population[1]};

  // Two per-mode memo entries of different shapes (v2 format section).
  ModeEvalKey key0;
  key0.mode = 0;
  key0.options_fingerprint = 0xfeedfacecafebeefull;
  key0.task_to_pe = {PeId{0}, PeId{2}, PeId{1}};
  key0.cores.resize(2);
  key0.cores[1].set_count(TaskTypeId{4}, 2);
  ModeEvaluation val0;
  val0.dyn_energy = 1.5e-3;
  val0.dyn_power = 0.3;
  val0.static_power = 0.01;
  val0.timing_violation = 0.0;
  val0.makespan = 4.5e-3;
  val0.pe_active = {true, false, true};
  val0.cl_active = {true};
  val0.routable = true;
  ModeEvalKey key1;
  key1.mode = 1;
  key1.options_fingerprint = 0xfeedfacecafebeefull;
  key1.task_to_pe = {PeId{1}};
  key1.cores.resize(2);
  ModeEvaluation val1;
  val1.dyn_power = 0.125;
  val1.makespan = 2.0e-3;
  val1.pe_active = {false, true, false};
  val1.cl_active = {false};
  val1.routable = false;
  snap.mode_cache = {{key0, val0}, {key1, val1}};
  snap.mode_cache_hits = 21;
  snap.mode_cache_lookups = 34;
  return snap;
}

/// `snapshot` as the one-island container every checkpoint file holds.
IslandSnapshot one_island(const GaSnapshot& snapshot) {
  IslandSnapshot container;
  container.fingerprint = snapshot.fingerprint;
  container.islands.push_back(snapshot);
  return container;
}

void save_one_island(const std::string& path, const GaSnapshot& snapshot,
                     int keep = 1) {
  save_island_checkpoint_rotating(path, one_island(snapshot), keep);
}

/// Loads a one-island checkpoint file and unwraps its GA snapshot.
GaSnapshot load_one_island(const std::string& path) {
  IslandSnapshot container = load_island_checkpoint(path);
  if (container.islands.size() != 1)
    throw CheckpointError("expected a one-island container: " + path);
  return std::move(container.islands.front());
}

void expect_mode_entries_equal(
    const std::vector<std::pair<ModeEvalKey, ModeEvaluation>>& a,
    const std::vector<std::pair<ModeEvalKey, ModeEvaluation>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);  // ModeEvalKey has operator==
    const ModeEvaluation& x = a[i].second;
    const ModeEvaluation& y = b[i].second;
    EXPECT_EQ(x.dyn_energy, y.dyn_energy);
    EXPECT_EQ(x.dyn_power, y.dyn_power);
    EXPECT_EQ(x.static_power, y.static_power);
    EXPECT_EQ(x.timing_violation, y.timing_violation);
    EXPECT_EQ(x.makespan, y.makespan);
    EXPECT_EQ(x.pe_active, y.pe_active);
    EXPECT_EQ(x.cl_active, y.cl_active);
    EXPECT_EQ(x.routable, y.routable);
    EXPECT_FALSE(y.schedule.has_value());
  }
}

void expect_snapshots_equal(const GaSnapshot& a, const GaSnapshot& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.next_generation, b.next_generation);
  EXPECT_EQ(a.stagnation, b.stagnation);
  EXPECT_EQ(a.area_infeasible_streak, b.area_infeasible_streak);
  EXPECT_EQ(a.timing_infeasible_streak, b.timing_infeasible_streak);
  EXPECT_EQ(a.transition_infeasible_streak, b.transition_infeasible_streak);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_lookups, b.cache_lookups);
  EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.has_best, b.has_best);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.population, b.population);
  EXPECT_EQ(a.cache, b.cache);
  EXPECT_EQ(a.mode_cache_hits, b.mode_cache_hits);
  EXPECT_EQ(a.mode_cache_lookups, b.mode_cache_lookups);
  expect_mode_entries_equal(a.mode_cache, b.mode_cache);
}

TEST(Checkpoint, RejectsModeCacheEntryWithSchedule) {
  // The per-mode memo never holds schedules; a snapshot carrying one was
  // built from the wrong evaluator configuration and must not be written.
  GaSnapshot snap = sample_snapshot();
  snap.mode_cache[0].second.schedule.emplace();
  EXPECT_THROW(save_one_island(scratch_path("sched_entry"), snap),
               CheckpointError);
}

TEST(Checkpoint, RoundTripsExactly) {
  const std::string path = scratch_path("roundtrip");
  const GaSnapshot original = sample_snapshot();
  save_one_island(path, original);
  expect_snapshots_equal(load_one_island(path), original);
  std::remove(path.c_str());
}

TEST(Checkpoint, RoundTripsSnapshotWithoutBest) {
  // A run stopped before its first evaluation (e.g. a job drained at
  // generation 0) checkpoints no best individual and an empty best genome
  // next to a full population; loading it must restore the same state.
  const std::string path = scratch_path("no_best");
  GaSnapshot original = sample_snapshot();
  original.has_best = false;
  original.best = SnapshotIndividual{};
  save_one_island(path, original);
  expect_snapshots_equal(load_one_island(path), original);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileIsTypedError) {
  EXPECT_THROW(load_island_checkpoint("/nonexistent/dir/nope.ckpt"),
               CheckpointError);
}

TEST(Checkpoint, RejectsBadMagic) {
  const std::string path = scratch_path("magic");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTMMSYNgarbage that is long enough to read a header from....";
  }
  EXPECT_THROW(load_island_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsTruncation) {
  const std::string path = scratch_path("trunc");
  save_one_island(path, sample_snapshot());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 30u);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 13));
  }
  EXPECT_THROW(load_island_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsBitFlip) {
  const std::string path = scratch_path("flip");
  save_one_island(path, sample_snapshot());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  bytes[bytes.size() / 2] ^= 0x01;  // flip one payload bit
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load_island_checkpoint(path), CheckpointError);
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsOtherFormatVersions) {
  // The u32 version follows the 8-byte magic. A v6 file's fingerprints
  // still hash the GA's random-engine choice, and a newer one is unknown:
  // both must be refused with the version named.
  const std::string path = scratch_path("version");
  save_one_island(path, sample_snapshot());
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_GT(bytes.size(), 12u);
  const std::uint64_t current = get_le(bytes, 8, 4);
  EXPECT_EQ(current, 7u);
  for (const std::uint64_t version : {std::uint64_t{6}, current + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    put_le(bytes, 8, version, 4);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      (void)load_island_checkpoint(path);
      FAIL() << "expected CheckpointError";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version " +
                                           std::to_string(version)),
                std::string::npos)
          << e.what();
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Generation rotation and recovery-aware fallback loading.

/// Removes every generation file (and stray .tmp) of `path`.
void remove_generations(const std::string& path, int keep = 8) {
  std::remove((path + ".tmp").c_str());
  for (int gen = 0; gen < keep; ++gen)
    std::remove(checkpoint_generation_path(path, gen).c_str());
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::string bytes;
  bytes.assign(std::istreambuf_iterator<char>(is), {});
  return bytes;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, GenerationPathNaming) {
  EXPECT_EQ(checkpoint_generation_path("run.ckpt", 0), "run.ckpt");
  EXPECT_EQ(checkpoint_generation_path("run.ckpt", 1), "run.ckpt.1");
  EXPECT_EQ(checkpoint_generation_path("run.ckpt", 2), "run.ckpt.2");
}

TEST(Checkpoint, RotationKeepsLastKGenerations) {
  const std::string path = scratch_path("rotate");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  for (int i = 0; i < 4; ++i) {
    snap.next_generation = i;
    save_one_island(path, snap, /*keep=*/3);
  }
  // Newest first: generations 3, 2, 1; generation 0 fell off the end.
  EXPECT_EQ(load_one_island(path).next_generation, 3);
  EXPECT_EQ(load_one_island(path + ".1").next_generation, 2);
  EXPECT_EQ(load_one_island(path + ".2").next_generation, 1);
  EXPECT_FALSE(file_exists(path + ".3"));
  remove_generations(path);
}

TEST(Checkpoint, FallbackPrefersNewestGoodGeneration) {
  const std::string path = scratch_path("fallback_newest");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_one_island(path, snap, 3);
  snap.next_generation = 10;
  save_one_island(path, snap, 3);
  const LoadedCheckpoint loaded = load_island_checkpoint_fallback(path, 3);
  EXPECT_EQ(loaded.generation, 0);
  EXPECT_EQ(loaded.loaded_path, path);
  EXPECT_EQ(loaded.snapshot.islands.front().next_generation, 10);
  EXPECT_TRUE(loaded.notes.empty());
  remove_generations(path);
}

// The corruption taxonomy: each way a newest generation can be damaged
// must fall back to the previous good generation instead of failing the
// resume with a CheckpointError.
struct CorruptionCase {
  const char* name;
  void (*damage)(const std::string& path);
};

void damage_truncate(const std::string& path) {
  const std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 13));
}

void damage_flip_crc_byte(const std::string& path) {
  std::string bytes = read_file(path);
  bytes[bytes.size() - 2] ^= 0x40;  // inside the CRC-32 trailer
  write_file(path, bytes);
}

void damage_wrong_version(const std::string& path) {
  std::string bytes = read_file(path);
  bytes[8] ^= 0x7f;  // u32 version lives right after the 8-byte magic
  write_file(path, bytes);
}

void damage_wrong_fingerprint(const std::string& path) {
  // Rewrite the generation as a valid checkpoint of a *different* run:
  // structurally sound, rejected only by the fingerprint check.
  GaSnapshot other = sample_snapshot();
  other.fingerprint ^= 0xdeadbeefull;
  other.next_generation = 99;
  save_one_island(path, other);
}

void damage_empty_file(const std::string& path) { write_file(path, ""); }

// Forged element counts in a checkpoint of sample_snapshot(), with the
// CRC trailer recomputed so only the count bound can reject the file.
// The payload follows the magic, the u32 version and the u64 size; it
// opens with the container's u64 fingerprint and i32 island count. The
// first island's population count follows the rest of the container
// header (16 bytes), the island's u64 length prefix, the GaSnapshot's
// fixed fields (102 bytes) and its best individual (34 bytes).
constexpr std::size_t kPayloadOffset = 8 + 4 + 8;
constexpr std::size_t kIslandCountOffset = kPayloadOffset + 8;
constexpr std::size_t kPopulationCountOffset =
    kIslandCountOffset + 4 + 16 + 8 + 102 + 34;

/// Overwrites the `width`-byte count at `at` (which must currently hold
/// `expected`) with `forged` and recomputes the CRC trailer.
void forge_count(const std::string& path, std::size_t at, int width,
                 std::uint64_t expected, std::uint64_t forged) {
  std::string bytes = read_file(path);
  ASSERT_EQ(get_le(bytes, at, width), expected) << "layout offset drifted";
  put_le(bytes, at, forged, width);
  const std::string_view payload = std::string_view(bytes).substr(
      kPayloadOffset, bytes.size() - kPayloadOffset - 4);
  put_le(bytes, bytes.size() - 4, crc32(payload), 4);
  write_file(path, bytes);
}

void damage_forged_island_count(const std::string& path) {
  forge_count(path, kIslandCountOffset, 4, 1, 0x7fffffff);
}

void damage_forged_population_count(const std::string& path) {
  forge_count(path, kPopulationCountOffset, 8,
              sample_snapshot().population.size(), std::uint64_t{1} << 61);
}

class CheckpointCorruptionTest
    : public ::testing::TestWithParam<CorruptionCase> {};

TEST_P(CheckpointCorruptionTest, FallsBackToPreviousGeneration) {
  // Per-case scratch file: ctest runs each parameterized case as its own
  // test process, so a shared path races under `ctest -j`.
  const std::string path = scratch_path(
      (std::string("fallback_taxonomy_") + GetParam().name).c_str());
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_one_island(path, snap, 3);  // becomes .1 after next save
  snap.next_generation = 10;
  save_one_island(path, snap, 3);
  GetParam().damage(path);

  const LoadedCheckpoint loaded = load_island_checkpoint_fallback(
      path, 3, sample_snapshot().fingerprint);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.loaded_path, path + ".1");
  EXPECT_EQ(loaded.snapshot.islands.front().next_generation, 5);
  ASSERT_EQ(loaded.notes.size(), 1u);  // one note for the damaged newest

  // Without an older good generation the same damage is a typed error.
  std::remove((path + ".1").c_str());
  EXPECT_THROW((void)load_island_checkpoint_fallback(
                   path, 3, sample_snapshot().fingerprint),
               CheckpointError);
  remove_generations(path);
}

INSTANTIATE_TEST_SUITE_P(
    Taxonomy, CheckpointCorruptionTest,
    ::testing::Values(CorruptionCase{"TruncatedFile", damage_truncate},
                      CorruptionCase{"FlippedCrcByte", damage_flip_crc_byte},
                      CorruptionCase{"WrongVersion", damage_wrong_version},
                      CorruptionCase{"WrongFingerprint",
                                     damage_wrong_fingerprint},
                      CorruptionCase{"EmptyFile", damage_empty_file},
                      CorruptionCase{"ForgedIslandCount",
                                     damage_forged_island_count},
                      CorruptionCase{"ForgedPopulationCount",
                                     damage_forged_population_count}),
    [](const ::testing::TestParamInfo<CorruptionCase>& info) {
      return info.param.name;
    });

TEST(Checkpoint, FallbackSkipsMissingNewestGeneration) {
  // A crash between rotation and the final rename leaves `path` absent
  // with the previous checkpoint shifted to `path.1` — resume must treat
  // the hole as skippable, not fatal.
  const std::string path = scratch_path("fallback_missing");
  remove_generations(path);
  GaSnapshot snap = sample_snapshot();
  snap.next_generation = 5;
  save_one_island(path + ".1", snap);
  const LoadedCheckpoint loaded = load_island_checkpoint_fallback(path, 3);
  EXPECT_EQ(loaded.generation, 1);
  EXPECT_EQ(loaded.snapshot.islands.front().next_generation, 5);
  remove_generations(path);
}

TEST(Checkpoint, SaveLeavesNoStaleTmpFile) {
  const std::string path = scratch_path("no_tmp");
  remove_generations(path);
  save_one_island(path, sample_snapshot());
  EXPECT_FALSE(file_exists(path + ".tmp"));
  remove_generations(path);
}

TEST(RunControl, WriteCheckpointToleratesFailure) {
  RunControl control;
  control.checkpoint_path = "/nonexistent/dir/run.ckpt";
  std::vector<std::string> log;
  control.recovery_log = [&](const std::string& m) { log.push_back(m); };
  control.write_island_checkpoint(one_island(sample_snapshot()));  // no throw
  EXPECT_EQ(control.checkpoint_write_failures(), 1);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].find("checkpoint write failure"), std::string::npos);
}

TEST(RunControl, StopConditions) {
  RunControl control;
  EXPECT_FALSE(control.should_stop(1e9));  // no budget, no cancel
  control.time_budget_seconds = 5.0;
  EXPECT_FALSE(control.should_stop(4.9));
  EXPECT_TRUE(control.should_stop(5.0));
  control.time_budget_seconds = 0.0;
  control.request_cancel();
  EXPECT_TRUE(control.should_stop(0.0));
}

TEST(RunControl, CheckpointCadence) {
  RunControl control;
  control.checkpoint_path = "x.ckpt";
  control.checkpoint_every_generations = 10;
  EXPECT_FALSE(control.checkpoint_due(0));
  EXPECT_TRUE(control.checkpoint_due(9));    // after completing gen 9
  EXPECT_FALSE(control.checkpoint_due(10));
  EXPECT_TRUE(control.checkpoint_due(19));
  control.checkpoint_path.clear();
  EXPECT_FALSE(control.checkpoint_due(9));
}

// ---------------------------------------------------------------------
// The acceptance criterion: run → checkpoint → stop → resume must be
// bit-identical to an uninterrupted run with the same seed.

SynthesisOptions small_options(std::uint64_t seed) {
  SynthesisOptions options;
  options.seed = seed;
  options.ga.population_size = 16;
  options.ga.max_generations = 30;
  options.ga.stagnation_limit = 30;
  return options;
}

TEST(Resume, CancelledRunResumesBitIdentically) {
  const System system = make_mul(5);
  const std::string path = scratch_path("resume_cancel");
  const SynthesisOptions options = small_options(7);

  const SynthesisResult full = synthesize(system, options);

  // Cancel after generation 4 via the progress observer; the cooperative
  // stop writes a final checkpoint.
  RunControl stopper;
  stopper.checkpoint_path = path;
  stopper.checkpoint_every_generations = 0;  // only the stop checkpoint
  {
    const Evaluator evaluator(system, [&] {
      EvaluationOptions eval;
      eval.scheduling_policy = options.scheduling_policy;
      eval.dvs = options.dvs_in_loop;
      return eval;
    }());
    IslandGa ga(system, evaluator, options.fitness, options.allocation,
                options.ga, IslandOptions{}, options.seed);
    const SynthesisResult partial = ga.run(
        [&](const GaProgress& progress) {
          if (progress.generation >= 4) stopper.request_cancel();
        },
        &stopper);
    EXPECT_TRUE(partial.partial);
    EXPECT_LT(partial.generations, full.generations);
  }

  RunControl resumer;
  resumer.resume_path = path;
  const SynthesisResult resumed = synthesize(system, options, &resumer);

  EXPECT_FALSE(resumed.partial);
  EXPECT_EQ(resumed.generations, full.generations);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.cache_hits, full.cache_hits);
  EXPECT_EQ(resumed.cache_lookups, full.cache_lookups);
  EXPECT_EQ(resumed.mode_cache_hits, full.mode_cache_hits);
  EXPECT_EQ(resumed.mode_cache_lookups, full.mode_cache_lookups);
  EXPECT_EQ(resumed.fitness, full.fitness);  // exact, not approximate
  EXPECT_EQ(resumed.mapping.modes.size(), full.mapping.modes.size());
  for (std::size_t m = 0; m < full.mapping.modes.size(); ++m)
    EXPECT_EQ(resumed.mapping.modes[m].task_to_pe,
              full.mapping.modes[m].task_to_pe);

  // The rendered reports (minus wall-clock timing) are byte-identical.
  ReportOptions report;
  report.include_timing = false;
  EXPECT_EQ(implementation_report(system, resumed, report),
            implementation_report(system, full, report));
  std::remove(path.c_str());
}

TEST(Resume, PeriodicCheckpointResumesBitIdentically) {
  const System system = make_mul(2);
  const std::string path = scratch_path("resume_periodic");
  const SynthesisOptions options = small_options(11);

  const SynthesisResult full = synthesize(system, options);

  // Run to completion while checkpointing every 5 generations, then throw
  // the finished result away and resume from the *last periodic*
  // checkpoint — simulating a crash after it was written.
  RunControl writer;
  writer.checkpoint_path = path;
  writer.checkpoint_every_generations = 5;
  (void)synthesize(system, options, &writer);
  const GaSnapshot snap = load_one_island(path);
  EXPECT_GT(snap.next_generation, 0);

  RunControl resumer;
  resumer.resume_path = path;
  const SynthesisResult resumed = synthesize(system, options, &resumer);

  EXPECT_EQ(resumed.generations, full.generations);
  EXPECT_EQ(resumed.evaluations, full.evaluations);
  EXPECT_EQ(resumed.fitness, full.fitness);
  for (std::size_t m = 0; m < full.mapping.modes.size(); ++m)
    EXPECT_EQ(resumed.mapping.modes[m].task_to_pe,
              full.mapping.modes[m].task_to_pe);
  std::remove(path.c_str());
}

TEST(Resume, FingerprintMismatchRefused) {
  const System system = make_mul(5);
  const std::string path = scratch_path("resume_mismatch");
  const SynthesisOptions options = small_options(7);

  RunControl writer;
  writer.checkpoint_path = path;
  writer.checkpoint_every_generations = 2;
  (void)synthesize(system, options, &writer);

  RunControl resumer;
  resumer.resume_path = path;
  SynthesisOptions other = small_options(8);  // different seed
  EXPECT_THROW((void)synthesize(system, other, &resumer), CheckpointError);

  other = small_options(7);
  other.ga.gene_mutation_rate *= 2;  // different GA options
  EXPECT_THROW((void)synthesize(system, other, &resumer), CheckpointError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint cadence: which generations a run saves, pinned through the
// files it leaves.

/// Runs mul4 for all 30 generations (no convergence; migration interval
/// 5; keep 8, so every save survives) and returns each island's
/// next_generation in every checkpoint file, newest file first.
std::vector<std::vector<int>> saved_generations(const char* name, int islands,
                                                int checkpoint_every) {
  const std::string path = scratch_path(name);
  remove_generations(path);
  SynthesisOptions options = small_options(7);
  options.ga.stagnation_limit = 1000;
  options.islands = islands;
  options.migration_interval = 5;
  RunControl control;
  control.checkpoint_path = path;
  control.checkpoint_every_generations = checkpoint_every;
  control.checkpoint_keep_generations = 8;
  (void)synthesize(make_mul(4), options, &control);
  std::vector<std::vector<int>> saved;
  for (int gen = 0; file_exists(checkpoint_generation_path(path, gen));
       ++gen) {
    saved.emplace_back();
    for (const GaSnapshot& island :
         load_island_checkpoint(checkpoint_generation_path(path, gen)).islands)
      saved.back().push_back(island.next_generation);
  }
  remove_generations(path);
  return saved;
}

TEST(CheckpointCadence, OneIslandSavesOnlyWhereCheckpointEverySays) {
  // A single population has no ring: the migration interval adds no saves.
  EXPECT_EQ(saved_generations("cadence_one_island", 1, 7),
            (std::vector<std::vector<int>>{{28}, {21}, {14}, {7}}));
}

TEST(CheckpointCadence, IslandRunSavesAtEveryMigration) {
  // The default checkpoint_every_generations (25) coincides with the
  // barrier at 25, which saves once; the cap (30) is no barrier.
  EXPECT_EQ(saved_generations("cadence_three_islands", 3,
                              RunControl().checkpoint_every_generations),
            (std::vector<std::vector<int>>{{25, 25, 25},
                                           {20, 20, 20},
                                           {15, 15, 15},
                                           {10, 10, 10},
                                           {5, 5, 5}}));
}

TEST(Budget, ZeroBudgetStillReturnsEvaluatedResult) {
  const System system = make_mul(5);
  RunControl control;
  control.time_budget_seconds = 1e-9;  // expires before generation 0
  const SynthesisResult result =
      synthesize(system, small_options(3), &control);
  EXPECT_TRUE(result.partial);
  // Graceful degradation: a final fine evaluation of *some* individual.
  EXPECT_EQ(result.evaluation.modes.size(), system.omsm.mode_count());
  EXPECT_GT(result.evaluation.avg_power_true, 0.0);
}

TEST(RunControl, BudgetExhaustedPredicate) {
  RunControl control;
  EXPECT_FALSE(control.budget_exhausted(1e9));  // no budget set
  control.time_budget_seconds = 5.0;
  EXPECT_FALSE(control.budget_exhausted(4.999));
  EXPECT_TRUE(control.budget_exhausted(5.0));
  EXPECT_TRUE(control.budget_exhausted(6.0));
}

TEST(RunControl, ShouldStopCombinesBudgetAndCancel) {
  RunControl control;
  control.time_budget_seconds = 5.0;
  EXPECT_FALSE(control.should_stop(1.0));
  EXPECT_TRUE(control.should_stop(5.0));
  control.request_cancel();
  EXPECT_TRUE(control.should_stop(1.0));
  // The two conditions stay separately observable so callers can type
  // the stop: budget_exhausted is unaffected by the cancel flag.
  EXPECT_FALSE(control.budget_exhausted(1.0));
}

}  // namespace
}  // namespace mmsyn
