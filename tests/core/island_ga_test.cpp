// Island-model GA contract (DESIGN.md §14): one island is the
// single-population GA, multi-island runs are a pure function of (seed,
// island count, migration schedule) for any thread count, checkpointed
// island runs resume bit-identically, and the per-island random streams
// can never collide with each other or with the base stream.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/cosynth.hpp"
#include "core/island_ga.hpp"
#include "core/run_control.hpp"
#include "../support/audit_every_result.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

GaOptions fast_ga() {
  GaOptions options;
  options.population_size = 24;
  options.max_generations = 30;
  options.stagnation_limit = 12;
  return options;
}

SynthesisOptions island_options(int islands, int interval = 5,
                                int migrants = 2) {
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 21;
  options.islands = islands;
  options.migration_interval = interval;
  options.migrants = migrants;
  return options;
}

void expect_results_identical(const SynthesisResult& a,
                              const SynthesisResult& b) {
  EXPECT_EQ(a.fitness, b.fitness);
  EXPECT_EQ(a.generations, b.generations);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.evaluation.avg_power_true, b.evaluation.avg_power_true);
  ASSERT_EQ(a.mapping.modes.size(), b.mapping.modes.size());
  for (std::size_t m = 0; m < a.mapping.modes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    EXPECT_EQ(a.mapping.modes[m].task_to_pe, b.mapping.modes[m].task_to_pe);
  }
}

std::string scratch_path(const char* name) {
  return std::string(::testing::TempDir()) + "mmsyn_" + name + ".ckpt";
}

void remove_generations(const std::string& path) {
  for (int gen = 0; gen < 8; ++gen)
    std::remove(checkpoint_generation_path(path, gen).c_str());
}

// An explicit --islands=1 is the default single population, whatever
// the migration knobs say: without a ring they are inert (not even
// validated). The recorded golden in cosynth_test pins that trajectory
// across builds.
TEST(IslandModel, OneIslandBitIdenticalToPlainGa) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 21;
  const SynthesisResult plain = synthesize(system, options);

  options.islands = 1;
  options.migration_interval = 0;
  options.migrants = options.ga.population_size;
  const SynthesisResult routed = audited_synthesize(system, options);
  expect_results_identical(plain, routed);
}

// The tentpole determinism rule: an island run is a pure function of
// (seed, islands, migration schedule) — never thread timing — so 1, 4
// and 16 threads give bit-identical results. The audit replays the
// champion (which carries migrated individuals) through the invariant
// checker.
TEST(IslandModel, MigrationDeterministicAcrossThreadCounts) {
  const System system = make_mul(4);
  SynthesisOptions options = island_options(3);

  options.ga.num_threads = 1;
  const SynthesisResult one = audited_synthesize(system, options);
  options.ga.num_threads = 4;
  const SynthesisResult four = audited_synthesize(system, options);
  options.ga.num_threads = 16;
  const SynthesisResult sixteen = audited_synthesize(system, options);

  expect_results_identical(one, four);
  expect_results_identical(one, sixteen);
}

// Same (seed, islands, schedule) across separate processes-worth of
// state: repeat runs reproduce bit for bit.
TEST(IslandModel, RepeatRunsAreReproducible) {
  const System system = make_mul(4);
  const SynthesisResult a =
      audited_synthesize(system, island_options(3, 5, 2));
  const SynthesisResult b =
      audited_synthesize(system, island_options(3, 5, 2));
  expect_results_identical(a, b);
}

// Resuming an intermediate barrier checkpoint (the rotated .1 generation,
// not the newest) replays the remaining barriers bit-identically to the
// uninterrupted run.
TEST(IslandModel, ResumeFromRotatedBarrierCheckpointIsIdentical) {
  const System system = make_mul(4);
  SynthesisOptions options = island_options(3);
  const std::string path = scratch_path("island_resume");
  remove_generations(path);

  RunControl record;
  record.checkpoint_path = path;
  record.checkpoint_keep_generations = 3;
  const SynthesisResult full = audited_synthesize(system, options, &record);

  RunControl resume;
  resume.resume_path = checkpoint_generation_path(path, 1);
  const SynthesisResult resumed = audited_synthesize(system, options, &resume);
  expect_results_identical(full, resumed);
  remove_generations(path);
}

// A single-population resume of an island container fails with the
// actionable --islands message instead of a generic parse error.
TEST(IslandModel, SinglePopulationResumeOfIslandCheckpointIsActionable) {
  const System system = make_mul(4);
  SynthesisOptions options = island_options(2);
  const std::string path = scratch_path("island_wrong_mode");
  remove_generations(path);

  RunControl record;
  record.checkpoint_path = path;
  (void)audited_synthesize(system, options, &record);

  options.islands = 1;
  RunControl resume;
  resume.resume_path = path;
  try {
    (void)synthesize(system, options, &resume);
    FAIL() << "resume should have rejected the island container";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("--islands=2"), std::string::npos)
        << e.what();
  }
  remove_generations(path);
}

// A cooperative stop before the first generation still returns a priced,
// feasible-or-flagged result (the champion island's fallback evaluation),
// marked partial.
TEST(IslandModel, ImmediateCancelReturnsPartialResult) {
  const System system = make_mul(4);
  SynthesisOptions options = island_options(2);
  RunControl control;
  control.request_cancel();
  const SynthesisResult result = synthesize(system, options, &control);
  EXPECT_TRUE(result.partial);
  EXPECT_FALSE(result.mapping.modes.empty());
}

// Topology validation speaks in flag terms.
TEST(IslandModel, ValidationErrorsAreActionable) {
  GaOptions ga = fast_ga();
  IslandOptions topology;
  // An empty or negative population is refused for any island count,
  // with a message naming the flag.
  for (int population : {0, -3}) {
    GaOptions empty = ga;
    empty.population_size = population;
    try {
      IslandGa::validate(empty, topology);
      ADD_FAILURE() << "population " << population << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--population"), std::string::npos)
          << e.what();
    }
  }

  topology.islands = 0;
  EXPECT_THROW(IslandGa::validate(ga, topology), std::invalid_argument);

  topology.islands = 2;
  topology.migration_interval = 0;
  EXPECT_THROW(IslandGa::validate(ga, topology), std::invalid_argument);
  topology.migration_interval = 5;
  topology.migrants = ga.population_size;  // would overwrite the elite
  EXPECT_THROW(IslandGa::validate(ga, topology), std::invalid_argument);
  topology.migrants = 2;
  IslandGa::validate(ga, topology);  // consistent: no throw
}

// ---- RNG stream-collision audit (DESIGN.md §14) -------------------------

// Every reserved stream id is distinct: the base stream, the island
// domain, and the (reserved) leapfrog domain partition the id space by
// construction — (domain << 32) | index can never alias across domains.
TEST(RngStreamReservations, DomainsNeverOverlap) {
  std::set<std::uint64_t> ids;
  ids.insert(rng_streams::stream_id(rng_streams::Domain::kBase, 0));
  for (std::uint32_t i = 0; i < 64; ++i) {
    ids.insert(rng_streams::island_stream(i));
    ids.insert(rng_streams::stream_id(rng_streams::Domain::kLeapfrog, i));
  }
  EXPECT_EQ(ids.size(), 1u + 2u * 64u);
}

// Distinct stream ids of the same seed occupy disjoint counter planes:
// the Threefry input blocks differ in the second counter word, so the
// keyed permutation can never be invoked on the same (key, counter) by
// two streams. The engine state exposes exactly that plane.
TEST(RngStreamReservations, StreamsUseDisjointCounterPlanes) {
  const std::uint64_t seed = 21;
  std::set<std::uint64_t> planes;
  std::set<std::uint64_t> first_draws;
  std::vector<std::uint64_t> streams = {
      rng_streams::stream_id(rng_streams::Domain::kBase, 0)};
  for (std::uint32_t i = 0; i < 8; ++i) {
    streams.push_back(rng_streams::island_stream(i));
    streams.push_back(rng_streams::stream_id(rng_streams::Domain::kLeapfrog, i));
  }
  for (std::uint64_t stream : streams) {
    Rng rng(RngKind::kThreefry, seed, stream);
    EXPECT_EQ(rng.stream(), stream);
    planes.insert(rng.state()[3] >> 1);  // counter word 1 = the stream id
    first_draws.insert(rng());
  }
  EXPECT_EQ(planes.size(), streams.size());
  // Distinct (key, counter) inputs through a PRP: all draws distinct.
  EXPECT_EQ(first_draws.size(), streams.size());
}

// Stream 0 of the streamed constructor is the legacy engine bit for bit.
TEST(RngStreamReservations, StreamZeroIsLegacyCompatible) {
  Rng legacy(RngKind::kThreefry, 21);
  Rng streamed(RngKind::kThreefry, 21, 0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(legacy(), streamed());
}

// The stateful engine has no counter to partition: requesting a stream is
// a configuration error, not a silent fallback.
TEST(RngStreamReservations, XoshiroRejectsNonzeroStreams) {
  EXPECT_THROW(Rng(RngKind::kXoshiro, 21, 1), std::invalid_argument);
  Rng ok(RngKind::kXoshiro, 21, 0);  // stream 0 is the engine itself
  EXPECT_EQ(ok.stream(), 0u);
}

}  // namespace
}  // namespace mmsyn
