// Per-mode incremental-evaluation cache: the bitwise cached-vs-cold
// contract (property-tested over random mutation chains), the GA-level
// on/off result identity, hit-rate accounting, and FIFO bounding.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "core/allocation_builder.hpp"
#include "core/cosynth.hpp"
#include "core/genome.hpp"
#include "core/report.hpp"
#include "energy/evaluator.hpp"
#include "tgff/generator.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Exact (bitwise) equality of two evaluations, schedules excluded.
void expect_evaluations_identical(const Evaluation& a, const Evaluation& b) {
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t m = 0; m < a.modes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    EXPECT_EQ(a.modes[m].dyn_energy, b.modes[m].dyn_energy);
    EXPECT_EQ(a.modes[m].dyn_power, b.modes[m].dyn_power);
    EXPECT_EQ(a.modes[m].static_power, b.modes[m].static_power);
    EXPECT_EQ(a.modes[m].timing_violation, b.modes[m].timing_violation);
    EXPECT_EQ(a.modes[m].makespan, b.modes[m].makespan);
    EXPECT_EQ(a.modes[m].pe_active, b.modes[m].pe_active);
    EXPECT_EQ(a.modes[m].cl_active, b.modes[m].cl_active);
    EXPECT_EQ(a.modes[m].routable, b.modes[m].routable);
  }
  EXPECT_EQ(a.avg_power_true, b.avg_power_true);
  EXPECT_EQ(a.avg_power_weighted, b.avg_power_weighted);
  EXPECT_EQ(a.pe_used_area, b.pe_used_area);
  EXPECT_EQ(a.pe_area_violation, b.pe_area_violation);
  EXPECT_EQ(a.total_area_violation, b.total_area_violation);
  EXPECT_EQ(a.transition_times, b.transition_times);
  EXPECT_EQ(a.transition_violations, b.transition_violations);
  EXPECT_EQ(a.weighted_timing_violation, b.weighted_timing_violation);
}

/// Property: along a chain of random point mutations, every evaluation
/// through a (warm, shared) cache equals the cache-disabled evaluation
/// bitwise. Mutation chains are the GA's actual workload — consecutive
/// genomes share most mode slices, so the cache serves real hits.
/// Returns the hits served to a candidate whose full allocation row for
/// that mode differs from the row of the candidate that inserted the
/// entry: the hits only the narrowed key (Evaluator::mode_cores) finds.
long run_mutation_chain(const System& system, EvaluationOptions options,
                        std::uint64_t seed, int steps) {
  const Evaluator evaluator(system, std::move(options));
  const GenomeCodec codec(system);
  Rng rng(seed);
  ModeEvalCache cache;
  // Full row of each key's inserter; the chains never fill the cache, so
  // a key seen before is exactly a hit.
  std::unordered_map<ModeEvalKey, std::vector<CoreSet>, ModeEvalKeyHash>
      inserter_row;
  long seen = 0;
  long narrowed_hits = 0;
  Genome genome = codec.random_genome(rng);
  for (int step = 0; step < steps; ++step) {
    const std::size_t g = rng.pick_index(codec.genome_length());
    genome[g] = static_cast<std::uint16_t>(
        rng.pick_index(codec.candidates(g).size()));
    const MultiModeMapping mapping = codec.decode(genome);
    const CoreAllocation cores = build_core_allocation(system, mapping, {});
    SCOPED_TRACE("step " + std::to_string(step));
    for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
      const auto [it, inserted] = inserter_row.try_emplace(
          evaluator.mode_key(m, mapping, cores), cores.per_mode[m]);
      if (inserted) continue;
      ++seen;
      if (it->second != cores.per_mode[m]) ++narrowed_hits;
    }
    expect_evaluations_identical(evaluator.evaluate(mapping, cores),
                                 evaluator.evaluate(mapping, cores, &cache));
  }
  EXPECT_GT(cache.hits(), 0);
  EXPECT_EQ(cache.hits(), seen);
  EXPECT_EQ(cache.lookups(),
            static_cast<long>(system.omsm.mode_count()) * steps);
  return narrowed_hits;
}

/// A generated system with an ASIC and an FPGA: ASIC rows couple the
/// modes, FPGA rows differ per mode.
System asic_fpga_system() {
  GeneratorConfig cfg;
  cfg.pe_count_min = cfg.pe_count_max = 4;
  cfg.tasks_per_mode_min = 8;
  cfg.tasks_per_mode_max = 16;
  for (cfg.seed = 1; cfg.seed <= 64; ++cfg.seed) {
    System system = generate_system(cfg, "asic_fpga");
    bool asic = false;
    bool fpga = false;
    for (PeId p : system.arch.pe_ids()) {
      asic = asic || system.arch.pe(p).kind == PeKind::kAsic;
      fpga = fpga || system.arch.pe(p).kind == PeKind::kFpga;
    }
    if (asic && fpga) return system;
  }
  ADD_FAILURE() << "no generator seed in 1..64 gives an ASIC and an FPGA";
  return generate_system(cfg, "asic_fpga");
}

TEST(ModeCacheProperty, CachedEqualsColdOnMutationChains) {
  for (const int mul : {2, 4, 7}) {
    SCOPED_TRACE("mul" + std::to_string(mul));
    run_mutation_chain(make_mul(mul), EvaluationOptions{}, 101 + mul, 30);
  }
}

TEST(ModeCacheProperty, CachedEqualsColdWithDvs) {
  EvaluationOptions options;
  options.use_dvs = true;
  run_mutation_chain(make_mul(3), options, 17, 20);
}

TEST(ModeCacheProperty, NarrowedKeyHitsAcrossAllocationRows) {
  const System system = asic_fpga_system();
  EXPECT_GT(run_mutation_chain(system, EvaluationOptions{}, 43, 60), 0);
}

TEST(ModeCacheProperty, NarrowedKeyHitsAcrossAllocationRowsWithDvs) {
  const System system = asic_fpga_system();
  EvaluationOptions options;
  options.use_dvs = true;
  EXPECT_GT(run_mutation_chain(system, options, 47, 40), 0);
}

TEST(ModeCacheProperty, CachedEqualsColdWithWeightOverride) {
  const System system = make_mul(2);
  EvaluationOptions options;
  options.weight_override =
      std::vector<double>(system.omsm.mode_count(), 1.0);
  run_mutation_chain(system, options, 29, 20);
}

TEST(ModeCache, ChangedModesNamesExactlyTheDifferingSlices) {
  const System system = make_mul(4);
  const GenomeCodec codec(system);
  Rng rng(5);
  const Genome a = codec.random_genome(rng);
  EXPECT_TRUE(codec.changed_modes(a, a).empty());
  Genome b = a;
  const std::size_t g = codec.genome_length() / 2;
  b[g] = static_cast<std::uint16_t>((b[g] + 1) %
                                    codec.candidates(g).size());
  const std::vector<ModeId> changed = codec.changed_modes(a, b);
  if (a[g] == b[g]) {
    EXPECT_TRUE(changed.empty());  // single-candidate gene wrapped around
  } else {
    ASSERT_EQ(changed.size(), 1u);
    EXPECT_EQ(changed[0], codec.mode_of_gene(g));
  }
}

TEST(ModeCache, FifoEvictionBoundsSize) {
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(7);
  ModeEvalCache cache(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    const Genome genome = codec.random_genome(rng);
    const MultiModeMapping mapping = codec.decode(genome);
    const CoreAllocation cores = build_core_allocation(system, mapping, {});
    (void)evaluator.evaluate(mapping, cores, &cache);
    EXPECT_LE(cache.size(), 4u);
  }
  EXPECT_EQ(cache.capacity(), 4u);
}

ModeEvalKey key_of(std::uint32_t i) {
  ModeEvalKey key;
  key.mode = i;
  return key;
}

TEST(ModeCache, DuplicateInsertAtCapacityEvictsNothing) {
  // Regression: inserting an already-present key while the cache is full
  // used to run the eviction loop first — evicting the FIFO head — and
  // then fail the emplace, losing an innocent entry and shrinking the
  // cache. A duplicate insert must be a complete no-op.
  ModeEvalCache cache(/*capacity=*/2);
  const ModeEvaluation value{};
  cache.insert(key_of(0), value);
  cache.insert(key_of(1), value);
  cache.insert(key_of(0), value);  // duplicate at capacity
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find(key_of(0)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  // FIFO order is also untouched: the next insert evicts key 0, not key 1.
  cache.insert(key_of(2), value);
  EXPECT_EQ(cache.find(key_of(0)), nullptr);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_NE(cache.find(key_of(2)), nullptr);
}

std::vector<std::uint32_t> entry_order(const ModeEvalCache& cache) {
  std::vector<std::uint32_t> order;
  for (const auto& [key, value] : cache.entries()) order.push_back(key.mode);
  return order;
}

TEST(ModeCacheProperty, RestoreRoundTripsBothTiersOrderUnderPressure) {
  // Property: after any sequence of inserts — duplicates included — under
  // constant eviction pressure, checkpointing the entries and restoring
  // them reproduces the exact FIFO order, so a resumed run evicts in the
  // same sequence the uninterrupted run would have.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    ModeEvalCache cache(/*capacity=*/4);
    auto random_op = [&](ModeEvalCache& c) {
      c.insert(key_of(static_cast<std::uint32_t>(rng.pick_index(8))),
               ModeEvaluation{});  // dup-heavy
    };
    for (int i = 0; i < 40; ++i) random_op(cache);

    ModeEvalCache clone(/*capacity=*/4);
    clone.restore(cache.entries(), cache.hits(), cache.lookups());
    EXPECT_EQ(entry_order(clone), entry_order(cache));

    // The restored clone must keep evicting in lock-step with the
    // original as both receive the same further inserts.
    const Rng saved = rng;
    for (int i = 0; i < 20; ++i) random_op(cache);
    rng = saved;
    for (int i = 0; i < 20; ++i) random_op(clone);
    EXPECT_EQ(entry_order(clone), entry_order(cache));
  }
}

TEST(ModeCache, MovedCacheKeepsEntriesAndFifoOrder) {
  // The index views keys inside the FIFO's own nodes, so the cache is
  // not copyable; a move must keep every entry findable and the FIFO
  // order intact.
  static_assert(!std::is_copy_constructible_v<ModeEvalCache>);
  static_assert(!std::is_copy_assignable_v<ModeEvalCache>);
  ModeEvalCache source(/*capacity=*/2);
  source.insert(key_of(0), ModeEvaluation{});
  source.insert(key_of(1), ModeEvaluation{});
  ModeEvalCache moved(std::move(source));
  EXPECT_NE(moved.find(key_of(0)), nullptr);
  EXPECT_NE(moved.find(key_of(1)), nullptr);
  ModeEvalCache assigned(/*capacity=*/2);
  assigned = std::move(moved);
  assigned.insert(key_of(2), ModeEvaluation{});  // evicts key 0
  EXPECT_EQ(assigned.find(key_of(0)), nullptr);
  EXPECT_NE(assigned.find(key_of(1)), nullptr);
  EXPECT_EQ(entry_order(assigned), (std::vector<std::uint32_t>{1, 2}));
}

TEST(ModeCache, EntriesRestoreRoundTripPreservesHits) {
  const System system = make_mul(2);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(13);
  ModeEvalCache cache;
  const Genome genome = codec.random_genome(rng);
  const MultiModeMapping mapping = codec.decode(genome);
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  const Evaluation first = evaluator.evaluate(mapping, cores, &cache);

  ModeEvalCache clone;
  clone.restore(cache.entries(), cache.hits(), cache.lookups());
  EXPECT_EQ(clone.size(), cache.size());
  EXPECT_EQ(clone.hits(), cache.hits());
  EXPECT_EQ(clone.lookups(), cache.lookups());
  // The clone serves every mode from the restored entries.
  const long lookups_before = clone.lookups();
  expect_evaluations_identical(first,
                               evaluator.evaluate(mapping, cores, &clone));
  EXPECT_EQ(clone.hits() - cache.hits(),
            clone.lookups() - lookups_before);
}

// ---- GA-level contract: the cache changes wall clock, never results. ---

GaOptions fast_ga() {
  GaOptions options;
  options.population_size = 24;
  options.max_generations = 30;
  options.stagnation_limit = 12;
  return options;
}

TEST(ModeCache, QuarantinesCorruptedEntryAndRecomputes) {
  // Self-healing contract: an entry poisoned after insertion (here via
  // the cache.insert corrupt failpoint) fails its digest check on the
  // next lookup, is quarantined, and the caller recomputes — the final
  // evaluation stays bitwise-identical to a cold one.
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(11);
  const Genome genome = codec.random_genome(rng);
  const MultiModeMapping mapping = codec.decode(genome);
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  const Evaluation cold = evaluator.evaluate(mapping, cores);

  ModeEvalCache cache;
  failpoint::arm("cache.insert=corrupt");  // poison every stored copy
  (void)evaluator.evaluate(mapping, cores, &cache);
  failpoint::disarm();
  EXPECT_GT(cache.size(), 0u);

  // Every whole-mode lookup detects the poison, evicts, and misses.
  const std::size_t poisoned = cache.size();
  Evaluation healed = evaluator.evaluate(mapping, cores, &cache);
  EXPECT_EQ(cache.quarantined(), static_cast<long>(poisoned));
  expect_evaluations_identical(healed, cold);

  // The recomputed entries are clean: the next pass is pure hits.
  const long hits_before = cache.hits();
  healed = evaluator.evaluate(mapping, cores, &cache);
  EXPECT_EQ(cache.quarantined(), static_cast<long>(poisoned));
  EXPECT_EQ(cache.hits() - hits_before,
            static_cast<long>(system.omsm.mode_count()));
  expect_evaluations_identical(healed, cold);
}

TEST(ModeCache, DroppedInsertIsJustAMissLater) {
  const System system = make_mul(3);
  const Evaluator evaluator(system, EvaluationOptions{});
  const GenomeCodec codec(system);
  Rng rng(17);
  const Genome genome = codec.random_genome(rng);
  const MultiModeMapping mapping = codec.decode(genome);
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  const Evaluation cold = evaluator.evaluate(mapping, cores);

  ModeEvalCache cache;
  failpoint::arm("cache.insert=fail");  // every insert is dropped
  (void)evaluator.evaluate(mapping, cores, &cache);
  failpoint::disarm();
  EXPECT_EQ(cache.size(), 0u);

  const Evaluation recomputed = evaluator.evaluate(mapping, cores, &cache);
  expect_evaluations_identical(recomputed, cold);
  EXPECT_GT(cache.size(), 0u);  // disarmed inserts land normally
}

TEST(ModeCacheGa, ResultsAndReportIdenticalOnOrOff) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 3;
  options.ga.memoize_mode_evaluations = false;
  const SynthesisResult off = synthesize(system, options);
  options.ga.memoize_mode_evaluations = true;
  const SynthesisResult on = synthesize(system, options);

  EXPECT_EQ(off.fitness, on.fitness);
  EXPECT_EQ(off.generations, on.generations);
  EXPECT_EQ(off.evaluations, on.evaluations);
  EXPECT_EQ(off.cache_hits, on.cache_hits);
  EXPECT_EQ(off.evaluation.avg_power_true, on.evaluation.avg_power_true);
  for (std::size_t m = 0; m < off.mapping.modes.size(); ++m)
    EXPECT_EQ(off.mapping.modes[m].task_to_pe, on.mapping.modes[m].task_to_pe);
  // Only the mode-cache counters may differ — and the report omits them,
  // so the rendered reports are byte-identical.
  EXPECT_EQ(off.mode_cache_lookups, 0);
  EXPECT_EQ(off.mode_cache_hits, 0);
  EXPECT_GT(on.mode_cache_lookups, 0);
  EXPECT_GT(on.mode_cache_hits, 0);
  ReportOptions report;
  report.include_timing = false;
  EXPECT_EQ(implementation_report(system, off, report),
            implementation_report(system, on, report));
}

TEST(ModeCacheGa, HitAccountingIsConsistent) {
  const System system = make_mul(4);
  SynthesisOptions options;
  options.ga = fast_ga();
  const SynthesisResult result = synthesize(system, options);
  // Every lookup either hits or schedules exactly one mode inner loop,
  // and there is one lookup per (unique genome job, mode).
  EXPECT_GE(result.mode_cache_lookups, result.mode_cache_hits);
  EXPECT_EQ(result.mode_cache_lookups,
            result.evaluations *
                static_cast<long>(system.omsm.mode_count()));
}

TEST(ModeCacheGa, ParallelEvaluationStaysBitIdentical) {
  const System system = make_mul(5);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 19;
  options.ga.num_threads = 1;
  const SynthesisResult serial = synthesize(system, options);
  options.ga.num_threads = 4;
  const SynthesisResult parallel = synthesize(system, options);
  EXPECT_EQ(serial.fitness, parallel.fitness);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.mode_cache_hits, parallel.mode_cache_hits);
  EXPECT_EQ(serial.mode_cache_lookups, parallel.mode_cache_lookups);
  EXPECT_EQ(serial.evaluation.avg_power_true,
            parallel.evaluation.avg_power_true);
}

TEST(ModeCacheGa, TinyCapacityChangesCostNotResults) {
  const System system = make_mul(3);
  SynthesisOptions options;
  options.ga = fast_ga();
  options.seed = 9;
  const SynthesisResult roomy = synthesize(system, options);
  options.ga.mode_cache_capacity = 4;  // constant eviction
  const SynthesisResult tiny = synthesize(system, options);
  EXPECT_EQ(tiny.fitness, roomy.fitness);
  EXPECT_EQ(tiny.generations, roomy.generations);
  EXPECT_EQ(tiny.evaluation.avg_power_true, roomy.evaluation.avg_power_true);
  // Eviction can only lose hits, never change what a hit returns.
  EXPECT_LE(tiny.mode_cache_hits, roomy.mode_cache_hits);
}

// ---- GA-level contract of the slice table (MappingGa's per-run memo of
// each mode's core demand): it changes wall clock, never results. --------

TEST(SliceTable, ResultsAndReportsIdenticalAcrossMemoCapacityAndThreads) {
  const System system = asic_fpga_system();
  // At the default threshold no task of this system is urgent enough for
  // an extra core (every mobility exceeds half the period); at 1.0 some
  // slice has a hardware group of two or more tasks whose mobility
  // analysis asks for one, so the demands the table holds differ.
  AllocationOptions allocation;
  allocation.mobility_threshold = 1.0;
  {
    const GenomeCodec codec(system);
    Rng rng(3);
    bool extra_core = false;
    for (int i = 0; i < 100 && !extra_core; ++i) {
      const MultiModeMapping mapping = codec.decode(codec.random_genome(rng));
      for (std::size_t m = 0; m < system.omsm.mode_count(); ++m)
        for (const CoreGroup& group :
             mode_core_demand(system, m, mapping.modes[m], allocation))
          extra_core = extra_core || group.cores > 1;
    }
    ASSERT_TRUE(extra_core);
  }

  ReportOptions report;
  report.include_timing = false;
  for (const bool use_dvs : {false, true}) {
    SCOPED_TRACE(use_dvs ? "dvs" : "nominal");
    SynthesisOptions options;
    options.ga = fast_ga();
    options.seed = 23;
    options.use_dvs = use_dvs;
    options.allocation = allocation;
    options.ga.memoize_mode_evaluations = false;  // no table, no memo
    const SynthesisResult off = synthesize(system, options);
    options.ga.memoize_mode_evaluations = true;
    const SynthesisResult on = synthesize(system, options);
    options.ga.mode_cache_capacity = 4;  // the table clears constantly
    const SynthesisResult tiny = synthesize(system, options);
    options.ga.mode_cache_capacity = GaOptions{}.mode_cache_capacity;
    options.ga.num_threads = 3;
    const SynthesisResult threaded = synthesize(system, options);

    const std::string expected = implementation_report(system, off, report);
    for (const SynthesisResult* run : {&on, &tiny, &threaded}) {
      EXPECT_EQ(run->fitness, off.fitness);
      EXPECT_EQ(run->generations, off.generations);
      EXPECT_EQ(run->evaluations, off.evaluations);
      EXPECT_EQ(run->cache_hits, off.cache_hits);
      EXPECT_EQ(run->cache_lookups, off.cache_lookups);
      EXPECT_EQ(run->cores.per_mode, off.cores.per_mode);
      EXPECT_EQ(run->evaluation.avg_power_true, off.evaluation.avg_power_true);
      EXPECT_EQ(implementation_report(system, *run, report), expected);
    }
    // The memo counts are the memo's alone: the table adds none.
    EXPECT_EQ(threaded.mode_cache_hits, on.mode_cache_hits);
    EXPECT_EQ(threaded.mode_cache_lookups, on.mode_cache_lookups);
    EXPECT_EQ(tiny.mode_cache_lookups, on.mode_cache_lookups);
  }
}

}  // namespace
}  // namespace mmsyn
