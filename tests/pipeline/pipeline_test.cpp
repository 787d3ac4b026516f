// The staged per-mode evaluation pipeline (DESIGN.md §11): per-stage
// golden-artifact checks on the motivational and smart-phone suites,
// byte-identity of the staged composites against the whole evaluator
// (property-tested over random mutation chains), schedule-artifact reuse
// across DVS-option boundaries, the backend registry's actionable
// errors, and the profiler's no-perturbation contract.
#include "pipeline/mode_pipeline.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "core/allocation_builder.hpp"
#include "core/genome.hpp"
#include "energy/evaluator.hpp"
#include "model/system.hpp"
#include "pipeline/backends.hpp"
#include "sched/validate.hpp"
#include "tgff/motivational.hpp"
#include "tgff/smart_phone.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Exact (bitwise) equality of two mode schedules.
void expect_schedules_identical(const ModeSchedule& a, const ModeSchedule& b) {
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].task, b.tasks[i].task);
    EXPECT_EQ(a.tasks[i].pe, b.tasks[i].pe);
    EXPECT_EQ(a.tasks[i].core_instance, b.tasks[i].core_instance);
    EXPECT_EQ(a.tasks[i].start, b.tasks[i].start);
    EXPECT_EQ(a.tasks[i].finish, b.tasks[i].finish);
  }
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    EXPECT_EQ(a.comms[i].edge, b.comms[i].edge);
    EXPECT_EQ(a.comms[i].cl, b.comms[i].cl);
    EXPECT_EQ(a.comms[i].local, b.comms[i].local);
    EXPECT_EQ(a.comms[i].start, b.comms[i].start);
    EXPECT_EQ(a.comms[i].finish, b.comms[i].finish);
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.routable, b.routable);
}

/// Exact (bitwise) equality of two mode evaluations (schedules excluded).
void expect_mode_evals_identical(const ModeEvaluation& a,
                                 const ModeEvaluation& b) {
  EXPECT_EQ(a.dyn_energy, b.dyn_energy);
  EXPECT_EQ(a.dyn_power, b.dyn_power);
  EXPECT_EQ(a.static_power, b.static_power);
  EXPECT_EQ(a.timing_violation, b.timing_violation);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.pe_active, b.pe_active);
  EXPECT_EQ(a.cl_active, b.cl_active);
  EXPECT_EQ(a.routable, b.routable);
}

void expect_evaluations_identical(const Evaluation& a, const Evaluation& b) {
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t m = 0; m < a.modes.size(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    expect_mode_evals_identical(a.modes[m], b.modes[m]);
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

/// For every mode of `system` under a deterministic mapping: run the five
/// stages one by one and demand each composite (`build_schedule`,
/// `evaluate_scheduled`, `run`) reproduces the hand-chained artifacts
/// bitwise, and that the artifacts satisfy their stage contracts.
void check_stage_chain(const System& system, bool use_dvs,
                       std::uint64_t seed) {
  PipelineOptions popts;
  popts.use_dvs = use_dvs;
  const ModePipeline pipeline(system, popts);

  const GenomeCodec codec(system);
  Rng rng(seed);
  const MultiModeMapping mapping = codec.decode(codec.random_genome(rng));
  const CoreAllocation cores = build_core_allocation(system, mapping, {});

  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    const Mode& mode = system.omsm.mode(ModeId{static_cast<int>(m)});
    const ModeMapping& mm = mapping.modes[m];
    const std::vector<CoreSet>& hw = cores.per_mode[m];

    // Stage 1: one priority per task, all finite.
    const CommMapping comm = pipeline.comm_mapping(m, mm, hw);
    ASSERT_EQ(comm.priority.size(), mode.graph.task_count());
    for (const double p : comm.priority) ASSERT_TRUE(std::isfinite(p));

    // Stage 2: legal schedule; composite 1-2 is bitwise the same.
    const ModeSchedule sched = pipeline.schedule(m, mm, hw, comm);
    ASSERT_TRUE(sched.routable);
    EXPECT_TRUE(
        validate_schedule(mode, sched, mm, system.arch, system.tech, hw)
            .empty());
    EXPECT_EQ(sched.makespan, schedule_makespan(sched));
    expect_schedules_identical(sched, pipeline.build_schedule(m, mm, hw));

    // Stage 3: a DVS graph exactly when the DVS backend is on.
    const SerializedSchedule serialized = pipeline.serialize(m, mm, sched);
    EXPECT_EQ(serialized.has_graph, use_dvs);

    // Stage 4: scaling never exceeds the nominal energy.
    const ScaledSchedule scaled = pipeline.scale(m, mm, sched, serialized);
    ASSERT_GE(scaled.dyn_energy, 0.0);
    EXPECT_EQ(scaled.dvs.has_value(), use_dvs);
    if (scaled.dvs) {
      EXPECT_LE(scaled.dvs->total_energy,
                scaled.dvs->nominal_energy * (1 + 1e-9));
    }

    // Stage 5: golden aggregates re-derived from the shared sched
    // routines; composites 3-5 and 1-5 are bitwise the same chain.
    const ModeEvaluation final_eval = pipeline.finalize(m, mm, scaled, sched);
    EXPECT_EQ(final_eval.dyn_energy, scaled.dyn_energy);
    EXPECT_EQ(final_eval.dyn_power, scaled.dyn_energy / mode.period);
    EXPECT_EQ(final_eval.makespan, schedule_makespan(sched));
    EXPECT_EQ(final_eval.timing_violation,
              schedule_timing_violation(mode, sched));
    ASSERT_EQ(final_eval.pe_active.size(), system.arch.pe_count());
    ASSERT_EQ(final_eval.cl_active.size(), system.arch.cl_count());
    expect_mode_evals_identical(final_eval,
                                pipeline.evaluate_scheduled(m, mm, sched));
    expect_mode_evals_identical(final_eval, pipeline.run(m, mm, hw));
  }
}

TEST(ModePipelineStages, Motivational1Chain) {
  check_stage_chain(make_motivational_example1(), false, 11);
  check_stage_chain(make_motivational_example1(), true, 11);
}

TEST(ModePipelineStages, Motivational2Chain) {
  check_stage_chain(make_motivational_example2(), false, 12);
  check_stage_chain(make_motivational_example2(), true, 12);
}

TEST(ModePipelineStages, SmartPhoneChain) {
  check_stage_chain(make_smart_phone(), false, 13);
  check_stage_chain(make_smart_phone(), true, 13);
}

/// The evaluator's per-mode entry is exactly the pipeline's full chain.
TEST(ModePipelineStages, EvaluatorEvaluateModeIsPipelineRun) {
  const System system = make_motivational_example1();
  EvaluationOptions options;
  options.use_dvs = true;
  const Evaluator evaluator(system, options);
  const GenomeCodec codec(system);
  Rng rng(7);
  const MultiModeMapping mapping = codec.decode(codec.random_genome(rng));
  const CoreAllocation cores = build_core_allocation(system, mapping, {});
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    SCOPED_TRACE("mode " + std::to_string(m));
    expect_mode_evals_identical(
        evaluator.evaluate_mode(m, mapping, cores),
        evaluator.pipeline().run(m, mapping.modes[m], cores.per_mode[m]));
  }
}

/// Property: along a chain of random point mutations, evaluating through
/// the per-mode cache equals the cache-disabled (legacy whole-run)
/// evaluation bitwise at every step.
TEST(ModePipelineProperty, StagedEqualsLegacyOnMutationChains) {
  for (const bool use_dvs : {false, true}) {
    SCOPED_TRACE(use_dvs ? "pv-dvs" : "none");
    const System system = make_mul(4);
    EvaluationOptions options;
    options.use_dvs = use_dvs;
    const Evaluator evaluator(system, options);
    const GenomeCodec codec(system);
    Rng rng(23);
    ModeEvalCache cache;
    Genome genome = codec.random_genome(rng);
    for (int step = 0; step < 25; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const std::size_t g = rng.pick_index(codec.genome_length());
      genome[g] = static_cast<std::uint16_t>(
          rng.pick_index(codec.candidates(g).size()));
      const MultiModeMapping mapping = codec.decode(genome);
      const CoreAllocation cores = build_core_allocation(system, mapping, {});
      expect_evaluations_identical(evaluator.evaluate(mapping, cores),
                                   evaluator.evaluate(mapping, cores, &cache));
    }
    EXPECT_GT(cache.hits(), 0);
  }
}

TEST(ModePipelineBackends, RegistryRoundTripsAndDefaults) {
  ASSERT_FALSE(scheduler_backends().empty());
  ASSERT_FALSE(dvs_backends().empty());
  // The first entries pin the paper's reference behaviour.
  EXPECT_EQ(scheduler_backends().front().policy,
            SchedulingPolicy::kBottomLevel);
  EXPECT_FALSE(dvs_backends().front().use_dvs);
  for (const auto& b : scheduler_backends())
    EXPECT_EQ(resolve_scheduler_backend(b.name), b.policy);
  for (const auto& b : dvs_backends())
    EXPECT_EQ(resolve_dvs_backend(b.name), b.use_dvs);
  EXPECT_STREQ(scheduler_backend_name(SchedulingPolicy::kBottomLevel),
               "bottom-level");
  EXPECT_STREQ(dvs_backend_name(true), "pv-dvs");
  EXPECT_STREQ(dvs_backend_name(false), "none");
}

TEST(ModePipelineBackends, UnknownNamesThrowActionableErrors) {
  try {
    (void)resolve_scheduler_backend("simulated-annealing");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("simulated-annealing"), std::string::npos);
    for (const auto& b : scheduler_backends())
      EXPECT_NE(msg.find(b.name), std::string::npos) << msg;
  }
  try {
    (void)resolve_dvs_backend("magic");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("magic"), std::string::npos);
    for (const auto& b : dvs_backends())
      EXPECT_NE(msg.find(b.name), std::string::npos) << msg;
  }
}

/// Distinct scheduler backends, and distinct DVS settings under one
/// backend (the GA loop's vs the final evaluation's knobs), change the
/// evaluation fingerprint: their results must never alias in the
/// per-mode cache.
TEST(ModePipelineBackends, SchedulerBackendsFingerprintDistinctly) {
  const System system = make_motivational_example1();
  std::vector<std::uint64_t> fps;
  for (const auto& b : scheduler_backends()) {
    PipelineOptions popts;
    popts.scheduling_policy = b.policy;
    fps.push_back(ModePipeline(system, popts).evaluation_fingerprint());
  }
  PipelineOptions fine;
  fine.use_dvs = true;
  PipelineOptions coarse = fine;
  coarse.dvs = PvDvsOptions{12, 0.5, 1e-5, true};
  fps.push_back(ModePipeline(system, fine).evaluation_fingerprint());
  fps.push_back(ModePipeline(system, coarse).evaluation_fingerprint());
  for (std::size_t i = 0; i < fps.size(); ++i)
    for (std::size_t j = i + 1; j < fps.size(); ++j)
      EXPECT_NE(fps[i], fps[j]);
}

/// Attaching a profiler records every stage call without perturbing the
/// result.
TEST(ModePipelineProfile, ProfilerCountsWithoutPerturbing) {
  const System system = make_motivational_example1();
  const GenomeCodec codec(system);
  Rng rng(3);
  const MultiModeMapping mapping = codec.decode(codec.random_genome(rng));
  const CoreAllocation cores = build_core_allocation(system, mapping, {});

  EvaluationOptions plain;
  plain.use_dvs = true;
  PipelineProfiler profiler;
  EvaluationOptions profiled = plain;
  profiled.profiler = &profiler;

  const Evaluator a(system, plain);
  const Evaluator b(system, profiled);
  // Instrumentation must not leak into fingerprints or results.
  EXPECT_EQ(a.options_fingerprint(), b.options_fingerprint());
  expect_evaluations_identical(a.evaluate(mapping, cores),
                               b.evaluate(mapping, cores));

  const auto n = static_cast<long>(system.omsm.mode_count());
  for (const PipelineStage s :
       {PipelineStage::kCommMapping, PipelineStage::kSchedule,
        PipelineStage::kSerialize, PipelineStage::kScale,
        PipelineStage::kFinalize}) {
    SCOPED_TRACE(to_string(s));
    EXPECT_EQ(profiler.stats(s).calls, n);
    EXPECT_GE(profiler.stats(s).seconds, 0.0);
  }
  const std::string table = profiler.table(1, 2);
  for (const char* stage : {"comm-mapping", "schedule", "serialize", "scale",
                            "finalize"})
    EXPECT_NE(table.find(stage), std::string::npos) << table;

  profiler.reset();
  EXPECT_EQ(profiler.stats(PipelineStage::kSchedule).calls, 0);
}

}  // namespace
}  // namespace mmsyn
