#include "energy/evaluator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/allocation_builder.hpp"
#include "core/cosynth.hpp"
#include "model/io.hpp"
#include "model/system.hpp"
#include "tgff/motivational.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Hand-checkable fixture: GPP (DVS) + ASIC + FPGA on one bus, two modes.
class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() {
    Pe gpp;
    gpp.name = "GPP";
    gpp.dvs_enabled = true;
    gpp.voltage_levels = {1.2, 2.0, 3.3};
    gpp.static_power = 1e-3;
    sw_ = system_.arch.add_pe(gpp);

    Pe asic;
    asic.name = "ASIC";
    asic.kind = PeKind::kAsic;
    asic.area_capacity = 250.0;
    asic.static_power = 2e-3;
    hw_ = system_.arch.add_pe(asic);

    Pe fpga;
    fpga.name = "FPGA";
    fpga.kind = PeKind::kFpga;
    fpga.area_capacity = 250.0;
    fpga.static_power = 3e-3;
    fpga.reconfig_bandwidth = 1e4;  // cells per second
    fpga_ = system_.arch.add_pe(fpga);

    Cl bus;
    bus.bandwidth = 1e6;
    bus.transfer_power = 0.1;
    bus.static_power = 0.5e-3;
    bus.attached = {sw_, hw_, fpga_};
    system_.arch.add_cl(bus);

    // One type, 10 ms / 100 mW in software, 1 ms / 2 mW in hardware.
    type_ = system_.tech.add_type("T");
    system_.tech.set_implementation(type_, sw_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(type_, hw_, {1e-3, 2e-3, 200.0});
    system_.tech.set_implementation(type_, fpga_, {1e-3, 2e-3, 200.0});

    Mode a;
    a.name = "A";
    a.probability = 0.8;
    a.period = 0.1;
    a.graph.add_task("a0", type_);
    const ModeId ma = system_.omsm.add_mode(std::move(a));

    Mode b;
    b.name = "B";
    b.probability = 0.2;
    b.period = 0.05;
    b.graph.add_task("b0", type_);
    const ModeId mb = system_.omsm.add_mode(std::move(b));

    system_.omsm.add_transition({ma, mb, 0.015});
    system_.omsm.add_transition({mb, ma, 0.030});
  }

  MultiModeMapping map_to(PeId mode_a_pe, PeId mode_b_pe) const {
    MultiModeMapping m;
    m.modes.resize(2);
    m.modes[0].task_to_pe = {mode_a_pe};
    m.modes[1].task_to_pe = {mode_b_pe};
    return m;
  }

  Evaluation evaluate(const MultiModeMapping& m,
                      EvaluationOptions options = {}) const {
    const Evaluator evaluator(system_, std::move(options));
    return evaluator.evaluate(m, build_core_allocation(system_, m));
  }

  System system_;
  PeId sw_, hw_, fpga_;
  TaskTypeId type_;
};

TEST_F(EvaluatorTest, AllSoftwarePowerIsHandComputable) {
  const Evaluation e = evaluate(map_to(sw_, sw_));
  // Mode A: dyn = 1 mJ / 0.1 s = 10 mW; static = GPP 1 mW.
  EXPECT_NEAR(e.modes[0].dyn_power, 10e-3, 1e-9);
  EXPECT_NEAR(e.modes[0].static_power, 1e-3, 1e-12);
  // Mode B: dyn = 1 mJ / 0.05 s = 20 mW.
  EXPECT_NEAR(e.modes[1].dyn_power, 20e-3, 1e-9);
  // Weighted: 0.8*11 + 0.2*21 = 13 mW.
  EXPECT_NEAR(e.avg_power_true, 13e-3, 1e-9);
  EXPECT_TRUE(e.feasible());
}

TEST_F(EvaluatorTest, UnusedComponentsAreShutDown) {
  const Evaluation e = evaluate(map_to(sw_, sw_));
  EXPECT_TRUE(e.modes[0].pe_active[sw_.index()]);
  EXPECT_FALSE(e.modes[0].pe_active[hw_.index()]);
  EXPECT_FALSE(e.modes[0].pe_active[fpga_.index()]);
  EXPECT_FALSE(e.modes[0].cl_active[0]);  // no inter-PE communication
}

TEST_F(EvaluatorTest, HardwareMappingCutsDynamicPower) {
  const Evaluation e = evaluate(map_to(hw_, sw_));
  // Mode A on ASIC: dyn = 2 uJ / 0.1 s = 20 uW; static = ASIC only.
  EXPECT_NEAR(e.modes[0].dyn_power, 20e-6, 1e-12);
  EXPECT_NEAR(e.modes[0].static_power, 2e-3, 1e-12);
}

TEST_F(EvaluatorTest, WeightOverrideChangesObjectiveNotReport) {
  EvaluationOptions uniform;
  uniform.weight_override = {1.0, 1.0};
  const Evaluation e = evaluate(map_to(sw_, sw_), uniform);
  EXPECT_NEAR(e.avg_power_true, 13e-3, 1e-9);       // true Ψ report
  EXPECT_NEAR(e.avg_power_weighted, 16e-3, 1e-9);   // 0.5*11 + 0.5*21
}

TEST_F(EvaluatorTest, TimingViolationMeasured) {
  system_.omsm.mode(ModeId{0}).period = 5e-3;  // under the 10 ms exec time
  const Evaluation e = evaluate(map_to(sw_, sw_));
  EXPECT_NEAR(e.modes[0].timing_violation, 5e-3, 1e-9);
  EXPECT_FALSE(e.timing_feasible());
  EXPECT_FALSE(e.feasible());
}

TEST_F(EvaluatorTest, WeightedTimingViolationIsPeriodNormalised) {
  // 10 ms execution in a 5 ms period: the per-mode violation is 5 ms of
  // raw time, but the aggregated penalty expresses it as a *fraction of
  // the mode period* — Σ_m w_m · violation_m / period_m = 0.8 · 1.0 —
  // so the timing penalty is invariant under rescaling the time base.
  system_.omsm.mode(ModeId{0}).period = 5e-3;
  const Evaluation e = evaluate(map_to(sw_, sw_));
  EXPECT_NEAR(e.modes[0].timing_violation, 5e-3, 1e-9);  // raw seconds
  EXPECT_NEAR(e.weighted_timing_violation, 0.8, 1e-9);   // dimensionless
}

TEST_F(EvaluatorTest, CachedEvaluateBitIdenticalAndCounted) {
  const Evaluator evaluator(system_, EvaluationOptions{});
  const MultiModeMapping m = map_to(fpga_, sw_);
  const CoreAllocation cores = build_core_allocation(system_, m);
  const Evaluation cold = evaluator.evaluate(m, cores);
  ModeEvalCache cache;
  (void)evaluator.evaluate(m, cores, &cache);  // fills the memo
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.lookups(), 2);
  EXPECT_EQ(cache.size(), 2u);
  const Evaluation warm = evaluator.evaluate(m, cores, &cache);
  EXPECT_EQ(cache.hits(), 2);  // every mode served from the memo
  EXPECT_EQ(warm.avg_power_true, cold.avg_power_true);
  EXPECT_EQ(warm.avg_power_weighted, cold.avg_power_weighted);
  EXPECT_EQ(warm.weighted_timing_violation, cold.weighted_timing_violation);
  EXPECT_EQ(warm.transition_times, cold.transition_times);
  EXPECT_EQ(warm.pe_used_area, cold.pe_used_area);
}

TEST_F(EvaluatorTest, KeepSchedulesBypassesModeCache) {
  // The memo stores no schedules, so a keep_schedules evaluation takes
  // the cold path and leaves the cache untouched.
  EvaluationOptions opts;
  opts.keep_schedules = true;
  const Evaluator evaluator(system_, opts);
  const MultiModeMapping m = map_to(sw_, sw_);
  const CoreAllocation cores = build_core_allocation(system_, m);
  ModeEvalCache cache;
  const Evaluation e = evaluator.evaluate(m, cores, &cache);
  EXPECT_TRUE(e.modes[0].schedule.has_value());
  EXPECT_EQ(cache.lookups(), 0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EvaluatorTest, DeadlineTighterThanPeriodApplies) {
  system_.omsm.mode(ModeId{0}).graph.set_deadline(TaskId{0}, 4e-3);
  const Evaluation e = evaluate(map_to(sw_, sw_));
  EXPECT_NEAR(e.modes[0].timing_violation, 6e-3, 1e-9);
}

TEST_F(EvaluatorTest, AreaViolationMeasured) {
  // Two tasks of distinct types on the 250-cell ASIC -> 400 cells used.
  const TaskTypeId extra = system_.tech.add_type("X");
  system_.tech.set_implementation(extra, sw_, {1e-3, 0.1, 0.0});
  system_.tech.set_implementation(extra, hw_, {1e-4, 1e-3, 200.0});
  system_.omsm.mode(ModeId{0}).graph.add_task("a1", extra);
  MultiModeMapping m = map_to(hw_, sw_);
  m.modes[0].task_to_pe.push_back(hw_);
  const Evaluation e = evaluate(m);
  EXPECT_NEAR(e.pe_used_area[hw_.index()], 400.0, 1e-9);
  EXPECT_NEAR(e.pe_area_violation[hw_.index()], 150.0, 1e-9);
  EXPECT_FALSE(e.area_feasible());
}

TEST_F(EvaluatorTest, FpgaReconfigurationTimesComputed) {
  // Mode A uses the FPGA, mode B does not: entering A loads 200 cells at
  // 1e4 cells/s = 20 ms > the 15 ms limit of transition A<-B... (the
  // transition edge 1 is B->A with limit 30 ms; edge 0 A->B unloads).
  const Evaluation e = evaluate(map_to(fpga_, sw_));
  EXPECT_NEAR(e.transition_times[0], 0.0, 1e-12);    // A->B: nothing loads
  EXPECT_NEAR(e.transition_times[1], 0.02, 1e-12);   // B->A: 200 cells
  EXPECT_NEAR(e.transition_violations[1], 0.0, 1e-12);  // 20 ms <= 30 ms
  EXPECT_TRUE(e.transitions_feasible());
}

TEST_F(EvaluatorTest, FpgaReconfigurationViolationFlagged) {
  // Tighten the B->A limit below the 20 ms reconfiguration time.
  system_.omsm.transition(TransitionId{1}).max_transition_time = 0.010;
  const Evaluation e = evaluate(map_to(fpga_, sw_));
  EXPECT_NEAR(e.transition_times[1], 0.02, 1e-12);
  EXPECT_NEAR(e.transition_violations[1], 0.01, 1e-12);
  EXPECT_FALSE(e.transitions_feasible());
  EXPECT_FALSE(e.feasible());
}

TEST_F(EvaluatorTest, DvsReducesReportedPower) {
  EvaluationOptions nominal;
  const Evaluation plain = evaluate(map_to(sw_, sw_), nominal);
  EvaluationOptions with_dvs;
  with_dvs.use_dvs = true;
  const Evaluation dvs = evaluate(map_to(sw_, sw_), with_dvs);
  EXPECT_LT(dvs.avg_power_true, plain.avg_power_true);
  // Static power is untouched by DVS.
  EXPECT_DOUBLE_EQ(dvs.modes[0].static_power, plain.modes[0].static_power);
}

TEST_F(EvaluatorTest, SchedulesKeptOnlyOnRequest) {
  EvaluationOptions opts;
  EXPECT_FALSE(evaluate(map_to(sw_, sw_), opts).modes[0].schedule.has_value());
  opts.keep_schedules = true;
  EXPECT_TRUE(evaluate(map_to(sw_, sw_), opts).modes[0].schedule.has_value());
}

TEST_F(EvaluatorTest, BadWeightOverrideRejected) {
  EvaluationOptions opts;
  opts.weight_override = {1.0};  // wrong size
  EXPECT_THROW(Evaluator(system_, opts), std::invalid_argument);
  opts.weight_override = {0.0, 0.0};  // zero sum
  EXPECT_THROW(Evaluator(system_, opts), std::invalid_argument);
}

TEST(EvaluatorPaper, Fig2NumbersExact) {
  const System system = make_motivational_example1();
  const Evaluator evaluator(system, EvaluationOptions{});
  {
    const MultiModeMapping m = example1_mapping_without_probabilities();
    const Evaluation e =
        evaluator.evaluate(m, build_core_allocation(system, m));
    EXPECT_NEAR(e.avg_power_true * 1e3, 26.7158, 1e-4);
    EXPECT_TRUE(e.feasible());
  }
  {
    const MultiModeMapping m = example1_mapping_with_probabilities();
    const Evaluation e =
        evaluator.evaluate(m, build_core_allocation(system, m));
    EXPECT_NEAR(e.avg_power_true * 1e3, 15.7423, 1e-4);
    EXPECT_TRUE(e.feasible());
  }
}

// ---- Task-graph finalization at construction. ---------------------------

TEST(EvaluatorFinalize, FinalizesEveryGraphOfAnUnvalidatedParsedSystem) {
  // Parsing leaves the graphs' adjacency unbuilt until first use; without
  // validate() that first use would come from the GA's pool threads
  // (core allocation, scheduling), building it concurrently.
  const std::string text = system_to_string(make_mul(6));
  const System system = system_from_string(text);
  for (const Mode& mode : system.omsm.modes())
    ASSERT_FALSE(mode.graph.finalized()) << mode.name;
  const Evaluator evaluator(system, EvaluationOptions{});
  for (const Mode& mode : system.omsm.modes())
    EXPECT_TRUE(mode.graph.finalized()) << mode.name;

  // The racy configuration itself: a multi-threaded synthesis of a fresh
  // unvalidated parse equals the single-threaded one.
  SynthesisOptions options;
  options.ga.population_size = 16;
  options.ga.max_generations = 4;
  options.ga.num_threads = 4;
  const SynthesisResult threaded =
      synthesize(system_from_string(text), options);
  options.ga.num_threads = 1;
  const SynthesisResult serial = synthesize(system, options);
  EXPECT_EQ(threaded.fitness, serial.fitness);
  EXPECT_EQ(threaded.evaluation.avg_power_true,
            serial.evaluation.avg_power_true);
}

TEST(EvaluatorFinalize, CyclicUnvalidatedGraphThrowsNamingItsMode) {
  System system = system_from_string(system_to_string(make_mul(2)));
  Mode& mode = system.omsm.mode(ModeId{1});
  ASSERT_FALSE(mode.graph.edges().empty());
  const TaskEdge edge = mode.graph.edges().front();
  mode.graph.add_edge(edge.dst, edge.src, 0.0);
  try {
    const Evaluator evaluator(system, EvaluationOptions{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'" + mode.name + "'"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace mmsyn
