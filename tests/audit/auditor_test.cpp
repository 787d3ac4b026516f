// Invariant-auditor tests: clean results pass; deliberately corrupted
// schedules, allocations, and evaluations produce the right typed
// violations.
#include "audit/auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "tgff/motivational.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

SynthesisOptions small_options(bool dvs = false) {
  SynthesisOptions options;
  options.seed = 5;
  options.use_dvs = dvs;
  options.ga.population_size = 16;
  options.ga.max_generations = 40;
  options.ga.stagnation_limit = 20;
  return options;
}

bool has_kind(const AuditReport& report, AuditViolation::Kind kind) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [&](const AuditViolation& v) { return v.kind == kind; });
}

class AuditorTest : public ::testing::Test {
protected:
  void SetUp() override {
    system_ = make_mul(5);
    options_ = small_options();
    result_ = synthesize(system_, options_);
    audit_ = audit_options_for(options_);
  }

  System system_;
  SynthesisOptions options_;
  SynthesisResult result_;
  AuditOptions audit_;
};

TEST_F(AuditorTest, CleanResultPasses) {
  const AuditReport report = audit_result(system_, result_, audit_);
  EXPECT_TRUE(report.passed()) << report.to_string();
  EXPECT_EQ(report.modes_checked,
            static_cast<int>(system_.omsm.mode_count()));
  EXPECT_EQ(report.transitions_checked,
            static_cast<int>(system_.omsm.transition_count()));
}

TEST_F(AuditorTest, DvsResultPasses) {
  const SynthesisOptions dvs_options = small_options(/*dvs=*/true);
  const SynthesisResult dvs_result = synthesize(system_, dvs_options);
  const AuditReport report =
      audit_result(system_, dvs_result, audit_options_for(dvs_options));
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST_F(AuditorTest, SingleLevelDvsHardwareHasNoSegmentsToCheck) {
  // dvs=1 with one level is fixed-voltage hardware: the Fig. 5 transform
  // leaves its tasks as task nodes, so there is no segment chain to audit.
  int hosted_on_hw = 0;
  for (PeId p : system_.arch.pe_ids()) {
    Pe& pe = system_.arch.pe(p);
    if (!is_hardware(pe.kind)) continue;
    pe.dvs_enabled = true;
    pe.voltage_levels = {pe.vmax()};
  }
  const SynthesisOptions dvs_options = small_options(/*dvs=*/true);
  const SynthesisResult dvs_result = synthesize(system_, dvs_options);
  for (const ModeMapping& mode : dvs_result.mapping.modes)
    for (PeId pe : mode.task_to_pe)
      hosted_on_hw += is_hardware(system_.arch.pe(pe).kind) ? 1 : 0;
  ASSERT_GT(hosted_on_hw, 0);
  const AuditReport report =
      audit_result(system_, dvs_result, audit_options_for(dvs_options));
  EXPECT_TRUE(report.passed()) << report.to_string();
}

TEST_F(AuditorTest, TruncatedMappingIsMalformed) {
  SynthesisResult corrupted = result_;
  corrupted.mapping.modes.pop_back();
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kMappingMalformed));
}

TEST_F(AuditorTest, MissingScheduleDetected) {
  SynthesisResult corrupted = result_;
  corrupted.evaluation.modes[0].schedule.reset();
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kScheduleMissing));
}

TEST_F(AuditorTest, ShiftedTaskBreaksPrecedenceOrOverlap) {
  SynthesisResult corrupted = result_;
  // Drag a non-source task to time zero: it now starts before its inputs
  // arrive (and its duration no longer matches the model).
  ModeSchedule& sched = *corrupted.evaluation.modes[0].schedule;
  ASSERT_GT(sched.tasks.size(), 1u);
  ScheduledTask& victim = sched.tasks.back();
  victim.start = 0.0;
  victim.finish = 1e-9;
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kPrecedence) ||
              has_kind(report, AuditViolation::Kind::kDuration) ||
              has_kind(report, AuditViolation::Kind::kResourceOverlap))
      << report.to_string();
}

TEST_F(AuditorTest, LateTaskClaimedFeasibleIsDeadlineViolation) {
  SynthesisResult corrupted = result_;
  ModeSchedule& sched = *corrupted.evaluation.modes[0].schedule;
  const Mode& mode = system_.omsm.mode(ModeId{0});
  // Push a task past the hyper-period while the evaluation still claims a
  // zero timing violation.
  ScheduledTask& victim = sched.tasks.front();
  const double shift = mode.period * 2;
  victim.start += shift;
  victim.finish += shift;
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kDeadline) ||
              has_kind(report, AuditViolation::Kind::kTimingMismatch))
      << report.to_string();
}

TEST_F(AuditorTest, TamperedPowerIsEnergyMismatch) {
  SynthesisResult corrupted = result_;
  corrupted.evaluation.avg_power_true *= 0.5;
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kEnergyMismatch));
}

TEST_F(AuditorTest, TamperedModePowerIsEnergyMismatch) {
  SynthesisResult corrupted = result_;
  corrupted.evaluation.modes[0].dyn_power += 1.0;
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kEnergyMismatch));
}

TEST_F(AuditorTest, TamperedAreaIsAreaMismatch) {
  SynthesisResult corrupted = result_;
  // Claim a hardware PE uses less area than its cores occupy.
  bool tampered = false;
  for (PeId p : system_.arch.pe_ids())
    if (is_hardware(system_.arch.pe(p).kind) &&
        corrupted.evaluation.pe_used_area[p.index()] > 0.0) {
      corrupted.evaluation.pe_used_area[p.index()] *= 0.5;
      tampered = true;
      break;
    }
  ASSERT_TRUE(tampered) << "instance has no used hardware PE";
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kAreaMismatch));
}

TEST_F(AuditorTest, TamperedTransitionTimeDetected) {
  SynthesisResult corrupted = result_;
  ASSERT_FALSE(corrupted.evaluation.transition_times.empty());
  corrupted.evaluation.transition_times[0] += 1.0;
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_TRUE(has_kind(report, AuditViolation::Kind::kTransitionTime));
}

TEST_F(AuditorTest, AsicCoreSetVaryingAcrossModesDetected) {
  SynthesisResult corrupted = result_;
  // Find an ASIC with cores and clear its set in one mode only.
  bool tampered = false;
  for (PeId p : system_.arch.pe_ids()) {
    if (system_.arch.pe(p).kind != PeKind::kAsic) continue;
    for (std::size_t m = 0; m < system_.omsm.mode_count() && !tampered; ++m)
      if (!corrupted.cores.per_mode[m][p.index()].empty()) {
        corrupted.cores.per_mode[m][p.index()] = CoreSet{};
        tampered = true;
      }
    if (tampered) break;
  }
  if (!tampered) GTEST_SKIP() << "instance allocated no ASIC cores";
  const AuditReport report = audit_result(system_, corrupted, audit_);
  EXPECT_FALSE(report.passed());
  EXPECT_TRUE(
      has_kind(report, AuditViolation::Kind::kAllocationInconsistent) ||
      has_kind(report, AuditViolation::Kind::kCoreMissing))
      << report.to_string();
}

TEST(AuditVoltageLevels, OffLevelSliceDetected) {
  const System system = make_mul(5);
  VoltageSchedule schedule;
  ActivityVoltageSchedule activity;
  activity.kind = DvsNodeKind::kTask;
  activity.ref = 0;
  activity.pe = PeId{0};
  // 97% of the nominal level: not a validated level of any PE.
  activity.slices.push_back(
      VoltageSlice{system.arch.pe(PeId{0}).vmax() * 0.97, 1e-3, 1.0});
  schedule.activities.push_back(activity);

  std::vector<AuditViolation> violations;
  check_voltage_levels(schedule, system.arch, 1e-6, violations);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].kind, AuditViolation::Kind::kVoltageLevel);

  // On-level slices are clean.
  violations.clear();
  schedule.activities[0].slices[0].voltage = system.arch.pe(PeId{0}).vmax();
  check_voltage_levels(schedule, system.arch, 1e-6, violations);
  EXPECT_TRUE(violations.empty());
}

TEST(AuditReportRendering, ListsViolations) {
  AuditReport report;
  report.modes_checked = 2;
  report.transitions_checked = 1;
  EXPECT_NE(report.to_string().find("PASSED"), std::string::npos);
  report.violations.push_back(
      AuditViolation{AuditViolation::Kind::kDeadline, "task late"});
  const std::string text = report.to_string();
  EXPECT_NE(text.find("FAILED"), std::string::npos);
  EXPECT_NE(text.find("deadline"), std::string::npos);
  EXPECT_NE(text.find("task late"), std::string::npos);
}

}  // namespace
}  // namespace mmsyn
