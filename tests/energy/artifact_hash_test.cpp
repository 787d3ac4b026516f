#include "energy/artifact_hash.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace mmsyn {
namespace {

/// A ModeEvaluation with every digested field set to a distinct value.
ModeEvaluation sample_evaluation() {
  ModeEvaluation m;
  m.dyn_energy = 1.25;
  m.dyn_power = 2.5;
  m.static_power = 0.375;
  m.timing_violation = 0.0625;
  m.makespan = 3.0;
  m.pe_active = {true, false, true};
  m.cl_active = {false, true};
  m.routable = true;
  m.baseline_static_power = 0.5;
  m.idle_energy_saved = 0.0125;
  m.wake_energy = 0.003;
  m.temperature = 42.5;
  return m;
}

ModeSchedule sample_schedule() {
  ModeSchedule s;
  ScheduledTask t;
  t.task = TaskId{0};
  t.pe = PeId{1};
  t.core_instance = 2;
  t.start = 0.5;
  t.finish = 1.5;
  s.tasks.push_back(t);
  ScheduledComm c;
  c.edge = EdgeId{0};
  c.cl = ClId{0};
  c.local = false;
  c.start = 1.5;
  c.finish = 2.0;
  s.comms.push_back(c);
  s.makespan = 2.0;
  s.routable = true;
  return s;
}

TEST(ArtifactHash, EvaluationDigestIsStableAcrossCalls) {
  const ModeEvaluation m = sample_evaluation();
  EXPECT_EQ(mode_evaluation_digest(m), mode_evaluation_digest(m));
  // A value-equal copy digests identically.
  const ModeEvaluation copy = m;
  EXPECT_EQ(mode_evaluation_digest(copy), mode_evaluation_digest(m));
  EXPECT_TRUE(equal_mode_evaluations(copy, m));
}

TEST(ArtifactHash, EvaluationDigestCoversEveryComparedField) {
  // Each single-field perturbation must flip both the digest and the
  // equality predicate — the digests cover exactly the compared fields,
  // so a field silently dropped from either would fail here.
  const ModeEvaluation base = sample_evaluation();
  const std::vector<std::function<void(ModeEvaluation&)>> perturbations = {
      [](ModeEvaluation& m) { m.dyn_energy += 1.0; },
      [](ModeEvaluation& m) { m.dyn_power += 1.0; },
      [](ModeEvaluation& m) { m.static_power += 1.0; },
      [](ModeEvaluation& m) { m.timing_violation += 1.0; },
      [](ModeEvaluation& m) { m.makespan += 1.0; },
      [](ModeEvaluation& m) { m.pe_active[1] = !m.pe_active[1]; },
      [](ModeEvaluation& m) { m.pe_active.push_back(true); },
      [](ModeEvaluation& m) { m.cl_active[0] = !m.cl_active[0]; },
      [](ModeEvaluation& m) { m.routable = !m.routable; },
      [](ModeEvaluation& m) { m.baseline_static_power += 1.0; },
      [](ModeEvaluation& m) { m.idle_energy_saved += 1.0; },
      [](ModeEvaluation& m) { m.wake_energy += 1.0; },
      [](ModeEvaluation& m) { m.temperature += 1.0; },
  };
  for (std::size_t i = 0; i < perturbations.size(); ++i) {
    ModeEvaluation changed = base;
    perturbations[i](changed);
    EXPECT_NE(mode_evaluation_digest(changed), mode_evaluation_digest(base))
        << "perturbation " << i;
    EXPECT_FALSE(equal_mode_evaluations(changed, base))
        << "perturbation " << i;
  }
}

TEST(ArtifactHash, RetainedScheduleIsExcludedByContract) {
  // Memoised whole-mode entries never carry a schedule and the auditor
  // replays schedules separately, so the optional must affect neither the
  // digest nor equality.
  const ModeEvaluation bare = sample_evaluation();
  ModeEvaluation kept = bare;
  kept.schedule = sample_schedule();
  EXPECT_EQ(mode_evaluation_digest(kept), mode_evaluation_digest(bare));
  EXPECT_TRUE(equal_mode_evaluations(kept, bare));
}

TEST(ArtifactHash, ScheduleDigestIsStableAcrossCalls) {
  // Schedules are no longer digested; the auditor's stage replay compares
  // them with equal_mode_schedules, which must hold for the same value,
  // for a copy in either order, and for default values, on every call.
  const ModeSchedule s = sample_schedule();
  EXPECT_TRUE(equal_mode_schedules(s, s));
  const ModeSchedule copy = s;
  EXPECT_TRUE(equal_mode_schedules(copy, s));
  EXPECT_TRUE(equal_mode_schedules(s, copy));
  EXPECT_TRUE(equal_mode_schedules(ModeSchedule{}, ModeSchedule{}));
}

TEST(ArtifactHash, ScheduleDigestCoversEveryComparedField) {
  // The auditor's stage replay compares schedules with
  // equal_mode_schedules: each single-field perturbation must make a
  // schedule unequal.
  const ModeSchedule base = sample_schedule();
  const std::vector<std::function<void(ModeSchedule&)>> perturbations = {
      [](ModeSchedule& s) { s.tasks[0].task = TaskId{1}; },
      [](ModeSchedule& s) { s.tasks[0].pe = PeId{0}; },
      [](ModeSchedule& s) { s.tasks[0].core_instance = 0; },
      [](ModeSchedule& s) { s.tasks[0].start += 1.0; },
      [](ModeSchedule& s) { s.tasks[0].finish += 1.0; },
      [](ModeSchedule& s) { s.tasks.push_back(s.tasks[0]); },
      [](ModeSchedule& s) { s.comms[0].edge = EdgeId{1}; },
      [](ModeSchedule& s) { s.comms[0].cl = ClId::invalid(); },
      [](ModeSchedule& s) { s.comms[0].local = !s.comms[0].local; },
      [](ModeSchedule& s) { s.comms[0].start += 1.0; },
      [](ModeSchedule& s) { s.comms[0].finish += 1.0; },
      [](ModeSchedule& s) { s.makespan += 1.0; },
      [](ModeSchedule& s) { s.routable = !s.routable; },
  };
  for (std::size_t i = 0; i < perturbations.size(); ++i) {
    ModeSchedule changed = base;
    perturbations[i](changed);
    EXPECT_FALSE(equal_mode_schedules(changed, base))
        << "perturbation " << i;
  }
}

TEST(ArtifactHash, DefaultConstructedValuesDigestConsistently) {
  // The digest of a default value is well-defined (used by the cache's
  // self-healing check before any field is populated).
  EXPECT_EQ(mode_evaluation_digest(ModeEvaluation{}),
            mode_evaluation_digest(ModeEvaluation{}));
  EXPECT_NE(mode_evaluation_digest(ModeEvaluation{}),
            mode_evaluation_digest(sample_evaluation()));
}

}  // namespace
}  // namespace mmsyn
