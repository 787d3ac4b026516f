// Cross-layer invariant auditor: independent replay of a finished
// synthesis result against the model layer.
//
// The synthesiser's own evaluation and the report both trust the inner
// loop that produced them. This module re-derives every claim a
// SynthesisResult makes from first principles — schedule executability
// (precedence, resource exclusiveness, routing), per-mode deadline and
// hyper-period bounds, FPGA reconfiguration time against each OMSM edge's
// t_T^max, voltage levels within each PE's validated set, the Fig. 5
// serialization transform for DVS hardware cores, a full re-computation
// of the energy/power numbers, and a stage-by-stage replay of the
// evaluation pipeline (DESIGN.md §11) demanding exact artifact equality —
// and reports structured violations instead of asserting. The integration tests run every result
// through the auditor (tests/support/audit_every_result.hpp), so a
// scheduler or evaluator regression surfaces as a typed violation rather
// than a silently wrong power figure.
#pragma once

#include <string>
#include <vector>

#include "core/cosynth.hpp"
#include "dvs/voltage_schedule.hpp"

namespace mmsyn {

/// Auditing knobs. The options must mirror the configuration the result
/// was produced with (use audit_options_for to derive them from the
/// SynthesisOptions) — the energy re-computation is exact only when the
/// auditor replays the same DVS settings and scheduling policy.
struct AuditOptions {
  /// Replay PV-DVS on DVS-enabled PEs (must match the synthesis run).
  bool use_dvs = false;
  /// Fine DVS settings of the final evaluation being audited.
  PvDvsOptions dvs;
  /// Inner-loop list-scheduler priority used by the synthesis run.
  SchedulingPolicy scheduling_policy = SchedulingPolicy::kBottomLevel;
  /// Power-model backend the result was produced with (null means
  /// `paper`). The replay evaluators must price static power through the
  /// same backend or every recompute would mismatch.
  const PowerModel* power = nullptr;
  /// Relative tolerance for re-computed energies/powers/areas.
  double relative_tolerance = 1e-6;
  /// Absolute tolerance for time comparisons (seconds).
  double time_tolerance = 1e-9;
};

/// Derives the audit configuration matching a synthesis run: the *final*
/// (reported) evaluation settings, which is what SynthesisResult carries.
[[nodiscard]] AuditOptions audit_options_for(const SynthesisOptions& options);

/// One detected inconsistency between the result and the model.
struct AuditViolation {
  enum class Kind {
    kMappingMalformed,        ///< mapping fails structural validation
    kAllocationInconsistent,  ///< core allocation malformed / ASIC varies
    kScheduleMissing,         ///< a mode evaluation lacks its schedule
    kPrecedence,              ///< consumer starts before its input arrives
    kResourceOverlap,         ///< overlap on a sequential resource
    kRouting,                 ///< comm mapped to a CL missing an endpoint
    kDuration,                ///< activity duration disagrees with model
    kCoreMissing,             ///< HW task lacks an allocated core instance
    kDeadline,                ///< task finishes after min(deadline, period)
    kTimingMismatch,          ///< recomputed timing violation != claimed
    kTransitionTime,          ///< reconfiguration time mismatch / over limit
    kVoltageLevel,            ///< slice voltage outside the PE's level set
    kSerialization,           ///< Fig. 5 segment chain inconsistent
    kEnergyMismatch,          ///< recomputed power disagrees with claimed
    kAreaMismatch,            ///< recomputed area/violation != claimed
    kModeCacheMismatch,       ///< cached evaluation != cache-disabled one
    kStageReplayMismatch,     ///< staged pipeline replay != claimed artifacts
  };
  Kind kind;
  std::string detail;
};

[[nodiscard]] const char* to_string(AuditViolation::Kind kind);

/// Everything the auditor found, plus coverage counters so a passing
/// report can be distinguished from a vacuous one.
struct AuditReport {
  std::vector<AuditViolation> violations;
  int modes_checked = 0;
  int transitions_checked = 0;

  [[nodiscard]] bool passed() const { return violations.empty(); }
  /// Human-readable rendering (one line per violation).
  [[nodiscard]] std::string to_string() const;
};

/// Audits `result` against `system`. Never throws on a *bad result* —
/// every inconsistency becomes a violation; exceptions indicate auditor
/// bugs or a result so malformed it cannot be indexed (which the initial
/// structural checks turn into violations before deeper checks run).
[[nodiscard]] AuditReport audit_result(const System& system,
                                       const SynthesisResult& result,
                                       const AuditOptions& options = {});

/// Checks that every slice of `schedule` uses a validated voltage level of
/// its PE (within `relative_tolerance`). Exposed separately so the
/// voltage-level check is unit-testable with hand-corrupted schedules.
void check_voltage_levels(const VoltageSchedule& schedule,
                          const Architecture& arch, double relative_tolerance,
                          std::vector<AuditViolation>& out);

}  // namespace mmsyn
