#include "audit/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "dvs/dvs_graph.hpp"
#include "dvs/pv_dvs.hpp"
#include "energy/artifact_hash.hpp"
#include "energy/evaluator.hpp"
#include "model/mapping.hpp"
#include "pipeline/mode_pipeline.hpp"
#include "model/system.hpp"
#include "sched/validate.hpp"

namespace mmsyn {
namespace {

/// Relative closeness for recomputed energies/powers/areas: the scale is
/// the larger magnitude, floored so exact-zero comparisons stay exact up
/// to the tolerance itself.
[[nodiscard]] bool close_rel(double a, double b, double rel) {
  const double scale = std::max({std::abs(a), std::abs(b), 1e-9});
  return std::abs(a - b) <= rel * scale;
}

void push(std::vector<AuditViolation>& out, AuditViolation::Kind kind,
          std::string detail) {
  out.push_back(AuditViolation{kind, std::move(detail)});
}

[[nodiscard]] AuditViolation::Kind from_schedule_kind(
    ScheduleViolation::Kind kind) {
  switch (kind) {
    case ScheduleViolation::Kind::kPrecedence:
      return AuditViolation::Kind::kPrecedence;
    case ScheduleViolation::Kind::kResourceOverlap:
      return AuditViolation::Kind::kResourceOverlap;
    case ScheduleViolation::Kind::kRouting:
      return AuditViolation::Kind::kRouting;
    case ScheduleViolation::Kind::kDuration:
      return AuditViolation::Kind::kDuration;
    case ScheduleViolation::Kind::kCoreMissing:
      return AuditViolation::Kind::kCoreMissing;
    case ScheduleViolation::Kind::kDeadline:
      return AuditViolation::Kind::kDeadline;
  }
  return AuditViolation::Kind::kDuration;
}

/// Total length of the union of [start, finish) intervals.
[[nodiscard]] double merged_busy_time(
    std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double end = -std::numeric_limits<double>::infinity();
  for (const auto& [s, f] : intervals) {
    if (s > end) {
      total += f - s;
      end = f;
    } else if (f > end) {
      total += f - end;
      end = f;
    }
  }
  return total;
}

/// Fig. 5 consistency for one DVS hardware PE: the segment chain must
/// conserve both the PE's busy time and its nominal dynamic energy.
void check_serialization(const Mode& mode, const ModeSchedule& schedule,
                         const ModeMapping& mapping, const DvsGraph& graph,
                         const TechLibrary& tech, PeId p,
                         const std::string& pe_name,
                         const AuditOptions& options,
                         std::vector<AuditViolation>& out) {
  double segment_time = 0.0;
  double segment_energy = 0.0;
  bool any_segment = false;
  for (std::size_t i = 0; i < graph.node_count(); ++i) {
    if (static_cast<DvsNodeKind>(graph.kind[i]) != DvsNodeKind::kSegment ||
        graph.pe[i] != static_cast<std::int32_t>(p.index()))
      continue;
    segment_time += graph.tmin[i];
    segment_energy += graph.e_nom[i];
    any_segment = true;
  }

  std::vector<std::pair<double, double>> intervals;
  double task_energy = 0.0;
  for (const ScheduledTask& st : schedule.tasks) {
    if (mapping.task_to_pe[st.task.index()] != p) continue;
    intervals.emplace_back(st.start, st.finish);
    const Task& task = mode.graph.task(st.task);
    task_energy += tech.require(task.type, p).energy();
  }
  if (intervals.empty()) return;  // idle PE: no segments expected
  if (!any_segment) {
    push(out, AuditViolation::Kind::kSerialization,
         "mode '" + mode.name + "', PE '" + pe_name +
             "': tasks scheduled but no Fig. 5 segments in the DVS graph");
    return;
  }

  const double busy = merged_busy_time(std::move(intervals));
  if (!close_rel(segment_time, busy, options.relative_tolerance)) {
    std::ostringstream os;
    os << "mode '" << mode.name << "', PE '" << pe_name
       << "': segment chain covers " << segment_time << " s but the PE is busy "
       << busy << " s";
    push(out, AuditViolation::Kind::kSerialization, os.str());
  }
  if (!close_rel(segment_energy, task_energy, options.relative_tolerance)) {
    std::ostringstream os;
    os << "mode '" << mode.name << "', PE '" << pe_name
       << "': segment nominal energy " << segment_energy
       << " J != sum of task energies " << task_energy << " J";
    push(out, AuditViolation::Kind::kSerialization, os.str());
  }
}

}  // namespace

AuditOptions audit_options_for(const SynthesisOptions& options) {
  AuditOptions audit;
  audit.use_dvs = options.use_dvs;
  audit.dvs = options.dvs_final;
  audit.scheduling_policy = options.scheduling_policy;
  audit.power = options.power;
  return audit;
}

const char* to_string(AuditViolation::Kind kind) {
  switch (kind) {
    case AuditViolation::Kind::kMappingMalformed: return "mapping-malformed";
    case AuditViolation::Kind::kAllocationInconsistent:
      return "allocation-inconsistent";
    case AuditViolation::Kind::kScheduleMissing: return "schedule-missing";
    case AuditViolation::Kind::kPrecedence: return "precedence";
    case AuditViolation::Kind::kResourceOverlap: return "resource-overlap";
    case AuditViolation::Kind::kRouting: return "routing";
    case AuditViolation::Kind::kDuration: return "duration";
    case AuditViolation::Kind::kCoreMissing: return "core-missing";
    case AuditViolation::Kind::kDeadline: return "deadline";
    case AuditViolation::Kind::kTimingMismatch: return "timing-mismatch";
    case AuditViolation::Kind::kTransitionTime: return "transition-time";
    case AuditViolation::Kind::kVoltageLevel: return "voltage-level";
    case AuditViolation::Kind::kSerialization: return "serialization";
    case AuditViolation::Kind::kEnergyMismatch: return "energy-mismatch";
    case AuditViolation::Kind::kAreaMismatch: return "area-mismatch";
    case AuditViolation::Kind::kModeCacheMismatch: return "mode-cache-mismatch";
    case AuditViolation::Kind::kStageReplayMismatch:
      return "stage-replay-mismatch";
  }
  return "unknown";
}

std::string AuditReport::to_string() const {
  std::ostringstream os;
  os << "audit: " << (passed() ? "PASSED" : "FAILED") << " ("
     << modes_checked << " modes, " << transitions_checked
     << " transitions, " << violations.size() << " violations)\n";
  for (const AuditViolation& v : violations)
    os << "  [" << mmsyn::to_string(v.kind) << "] " << v.detail << "\n";
  return os.str();
}

void check_voltage_levels(const VoltageSchedule& schedule,
                          const Architecture& arch, double relative_tolerance,
                          std::vector<AuditViolation>& out) {
  for (std::size_t i = 0; i < schedule.activities.size(); ++i) {
    const ActivityVoltageSchedule& activity = schedule.activities[i];
    if (activity.kind == DvsNodeKind::kComm || !activity.pe.valid()) continue;
    const Pe& pe = arch.pe(activity.pe);
    for (const VoltageSlice& slice : activity.slices) {
      bool on_level = false;
      for (double level : pe.voltage_levels)
        if (close_rel(slice.voltage, level, relative_tolerance)) {
          on_level = true;
          break;
        }
      if (!on_level) {
        std::ostringstream os;
        os << "activity " << i << " on PE '" << pe.name << "': slice voltage "
           << slice.voltage << " V is not a validated level of the PE";
        push(out, AuditViolation::Kind::kVoltageLevel, os.str());
      }
    }
  }
}

AuditReport audit_result(const System& system, const SynthesisResult& result,
                         const AuditOptions& options) {
  AuditReport report;
  std::vector<AuditViolation>& out = report.violations;
  const Omsm& omsm = system.omsm;
  const Architecture& arch = system.arch;
  const TechLibrary& tech = system.tech;
  const Evaluation& eval = result.evaluation;
  const std::size_t num_modes = omsm.mode_count();
  const std::size_t num_pes = arch.pe_count();

  // ---- Structural gate: nothing below is safe to index otherwise. ------
  if (result.mapping.modes.size() != num_modes) {
    push(out, AuditViolation::Kind::kMappingMalformed,
         "mapping has " + std::to_string(result.mapping.modes.size()) +
             " modes, system has " + std::to_string(num_modes));
    return report;
  }
  if (!mapping_is_well_formed(result.mapping, omsm, arch, tech)) {
    push(out, AuditViolation::Kind::kMappingMalformed,
         "mapping fails structural validation (bad PE id, wrong task count, "
         "or task type unsupported on its PE)");
    return report;
  }
  if (result.cores.per_mode.size() != num_modes) {
    push(out, AuditViolation::Kind::kAllocationInconsistent,
         "core allocation has " + std::to_string(result.cores.per_mode.size()) +
             " modes, system has " + std::to_string(num_modes));
    return report;
  }
  for (std::size_t m = 0; m < num_modes; ++m)
    if (result.cores.per_mode[m].size() != num_pes) {
      push(out, AuditViolation::Kind::kAllocationInconsistent,
           "core allocation of mode " + std::to_string(m) + " covers " +
               std::to_string(result.cores.per_mode[m].size()) +
               " PEs, architecture has " + std::to_string(num_pes));
      return report;
    }
  if (eval.modes.size() != num_modes ||
      eval.transition_times.size() != omsm.transition_count() ||
      eval.transition_violations.size() != omsm.transition_count() ||
      eval.pe_used_area.size() != num_pes ||
      eval.pe_area_violation.size() != num_pes) {
    push(out, AuditViolation::Kind::kAllocationInconsistent,
         "evaluation structure does not match the system (mode / transition "
         "/ PE counts differ)");
    return report;
  }

  // ---- Core-allocation invariants. -------------------------------------
  for (PeId p : arch.pe_ids()) {
    const Pe& pe = arch.pe(p);
    if (is_software(pe.kind)) {
      for (std::size_t m = 0; m < num_modes; ++m)
        if (!result.cores.per_mode[m][p.index()].empty()) {
          push(out, AuditViolation::Kind::kAllocationInconsistent,
               "software PE '" + pe.name + "' has cores allocated in mode " +
                   std::to_string(m));
          break;
        }
    } else if (pe.kind == PeKind::kAsic) {
      // ASIC cores are static silicon: identical in every mode.
      for (std::size_t m = 1; m < num_modes; ++m)
        if (!(result.cores.per_mode[m][p.index()] ==
              result.cores.per_mode[0][p.index()])) {
          push(out, AuditViolation::Kind::kAllocationInconsistent,
               "ASIC '" + pe.name + "' core set differs between mode 0 and "
                   "mode " + std::to_string(m));
          break;
        }
    }
  }

  // Staged pipeline mirroring the configuration the result claims: used
  // by the per-mode stage replay below, which re-runs every stage
  // explicitly and demands *exact* equality with the carried artifacts —
  // the pipeline contract (DESIGN.md §11) says cold, cached, and staged
  // execution all share the same stage code, so any drift is a bug.
  PipelineOptions popts;
  popts.scheduling_policy = options.scheduling_policy;
  popts.use_dvs = options.use_dvs;
  popts.dvs = options.dvs;
  popts.power = options.power;
  const ModePipeline pipeline(system, popts);

  // ---- Per-mode replay. -------------------------------------------------
  for (std::size_t m = 0; m < num_modes; ++m) {
    const ModeId mode_id{static_cast<ModeId::value_type>(m)};
    const Mode& mode = omsm.mode(mode_id);
    const ModeEvaluation& me = eval.modes[m];
    const ModeMapping& mapping = result.mapping.modes[m];
    ++report.modes_checked;

    if (!me.schedule) {
      push(out, AuditViolation::Kind::kScheduleMissing,
           "mode '" + mode.name + "' carries no schedule (was the result "
           "produced with keep_schedules?)");
      continue;
    }
    const ModeSchedule& schedule = *me.schedule;

    // Independent executability check; deadlines only when the result
    // claims this mode meets them (penalised infeasible candidates may
    // legitimately carry late schedules).
    ValidateOptions vopts;
    vopts.tolerance = options.time_tolerance;
    vopts.check_deadlines = me.timing_violation <= options.time_tolerance;
    for (const ScheduleViolation& v :
         validate_schedule(mode, schedule, mapping, arch, tech,
                           result.cores.per_mode[m], vopts))
      push(out, from_schedule_kind(v.kind),
           "mode '" + mode.name + "': " + v.detail);

    // Deadline / hyper-period bound: recompute the claimed violation sum
    // (one shared definition with the evaluator — sched/validate.hpp).
    const double timing = schedule_timing_violation(mode, schedule);
    if (!close_rel(timing, me.timing_violation,
                   options.relative_tolerance) &&
        std::abs(timing - me.timing_violation) > options.time_tolerance) {
      std::ostringstream os;
      os << "mode '" << mode.name << "': recomputed timing violation "
         << timing << " s != claimed " << me.timing_violation << " s";
      push(out, AuditViolation::Kind::kTimingMismatch, os.str());
    }
    const double makespan = schedule_makespan(schedule);
    if (std::abs(makespan - me.makespan) > options.time_tolerance &&
        !close_rel(makespan, me.makespan, options.relative_tolerance)) {
      std::ostringstream os;
      os << "mode '" << mode.name << "': recomputed makespan " << makespan
         << " s != claimed " << me.makespan << " s";
      push(out, AuditViolation::Kind::kTimingMismatch, os.str());
    }

    // Voltage-schedule replay: levels within the validated set, and the
    // Fig. 5 serialization transform conserves time and energy.
    if (options.use_dvs) {
      const DvsGraph graph = build_dvs_graph(mode, schedule, mapping, arch,
                                             tech, options.dvs.scale_hardware);
      const PvDvsResult dvs = run_pv_dvs(graph, arch, options.dvs);
      check_voltage_levels(derive_voltage_schedule(graph, dvs, arch), arch,
                           options.relative_tolerance, out);
      if (options.dvs.scale_hardware)
        for (PeId p : arch.pe_ids()) {
          const Pe& pe = arch.pe(p);
          if (is_hardware(pe.kind) && pe.dvs_enabled)
            check_serialization(mode, schedule, mapping, graph, tech, p,
                                pe.name, options, out);
        }
    }

    // Stage replay: re-run the explicit pipeline stages and hold the
    // result to exact equality with what the evaluation carries. Stage
    // 1–2 must reproduce the kept schedule bit-for-bit, stages 3–5 the
    // claimed per-mode quantities.
    {
      const std::vector<CoreSet>& hw_cores = result.cores.per_mode[m];
      const CommMapping comm = pipeline.comm_mapping(m, mapping, hw_cores);
      const ModeSchedule rebuilt =
          pipeline.schedule(m, mapping, hw_cores, comm);
      if (!equal_mode_schedules(rebuilt, schedule)) {
        push(out, AuditViolation::Kind::kStageReplayMismatch,
             "mode '" + mode.name +
                 "': stages 1-2 (comm mapping + scheduling) do not "
                 "reproduce the carried schedule exactly");
      } else {
        const ModeEvaluation staged =
            pipeline.evaluate_scheduled(m, mapping, rebuilt);
        if (!equal_mode_evaluations(staged, me)) {
          push(out, AuditViolation::Kind::kStageReplayMismatch,
               "mode '" + mode.name +
                   "': stages 3-5 (serialize/scale/finalize) do not "
                   "reproduce the claimed mode evaluation exactly");
        }
      }
    }
  }

  // ---- Area recompute. --------------------------------------------------
  double total_area_violation = 0.0;
  for (PeId p : arch.pe_ids()) {
    const Pe& pe = arch.pe(p);
    if (!is_hardware(pe.kind)) continue;
    const double used = result.cores.required_area(p, tech);
    const double over = std::max(0.0, used - pe.area_capacity);
    total_area_violation += over;
    if (!close_rel(used, eval.pe_used_area[p.index()],
                   options.relative_tolerance)) {
      std::ostringstream os;
      os << "PE '" << pe.name << "': recomputed used area " << used
         << " != claimed " << eval.pe_used_area[p.index()];
      push(out, AuditViolation::Kind::kAreaMismatch, os.str());
    }
    if (!close_rel(over, eval.pe_area_violation[p.index()],
                   options.relative_tolerance)) {
      std::ostringstream os;
      os << "PE '" << pe.name << "': recomputed area violation " << over
         << " != claimed " << eval.pe_area_violation[p.index()];
      push(out, AuditViolation::Kind::kAreaMismatch, os.str());
    }
  }
  if (!close_rel(total_area_violation, eval.total_area_violation,
                 options.relative_tolerance)) {
    std::ostringstream os;
    os << "recomputed total area violation " << total_area_violation
       << " != claimed " << eval.total_area_violation;
    push(out, AuditViolation::Kind::kAreaMismatch, os.str());
  }

  // ---- Mode-transition (FPGA reconfiguration) recompute. -----------------
  for (std::size_t t = 0; t < omsm.transition_count(); ++t) {
    const ModeTransition& tr =
        omsm.transition(TransitionId{static_cast<TransitionId::value_type>(t)});
    ++report.transitions_checked;
    double time = 0.0;
    for (PeId p : arch.pe_ids()) {
      const Pe& pe = arch.pe(p);
      if (pe.kind != PeKind::kFpga) continue;
      const double delta = result.cores.cores(tr.to, p).delta_area_from(
          result.cores.cores(tr.from, p), tech, p);
      time = std::max(time, delta / pe.reconfig_bandwidth);
    }
    if (std::abs(time - eval.transition_times[t]) > options.time_tolerance &&
        !close_rel(time, eval.transition_times[t],
                   options.relative_tolerance)) {
      std::ostringstream os;
      os << "transition " << omsm.mode(tr.from).name << " -> "
         << omsm.mode(tr.to).name << ": recomputed reconfiguration time "
         << time << " s != claimed " << eval.transition_times[t] << " s";
      push(out, AuditViolation::Kind::kTransitionTime, os.str());
    }
    const double over = std::max(0.0, time - tr.max_transition_time);
    if (std::abs(over - eval.transition_violations[t]) >
            options.time_tolerance &&
        !close_rel(over, eval.transition_violations[t],
                   options.relative_tolerance)) {
      std::ostringstream os;
      os << "transition " << omsm.mode(tr.from).name << " -> "
         << omsm.mode(tr.to).name << ": recomputed t_T^max violation " << over
         << " s != claimed " << eval.transition_violations[t] << " s";
      push(out, AuditViolation::Kind::kTransitionTime, os.str());
    }
  }

  // ---- Full energy/power recompute through a fresh evaluator. -----------
  // The true-Ψ numbers are weight-independent, so this holds for the
  // probability-neglecting baseline too (whose *objective* used uniform
  // weights but whose report uses the true Ψ).
  EvaluationOptions eopts;
  eopts.use_dvs = options.use_dvs;
  eopts.dvs = options.dvs;
  eopts.scheduling_policy = options.scheduling_policy;
  eopts.power = options.power;
  const Evaluator evaluator(system, eopts);
  const Evaluation fresh = evaluator.evaluate(result.mapping, result.cores);
  if (!close_rel(fresh.avg_power_true, eval.avg_power_true,
                 options.relative_tolerance)) {
    std::ostringstream os;
    os << "recomputed average power " << fresh.avg_power_true
       << " W != claimed " << eval.avg_power_true << " W";
    push(out, AuditViolation::Kind::kEnergyMismatch, os.str());
  }
  for (std::size_t m = 0; m < num_modes; ++m) {
    const Mode& mode = omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
    if (!close_rel(fresh.modes[m].dyn_power, eval.modes[m].dyn_power,
                   options.relative_tolerance)) {
      std::ostringstream os;
      os << "mode '" << mode.name << "': recomputed dynamic power "
         << fresh.modes[m].dyn_power << " W != claimed "
         << eval.modes[m].dyn_power << " W";
      push(out, AuditViolation::Kind::kEnergyMismatch, os.str());
    }
    if (!close_rel(fresh.modes[m].static_power, eval.modes[m].static_power,
                   options.relative_tolerance)) {
      std::ostringstream os;
      os << "mode '" << mode.name << "': recomputed static power "
         << fresh.modes[m].static_power << " W != claimed "
         << eval.modes[m].static_power << " W";
      push(out, AuditViolation::Kind::kEnergyMismatch, os.str());
    }
  }

  // ---- Incremental-evaluation invariant. --------------------------------
  // A cached evaluation must be indistinguishable from a cache-disabled
  // one (DESIGN.md §10). Evaluate twice through a fresh per-mode memo —
  // the first pass fills it, the second is served entirely from it — and
  // demand *exact* equality with the cold recompute above.
  {
    auto equal_eval = [&](const Evaluation& a, const Evaluation& b) {
      if (a.modes.size() != b.modes.size()) return false;
      for (std::size_t m = 0; m < a.modes.size(); ++m)
        if (!equal_mode_evaluations(a.modes[m], b.modes[m])) return false;
      return a.avg_power_true == b.avg_power_true &&
             a.avg_power_weighted == b.avg_power_weighted &&
             a.pe_used_area == b.pe_used_area &&
             a.pe_area_violation == b.pe_area_violation &&
             a.total_area_violation == b.total_area_violation &&
             a.transition_times == b.transition_times &&
             a.transition_violations == b.transition_violations &&
             a.weighted_timing_violation == b.weighted_timing_violation;
    };
    ModeEvalCache cache;
    const Evaluation filled =
        evaluator.evaluate(result.mapping, result.cores, &cache);
    const Evaluation replayed =
        evaluator.evaluate(result.mapping, result.cores, &cache);
    if (!equal_eval(filled, fresh)) {
      push(out, AuditViolation::Kind::kModeCacheMismatch,
           "cache-filling evaluation differs from the cache-disabled one");
    } else if (!equal_eval(replayed, fresh)) {
      push(out, AuditViolation::Kind::kModeCacheMismatch,
           "cache-served evaluation differs from the cache-disabled one");
    } else if (cache.hits() != static_cast<long>(num_modes)) {
      std::ostringstream os;
      os << "cache replay hit " << cache.hits() << " of " << num_modes
         << " modes";
      push(out, AuditViolation::Kind::kModeCacheMismatch, os.str());
    }
  }

  return report;
}

}  // namespace mmsyn
