// The staged per-mode evaluation pipeline (DESIGN.md §11).
//
// One mode's inner loop, decomposed into the paper's explicit stages:
//
//   1 comm_mapping  — communication-aware task priorities     → CommMapping
//   2 schedule      — list scheduling + CL routing            → ModeSchedule
//   3 serialize     — Fig. 5 DVS-graph construction           → SerializedSchedule
//   4 scale         — PV-DVS / nominal-voltage energy         → ScaledSchedule
//   5 finalize      — timing penalty + shut-down analysis     → ModeEvaluation
//
// `run` executes 1→5; `build_schedule` (1–2) and `evaluate_scheduled`
// (3–5) split the chain at the ModeSchedule artifact — the boundary the
// auditor's stage replay checks. `run` is defined as their composition,
// so a replay is bitwise-indistinguishable from a run by construction.
//
// Fingerprint: `evaluation_fingerprint` covers every option the stages
// read (scheduler backend, DVS backend and knobs, power backend); it is
// the options part of the per-mode cache key (energy/evaluator.hpp).
//
// Thread safety: all stage methods are const and pure apart from the
// optional profiler, which accumulates with relaxed atomics; one pipeline
// may be shared by concurrent callers.
#pragma once

#include <cstdint>
#include <vector>

#include "dvs/pv_dvs.hpp"
#include "model/core_allocation.hpp"
#include "model/mapping.hpp"
#include "pipeline/artifacts.hpp"
#include "pipeline/profile.hpp"
#include "sched/list_scheduler.hpp"

namespace mmsyn {

struct System;
class PowerModel;

/// The subset of evaluation options the per-mode pipeline reads.
struct PipelineOptions {
  /// Scheduler backend (stages 1–2).
  SchedulingPolicy scheduling_policy = SchedulingPolicy::kBottomLevel;
  /// DVS backend (stages 3–4): PV-DVS when true, the nominal-voltage
  /// baseline when false.
  bool use_dvs = false;
  /// PV-DVS knobs (read when use_dvs).
  PvDvsOptions dvs;
  /// Move the schedule artifact into the final ModeEvaluation.
  bool keep_schedules = false;
  /// Optional per-stage instrumentation; not part of any fingerprint and
  /// never observable in results.
  PipelineProfiler* profiler = nullptr;
  /// Power-model backend (stages 4–5; see power/power_model.hpp). Null
  /// means `paper`: the constructor resolves it, so options() never
  /// returns null. Folded into the evaluation fingerprint.
  const PowerModel* power = nullptr;
};

class ModePipeline {
public:
  /// The system reference must outlive the pipeline.
  ModePipeline(const System& system, PipelineOptions options);

  // ---- Individual stages. ----------------------------------------------
  [[nodiscard]] CommMapping comm_mapping(
      std::size_t m, const ModeMapping& mapping,
      const std::vector<CoreSet>& hw_cores) const;
  [[nodiscard]] ModeSchedule schedule(std::size_t m,
                                      const ModeMapping& mapping,
                                      const std::vector<CoreSet>& hw_cores,
                                      const CommMapping& comm) const;
  [[nodiscard]] SerializedSchedule serialize(
      std::size_t m, const ModeMapping& mapping,
      const ModeSchedule& schedule) const;
  [[nodiscard]] ScaledSchedule scale(std::size_t m,
                                     const ModeMapping& mapping,
                                     const ModeSchedule& schedule,
                                     const SerializedSchedule& serialized) const;
  /// Takes the schedule by value so keep_schedules can move it into the
  /// result without copying.
  [[nodiscard]] ModeEvaluation finalize(std::size_t m,
                                        const ModeMapping& mapping,
                                        const ScaledSchedule& scaled,
                                        ModeSchedule schedule) const;

  // ---- Composites. -----------------------------------------------------
  /// Stages 1–2: the schedule artifact.
  [[nodiscard]] ModeSchedule build_schedule(
      std::size_t m, const ModeMapping& mapping,
      const std::vector<CoreSet>& hw_cores) const;
  /// Stages 3–5 from an existing schedule artifact.
  [[nodiscard]] ModeEvaluation evaluate_scheduled(std::size_t m,
                                                  const ModeMapping& mapping,
                                                  ModeSchedule schedule) const;
  /// The full chain; identical to
  /// evaluate_scheduled(m, mapping, build_schedule(m, mapping, hw_cores)).
  [[nodiscard]] ModeEvaluation run(std::size_t m, const ModeMapping& mapping,
                                   const std::vector<CoreSet>& hw_cores) const;

  /// FNV-1a over everything that shapes a ModeEvaluation (scheduler
  /// backend + DVS backend + DVS knobs + power backend).
  [[nodiscard]] std::uint64_t evaluation_fingerprint() const {
    return evaluation_fingerprint_;
  }

  [[nodiscard]] const PipelineOptions& options() const { return options_; }

private:
  const System& system_;
  PipelineOptions options_;
  std::uint64_t evaluation_fingerprint_ = 0;
};

}  // namespace mmsyn
