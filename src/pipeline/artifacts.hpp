// Typed stage artifacts of the per-mode evaluation pipeline.
//
// The paper's inner loop is staged: communication mapping + list
// scheduling (ref [12]), the Fig. 5 serialization transformation for
// parallel hardware cores, PV-DVS voltage scaling (ref [10]), and the
// power/shut-down aggregation entering Eq. 1. Each stage's output is one
// of the value types below, produced by pipeline/mode_pipeline.hpp:
//
//   CommMapping → ModeSchedule → SerializedSchedule → ScaledSchedule
//               → ModeEvaluation
//
// (ModeSchedule lives in sched/schedule.hpp; it predates the pipeline.)
// Artifacts are immutable by convention: stages take their inputs by
// const reference and return fresh values, so an artifact can be
// replayed into the downstream stages at any time and yield bitwise the
// same result as a cold run — the property the audit layer's stage
// replay rests on (DESIGN.md §11).
#pragma once

#include <optional>
#include <vector>

#include "dvs/dvs_graph.hpp"
#include "dvs/pv_dvs.hpp"
#include "sched/schedule.hpp"

namespace mmsyn {

/// Stage 1 — communication-aware task priorities. For the bottom-level
/// policy these fold best-case inter-PE communication delays into each
/// task's criticality; the list scheduler consumes them as its ready-list
/// order. Depends on the mode, the task→PE mapping and the scheduler
/// backend, but not on core counts.
struct CommMapping {
  std::vector<double> priority;  // index == task id; larger == more urgent
};

/// Stage 3 — the DVS problem graph (Fig. 5 serialization of parallel
/// hardware cores). Empty for the no-DVS backend, which prices energies
/// at nominal voltage straight off the schedule.
struct SerializedSchedule {
  bool has_graph = false;
  DvsGraph graph;
};

/// Stage 4 — voltage-scaled (or nominal) dynamic energy of one mode's
/// hyper-period. `dvs` carries the full per-node scaling result when the
/// PV-DVS backend ran; the no-DVS backend leaves it empty.
struct ScaledSchedule {
  double dyn_energy = 0.0;  // joules per hyper-period
  std::optional<PvDvsResult> dvs;
  /// Per-PE busy seconds (post-DVS activity durations). Computed only
  /// when the selected power model declares needs_pe_busy(); empty
  /// otherwise, so the reference path does no extra work.
  std::vector<double> pe_busy;
};

/// Stage 5 — per-mode evaluation detail (the pipeline's final artifact;
/// the cross-mode Eq. 1 aggregation happens in energy/evaluator.hpp).
struct ModeEvaluation {
  /// Dynamic energy per hyper-period (after DVS when enabled), joules.
  double dyn_energy = 0.0;
  /// dyn_energy / period, watts.
  double dyn_power = 0.0;
  /// Static power of the components active in this mode, watts.
  double static_power = 0.0;
  /// Σ_τ max(0, finish(τ) − min(θ_τ, φ)), seconds.
  double timing_violation = 0.0;
  double makespan = 0.0;
  /// Shut-down analysis: component powered during this mode?
  std::vector<bool> pe_active;
  std::vector<bool> cl_active;
  bool routable = true;

  // Power-model breakdown (power/power_model.hpp). All four stay 0 under
  // the reference `paper` backend — the report's power-model detail block
  // renders only when one is set, keeping paper reports byte-identical.
  /// Σ static power of the active components (the paper's value), watts.
  double baseline_static_power = 0.0;
  /// DPM: gross idle energy recovered by sleep states, joules/period.
  double idle_energy_saved = 0.0;
  /// DPM: wake-up energy charged against those savings, joules/period.
  double wake_energy = 0.0;
  /// Thermal: converged operating temperature, °C (0 when not modelled).
  double temperature = 0.0;

  /// Schedule retained when PipelineOptions::keep_schedules.
  std::optional<ModeSchedule> schedule;
};

}  // namespace mmsyn
