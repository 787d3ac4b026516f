#include "pipeline/mode_pipeline.hpp"

#include <utility>

#include "common/checksum.hpp"
#include "dvs/dvs_graph.hpp"
#include "model/architecture.hpp"
#include "model/omsm.hpp"
#include "model/system.hpp"
#include "model/tech_library.hpp"
#include "power/power_model.hpp"
#include "sched/validate.hpp"

namespace mmsyn {
namespace {

/// True when the pipeline runs the pinned reference power path (the
/// original inline static-power loop): no model, or the `paper` model.
bool reference_power(const PowerModel* power) {
  return power == nullptr || power->is_reference_model();
}

}  // namespace
}  // namespace mmsyn

namespace mmsyn {

ModePipeline::ModePipeline(const System& system, PipelineOptions options)
    : system_(system), options_(options) {
  // Full per-mode inputs. The field sequence is the pre-pipeline
  // evaluator's options fingerprint, kept stable so cache keys and GA
  // state fingerprints carry over unchanged.
  Fnv1a64 h;
  h.add(options_.use_dvs)
      .add(static_cast<int>(options_.scheduling_policy))
      .add(options_.dvs.max_iterations_per_node)
      .add(options_.dvs.step_fraction)
      .add(options_.dvs.min_relative_gain)
      .add(options_.dvs.discrete_voltages)
      .add(options_.dvs.scale_hardware);
  // The reference power model contributes nothing (a null pointer and an
  // explicit `paper` hash identically, and pre-power-registry keys carry
  // over); any other backend folds its identity + knobs in, so e.g. a
  // thermal result can never be served from a paper cache entry.
  if (!reference_power(options_.power)) h.add(options_.power->fingerprint());
  evaluation_fingerprint_ = h.digest();
}

CommMapping ModePipeline::comm_mapping(
    std::size_t m, const ModeMapping& mapping,
    const std::vector<CoreSet>& hw_cores) const {
  const StageTimer timer(options_.profiler, PipelineStage::kCommMapping);
  const Mode& mode = system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
  const ListSchedulerInput input{mode,          mapping,
                                 system_.arch,  system_.tech,
                                 hw_cores,      options_.scheduling_policy};
  return CommMapping{scheduling_priorities(input)};
}

ModeSchedule ModePipeline::schedule(std::size_t m, const ModeMapping& mapping,
                                    const std::vector<CoreSet>& hw_cores,
                                    const CommMapping& comm) const {
  const StageTimer timer(options_.profiler, PipelineStage::kSchedule);
  const Mode& mode = system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
  const ListSchedulerInput input{mode,          mapping,
                                 system_.arch,  system_.tech,
                                 hw_cores,      options_.scheduling_policy};
  return list_schedule(input, comm.priority);
}

SerializedSchedule ModePipeline::serialize(std::size_t m,
                                           const ModeMapping& mapping,
                                           const ModeSchedule& schedule) const {
  const StageTimer timer(options_.profiler, PipelineStage::kSerialize);
  SerializedSchedule out;
  if (!options_.use_dvs) return out;  // nominal backend: no graph needed
  const Mode& mode = system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
  out.graph = build_dvs_graph(mode, schedule, mapping, system_.arch,
                              system_.tech, options_.dvs.scale_hardware);
  out.has_graph = true;
  return out;
}

ScaledSchedule ModePipeline::scale(std::size_t m, const ModeMapping& mapping,
                                   const ModeSchedule& schedule,
                                   const SerializedSchedule& serialized) const {
  const StageTimer timer(options_.profiler, PipelineStage::kScale);
  const Mode& mode = system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
  ScaledSchedule out;
  // Per-PE busy accounting is only materialised for power models that
  // declare they read it (dpm-idle); the reference path and the thermal
  // model skip it entirely, leaving the hot loop untouched.
  const bool want_busy = !reference_power(options_.power) &&
                         options_.power->needs_pe_busy();
  if (options_.use_dvs) {
    const DvsGraph& g = serialized.graph;
    std::vector<double> penalty;
    if (want_busy) {
      // Linearisation point of the DVS/shut-down co-optimisation: busy
      // time at nominal (pre-scaling) durations. Segment nodes cover the
      // merged busy intervals of DVS hardware PEs exactly; task nodes
      // cover the rest (summed durations — exact for sequential
      // resources, conservative for parallel non-DVS hardware cores).
      std::vector<double> nominal_busy(system_.arch.pe_count(), 0.0);
      for (std::size_t i = 0; i < g.node_count(); ++i)
        if (static_cast<DvsNodeKind>(g.kind[i]) != DvsNodeKind::kComm &&
            g.pe[i] >= 0)
          nominal_busy[static_cast<std::size_t>(g.pe[i])] += g.tmin[i];
      penalty = options_.power->dvs_idle_penalty(system_.arch, mode.period,
                                                 nominal_busy);
    }
    PvDvsResult dvs = run_pv_dvs(g, system_.arch, options_.dvs,
                                 penalty.empty() ? nullptr : &penalty);
    out.dyn_energy = dvs.total_energy;
    if (want_busy) {
      out.pe_busy.assign(system_.arch.pe_count(), 0.0);
      for (std::size_t i = 0; i < g.node_count(); ++i)
        if (static_cast<DvsNodeKind>(g.kind[i]) != DvsNodeKind::kComm &&
            g.pe[i] >= 0)
          out.pe_busy[static_cast<std::size_t>(g.pe[i])] +=
              dvs.scaled_time[i];
    }
    out.dvs = std::move(dvs);
    return out;
  }
  // Nominal-voltage baseline: task energies in task order, then transfer
  // energies in comm order (the accumulation order is part of the
  // bit-identity contract).
  for (std::size_t t = 0; t < mode.graph.task_count(); ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    out.dyn_energy += system_.tech
                          .require(mode.graph.task(id).type,
                                   mapping.task_to_pe[t])
                          .energy();
  }
  for (const ScheduledComm& c : schedule.comms)
    if (!c.local && c.cl.valid())
      out.dyn_energy += system_.arch.cl(c.cl).transfer_power * c.duration();
  if (want_busy) {
    out.pe_busy.assign(system_.arch.pe_count(), 0.0);
    for (const ScheduledTask& st : schedule.tasks)
      out.pe_busy[st.pe.index()] += st.duration();
  }
  return out;
}

ModeEvaluation ModePipeline::finalize(std::size_t m, const ModeMapping& mapping,
                                      const ScaledSchedule& scaled,
                                      ModeSchedule schedule) const {
  const StageTimer timer(options_.profiler, PipelineStage::kFinalize);
  const Mode& mode = system_.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
  const Architecture& arch = system_.arch;

  ModeEvaluation me;
  me.makespan = schedule.makespan;
  me.routable = schedule.routable;

  // Timing penalty: finish within min(deadline, period). One shared
  // definition with the validator and the auditor (sched/validate.hpp).
  me.timing_violation = schedule_timing_violation(mode, schedule);

  me.dyn_energy = scaled.dyn_energy;
  me.dyn_power = me.dyn_energy / mode.period;

  // Shut-down analysis and static power (Fig. 4 lines 07/13).
  me.pe_active.assign(arch.pe_count(), false);
  me.cl_active.assign(arch.cl_count(), false);
  for (PeId pe : mapping.task_to_pe) me.pe_active[pe.index()] = true;
  for (const ScheduledComm& c : schedule.comms)
    if (!c.local && c.cl.valid()) me.cl_active[c.cl.index()] = true;
  if (reference_power(options_.power)) {
    // Pinned reference path: the original inline accumulation, kept
    // verbatim so `--power=paper` (and no flag at all) stays bit-identical
    // to the pre-registry pipeline.
    for (std::size_t p = 0; p < arch.pe_count(); ++p)
      if (me.pe_active[p])
        me.static_power +=
            arch.pe(PeId{static_cast<PeId::value_type>(p)}).static_power;
    for (std::size_t c = 0; c < arch.cl_count(); ++c)
      if (me.cl_active[c])
        me.static_power +=
            arch.cl(ClId{static_cast<ClId::value_type>(c)}).static_power;
  } else {
    const ModePowerContext ctx{arch,         mode.period,  me.dyn_power,
                               me.pe_active, me.cl_active, scaled.pe_busy};
    const ModePowerResult pr = options_.power->mode_power(ctx);
    me.static_power = pr.static_power;
    me.baseline_static_power = pr.baseline_static_power;
    me.idle_energy_saved = pr.idle_energy_saved;
    me.wake_energy = pr.wake_energy;
    me.temperature = pr.temperature;
  }

  if (options_.keep_schedules) me.schedule = std::move(schedule);
  return me;
}

ModeSchedule ModePipeline::build_schedule(
    std::size_t m, const ModeMapping& mapping,
    const std::vector<CoreSet>& hw_cores) const {
  return schedule(m, mapping, hw_cores, comm_mapping(m, mapping, hw_cores));
}

ModeEvaluation ModePipeline::evaluate_scheduled(std::size_t m,
                                                const ModeMapping& mapping,
                                                ModeSchedule schedule) const {
  const SerializedSchedule serialized = serialize(m, mapping, schedule);
  const ScaledSchedule scaled = scale(m, mapping, schedule, serialized);
  return finalize(m, mapping, scaled, std::move(schedule));
}

ModeEvaluation ModePipeline::run(std::size_t m, const ModeMapping& mapping,
                                 const std::vector<CoreSet>& hw_cores) const {
  return evaluate_scheduled(m, mapping, build_schedule(m, mapping, hw_cores));
}

}  // namespace mmsyn
