#include "core/report.hpp"

#include <cstdarg>
#include <cstdio>
#include <sstream>

#include "dvs/dvs_graph.hpp"
#include "dvs/voltage_schedule.hpp"
#include "model/system.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"

namespace mmsyn {
namespace {

void append_line(std::ostringstream& os, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof buffer, format, args);
  va_end(args);
  os << buffer << '\n';
}

}  // namespace

std::string implementation_report(const System& system,
                                  const SynthesisResult& result,
                                  const ReportOptions& options) {
  std::ostringstream os;
  const Evaluation& eval = result.evaluation;

  append_line(os, "Implementation report: %s", system.name.c_str());
  if (options.include_timing)
    append_line(os,
                "  average power %.4f mW | feasible=%s | %d generations, %ld "
                "evaluations, %.2f s",
                eval.avg_power_true * 1e3, eval.feasible() ? "yes" : "NO",
                result.generations, result.evaluations,
                result.elapsed_seconds);
  else
    append_line(os,
                "  average power %.4f mW | feasible=%s | %d generations, %ld "
                "evaluations",
                eval.avg_power_true * 1e3, eval.feasible() ? "yes" : "NO",
                result.generations, result.evaluations);
  if (result.partial)
    append_line(os,
                "  PARTIAL RESULT: the run was stopped early (cancellation "
                "or time budget) before convergence");
  if (result.cache_lookups > 0)
    append_line(os, "  fitness memo: %ld/%ld hits (%.1f%% hit rate)",
                result.cache_hits, result.cache_lookups,
                100.0 * static_cast<double>(result.cache_hits) /
                    static_cast<double>(result.cache_lookups));

  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    const ModeId mode_id{static_cast<ModeId::value_type>(m)};
    const Mode& mode = system.omsm.mode(mode_id);
    const ModeEvaluation& me = eval.modes[m];
    append_line(os,
                "mode '%s': Psi=%.3f period=%.3f ms | dyn %.4f mW + static "
                "%.4f mW | makespan %.3f ms%s",
                mode.name.c_str(), mode.probability, mode.period * 1e3,
                me.dyn_power * 1e3, me.static_power * 1e3, me.makespan * 1e3,
                me.timing_violation > 0 ? " | TIMING VIOLATION" : "");

    // Power-model breakdown. The `paper` backend leaves
    // baseline_static_power at exactly 0, so this block never renders for
    // it and paper reports stay byte-identical to pre-registry ones.
    if (me.baseline_static_power != 0.0) {
      if (me.temperature != 0.0)
        append_line(os,
                    "  power model: baseline static %.4f mW | T=%.2f C "
                    "(thermal leakage)",
                    me.baseline_static_power * 1e3, me.temperature);
      else
        append_line(os,
                    "  power model: baseline static %.4f mW | idle saved "
                    "%.4f mJ - wake %.4f mJ per period (dpm)",
                    me.baseline_static_power * 1e3,
                    me.idle_energy_saved * 1e3, me.wake_energy * 1e3);
    }

    // Task mapping M_τ.
    os << "  mapping:";
    for (std::size_t t = 0; t < mode.graph.task_count(); ++t) {
      if (t % 6 == 0) os << "\n    ";
      const TaskId id{static_cast<TaskId::value_type>(t)};
      os << mode.graph.task(id).name << "->"
         << system.arch.pe(result.mapping.modes[m].task_to_pe[t]).name
         << "  ";
    }
    os << "\n";

    // Core allocation.
    for (PeId p : system.arch.pe_ids()) {
      const CoreSet& cores = result.cores.cores(mode_id, p);
      if (cores.empty()) continue;
      os << "  cores on " << system.arch.pe(p).name << ":";
      for (const auto& [type, count] : cores.entries())
        os << " " << system.tech.type_name(type) << "x" << count;
      os << "\n";
    }

    // Shut-down analysis.
    os << "  powered:";
    for (std::size_t p = 0; p < system.arch.pe_count(); ++p)
      if (me.pe_active[p])
        os << " " << system.arch.pe(PeId{static_cast<PeId::value_type>(p)}).name;
    for (std::size_t c = 0; c < system.arch.cl_count(); ++c)
      if (me.cl_active[c])
        os << " " << system.arch.cl(ClId{static_cast<ClId::value_type>(c)}).name;
    os << "\n";

    if (options.include_gantt && me.schedule) {
      GanttOptions gantt;
      gantt.width = options.gantt_width;
      os << render_gantt(mode, *me.schedule, result.mapping.modes[m],
                         system.arch, gantt);
    }
    if (options.include_voltage_schedules && me.schedule && me.routable) {
      const DvsGraph graph =
          build_dvs_graph(mode, *me.schedule, result.mapping.modes[m],
                          system.arch, system.tech);
      const PvDvsResult dvs = run_pv_dvs(graph, system.arch);
      os << "  voltage schedule (nominal " << dvs.nominal_energy * 1e3
         << " mJ -> " << dvs.total_energy * 1e3 << " mJ):\n";
      std::istringstream lines(
          derive_voltage_schedule(graph, dvs, system.arch)
              .to_string(system.arch));
      std::string line;
      while (std::getline(lines, line)) os << "    " << line << "\n";
    }
  }

  // Transition report.
  for (std::size_t t = 0; t < system.omsm.transition_count(); ++t) {
    if (eval.transition_times[t] <= 0.0) continue;
    const ModeTransition& tr = system.omsm.transition(
        TransitionId{static_cast<TransitionId::value_type>(t)});
    append_line(os, "transition %s -> %s: reconfiguration %.3f ms (limit %.3f ms)%s",
                system.omsm.mode(tr.from).name.c_str(),
                system.omsm.mode(tr.to).name.c_str(),
                eval.transition_times[t] * 1e3,
                tr.max_transition_time * 1e3,
                eval.transition_violations[t] > 0 ? " VIOLATED" : "");
  }
  return os.str();
}

}  // namespace mmsyn
