#include "energy/artifact_hash.hpp"

#include "common/checksum.hpp"

namespace mmsyn {

std::uint64_t mode_evaluation_digest(const ModeEvaluation& m) {
  Fnv1a64 h;
  h.add(m.dyn_energy);
  h.add(m.dyn_power);
  h.add(m.static_power);
  h.add(m.timing_violation);
  h.add(m.makespan);
  h.add(static_cast<std::uint64_t>(m.pe_active.size()));
  for (bool b : m.pe_active) h.add(b);
  h.add(static_cast<std::uint64_t>(m.cl_active.size()));
  for (bool b : m.cl_active) h.add(b);
  h.add(m.routable);
  h.add(m.baseline_static_power);
  h.add(m.idle_energy_saved);
  h.add(m.wake_energy);
  h.add(m.temperature);
  return h.digest();
}

bool equal_mode_evaluations(const ModeEvaluation& a, const ModeEvaluation& b) {
  return a.dyn_energy == b.dyn_energy && a.dyn_power == b.dyn_power &&
         a.static_power == b.static_power &&
         a.timing_violation == b.timing_violation &&
         a.makespan == b.makespan && a.pe_active == b.pe_active &&
         a.cl_active == b.cl_active && a.routable == b.routable &&
         a.baseline_static_power == b.baseline_static_power &&
         a.idle_energy_saved == b.idle_energy_saved &&
         a.wake_energy == b.wake_energy && a.temperature == b.temperature;
}

bool equal_mode_schedules(const ModeSchedule& a, const ModeSchedule& b) {
  if (a.tasks.size() != b.tasks.size() || a.comms.size() != b.comms.size() ||
      a.makespan != b.makespan || a.routable != b.routable)
    return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const ScheduledTask& x = a.tasks[i];
    const ScheduledTask& y = b.tasks[i];
    if (x.task != y.task || x.pe != y.pe ||
        x.core_instance != y.core_instance || x.start != y.start ||
        x.finish != y.finish)
      return false;
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    const ScheduledComm& x = a.comms[i];
    const ScheduledComm& y = b.comms[i];
    if (x.edge != y.edge || x.cl != y.cl || x.local != y.local ||
        x.start != y.start || x.finish != y.finish)
      return false;
  }
  return true;
}

}  // namespace mmsyn
