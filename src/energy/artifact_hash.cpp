#include "energy/artifact_hash.hpp"

#include <tuple>

#include "common/checksum.hpp"

namespace mmsyn {

namespace {

void add_field(Fnv1a64& h, double v) { h.add(v); }
void add_field(Fnv1a64& h, bool v) { h.add(v); }
void add_field(Fnv1a64& h, const std::vector<bool>& flags) {
  h.add(static_cast<std::uint64_t>(flags.size()));
  for (bool b : flags) h.add(b);
}

}  // namespace

std::uint64_t mode_evaluation_digest(const ModeEvaluation& m) {
  Fnv1a64 h;
  std::apply([&h](const auto&... f) { (add_field(h, f), ...); },
             ModeEvaluation::fields(m));
  return h.digest();
}

bool equal_mode_evaluations(const ModeEvaluation& a, const ModeEvaluation& b) {
  return ModeEvaluation::fields(a) == ModeEvaluation::fields(b);
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
