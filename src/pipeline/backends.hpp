// Registry of the pluggable pipeline backends.
//
// Two of the pipeline's stages are policy points: the list scheduler's
// task-selection priority (stage 1/2) and the voltage-scaling backend
// (stages 3/4 — PV-DVS, or the no-DVS nominal-voltage baseline). The
// registry maps stable backend names to their implementations so runs can
// select them on the command line (--scheduler=, --dvs=); the defaults
// pin the paper's reference behaviour. Resolution failures throw
// std::invalid_argument with the registered names spelled out, so a typo
// on an experiment script fails with an actionable message.
#pragma once

#include <string>
#include <vector>

#include "sched/list_scheduler.hpp"

namespace mmsyn {

/// One selectable list-scheduler priority backend.
struct SchedulerBackendInfo {
  const char* name;
  SchedulingPolicy policy;
  const char* summary;
};

/// One selectable DVS backend. `use_dvs == false` is the nominal-voltage
/// baseline: stages 3/4 skip graph construction and sum nominal energies.
struct DvsBackendInfo {
  const char* name;
  bool use_dvs;
  const char* summary;
};

/// Registered scheduler backends; the first entry is the default.
[[nodiscard]] const std::vector<SchedulerBackendInfo>& scheduler_backends();

/// Registered DVS backends; the first entry is the default.
[[nodiscard]] const std::vector<DvsBackendInfo>& dvs_backends();

/// Resolves a backend name; throws std::invalid_argument listing the
/// registered backends when `name` is unknown.
[[nodiscard]] SchedulingPolicy resolve_scheduler_backend(
    const std::string& name);
[[nodiscard]] bool resolve_dvs_backend(const std::string& name);

/// Stable name of a backend (inverse of the resolvers).
[[nodiscard]] const char* scheduler_backend_name(SchedulingPolicy policy);
[[nodiscard]] const char* dvs_backend_name(bool use_dvs);

/// Registered names as a comma-separated list, for help/error text.
[[nodiscard]] std::string scheduler_backend_list();
[[nodiscard]] std::string dvs_backend_list();

/// The names of any backend registry (scheduler, DVS or power), in
/// registry order — the choices of a command-line flag.
template <typename Registry>
[[nodiscard]] std::vector<std::string> backend_names(
    const Registry& backends) {
  std::vector<std::string> names;
  for (const auto& b : backends) names.emplace_back(b.name);
  return names;
}

}  // namespace mmsyn
