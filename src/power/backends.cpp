#include "power/backends.hpp"

#include <stdexcept>

#include "power/dpm_idle_model.hpp"
#include "power/power_model.hpp"
#include "power/thermal_model.hpp"

namespace mmsyn {
namespace {

const PaperPowerModel& paper_instance() {
  static const PaperPowerModel kModel;
  return kModel;
}

const ThermalPowerModel& thermal_instance() {
  static const ThermalPowerModel kModel;
  return kModel;
}

const DpmIdlePowerModel& dpm_idle_instance() {
  static const DpmIdlePowerModel kModel;
  return kModel;
}

}  // namespace

const std::vector<PowerBackendInfo>& power_backends() {
  static const std::vector<PowerBackendInfo> kBackends = {
      {"paper", &paper_instance(),
       "constant static power of the powered components (the paper's Eq. 1, "
       "pinned reference behaviour)"},
      {"thermal", &thermal_instance(),
       "temperature-dependent leakage via a fixed-point temperature/leakage "
       "iteration"},
      {"dpm-idle", &dpm_idle_instance(),
       "sleep states over per-PE idle intervals with break-even times and "
       "wake-up energy, co-optimised with DVS"},
  };
  return kBackends;
}

const PowerModel* resolve_power_backend(const std::string& name) {
  for (const PowerBackendInfo& info : power_backends())
    if (name == info.name) return info.model;
  throw std::invalid_argument(
      "unknown power backend '" + name + "': registered backends are " +
      power_backend_list() + ". Pick one with --power=<name>, or omit the "
      "flag for the default '" +
      power_backends().front().name + "'");
}

std::string power_backend_list() {
  std::string out;
  for (const PowerBackendInfo& info : power_backends()) {
    if (!out.empty()) out += ", ";
    out += info.name;
  }
  return out;
}

}  // namespace mmsyn
