// Registry of the pluggable power-model backends, mirroring
// pipeline/backends: stable names map to shared immutable model
// instances (default knobs), selectable with --power=; resolution
// failures throw std::invalid_argument listing the registered names.
// The first entry is the default (`paper`), which a null PowerModel* in
// any options struct also selects. Custom knob values bypass the
// registry — construct the model class directly and pass the pointer
// through the options structs.
#pragma once

#include <string>
#include <vector>

namespace mmsyn {

class PowerModel;

/// One selectable power-model backend.
struct PowerBackendInfo {
  const char* name;
  const PowerModel* model;  ///< shared immutable instance, default knobs
  const char* summary;
};

/// Registered power backends; the first entry is the default (`paper`).
[[nodiscard]] const std::vector<PowerBackendInfo>& power_backends();

/// Resolves a backend name to its shared instance; throws
/// std::invalid_argument listing the registered backends when `name` is
/// unknown. The returned pointer is valid for the program's lifetime.
[[nodiscard]] const PowerModel* resolve_power_backend(const std::string& name);

/// Registered names as a comma-separated list, for help/error text.
[[nodiscard]] std::string power_backend_list();

}  // namespace mmsyn
