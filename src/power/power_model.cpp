#include "power/power_model.hpp"

#include "common/checksum.hpp"
#include "pipeline/artifacts.hpp"

namespace mmsyn {

double baseline_static_power(const Architecture& arch,
                             const std::vector<bool>& pe_active,
                             const std::vector<bool>& cl_active) {
  // PEs in ascending index order, then CLs (bit-identity contract).
  double total = 0.0;
  for (std::size_t p = 0; p < arch.pe_count(); ++p)
    if (pe_active[p])
      total += arch.pe(PeId{static_cast<PeId::value_type>(p)}).static_power;
  for (std::size_t c = 0; c < arch.cl_count(); ++c)
    if (cl_active[c])
      total += arch.cl(ClId{static_cast<ClId::value_type>(c)}).static_power;
  return total;
}

double mode_total_power(const ModeEvaluation& mode) {
  return mode.dyn_power + mode.static_power;
}

std::uint64_t PaperPowerModel::fingerprint() const {
  // No knobs: the identity alone.
  return Fnv1a64{}.add_bytes("paper", 5).digest();
}

ModePowerResult PaperPowerModel::mode_power(
    const ModePowerContext& context) const {
  ModePowerResult result;
  result.static_power = baseline_static_power(context.arch, context.pe_active,
                                              context.cl_active);
  // Breakdown fields stay 0: the paper's model has nothing to report
  // beyond Eq. 1, and all-zero breakdowns keep reports byte-identical.
  return result;
}

}  // namespace mmsyn
