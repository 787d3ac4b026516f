// Pluggable power-model backends for Eq. (1)'s static-power term.
//
// The paper prices a mode's power as p̄_dyn + p̄_stat with p̄_stat the sum
// of the static powers of the components left powered by the shut-down
// analysis. That physics is one *backend* here: a PowerModel maps the
// per-mode pipeline's artifacts (activity set, per-PE busy time, average
// dynamic power) to the effective static power entering Eq. 1, plus an
// accounting breakdown (baseline static, DPM idle savings, wake energy,
// operating temperature) carried on the ModeEvaluation.
//
// Contract (DESIGN.md §16):
//  - mode_power is a *pure function* of its context and the model's own
//    knobs — no globals, no RNG, no time — so the auditor's stage replay
//    and the mode cache reproduce it bit-for-bit.
//  - Every backend, `paper` included, runs through mode_power, and its
//    fingerprint() is folded into the evaluation fingerprint (never the
//    schedule fingerprint — power is a stage-3..5 concern), so e.g. a
//    thermal result can never be served from a paper cache entry while
//    schedule artifacts stay shareable across power backends.
//  - A null PowerModel* in any options struct means `paper`: the
//    pipeline resolves it once, so null and an explicit `paper` price and
//    hash identically.
//  - `paper` leaves every breakdown field 0, so its reports carry no
//    power-model detail block.
#pragma once

#include <cstdint>
#include <vector>

#include "model/architecture.hpp"

namespace mmsyn {

/// Everything a backend may read about one evaluated mode. References
/// point at the caller's artifacts and are valid for the call only.
struct ModePowerContext {
  const Architecture& arch;
  /// Hyper-period of the mode, seconds.
  double period = 0.0;
  /// Average dynamic power of the mode (dyn_energy / period), watts.
  double dyn_power = 0.0;
  /// Shut-down analysis: component powered during this mode?
  const std::vector<bool>& pe_active;
  const std::vector<bool>& cl_active;
  /// Per-PE busy seconds within the hyper-period (post-DVS durations;
  /// empty unless the model declares needs_pe_busy()).
  const std::vector<double>& pe_busy;
};

/// A backend's verdict for one mode. `static_power` is the effective
/// value entering Eq. 1; the remaining fields are the reporting
/// breakdown. `paper` leaves every breakdown field 0 — the report renders
/// the power-model detail block only when one is set.
struct ModePowerResult {
  /// Effective static power entering Eq. 1, watts.
  double static_power = 0.0;
  /// Σ static power of the active components (the paper's value), watts.
  double baseline_static_power = 0.0;
  /// DPM: gross idle energy recovered by sleep states, joules/period.
  double idle_energy_saved = 0.0;
  /// DPM: wake-up energy charged against those savings, joules/period.
  double wake_energy = 0.0;
  /// Thermal: converged operating temperature, °C (0 when not modelled).
  double temperature = 0.0;
};

/// Interface of one power-model backend. Implementations must be
/// immutable after construction and safe to share across threads.
class PowerModel {
public:
  virtual ~PowerModel() = default;

  /// Stable registry name (see power/backends.hpp).
  [[nodiscard]] virtual const char* name() const = 0;

  /// FNV-1a over the backend identity and every knob that can change a
  /// result; folded into the evaluation fingerprint.
  [[nodiscard]] virtual std::uint64_t fingerprint() const = 0;

  /// Declare that mode_power reads ModePowerContext::pe_busy, so the
  /// pipeline's scale stage computes it (skipped otherwise — the hot
  /// path stays untouched for models that don't need it).
  [[nodiscard]] virtual bool needs_pe_busy() const { return false; }

  /// Static-power verdict for one mode. Pure; see the file contract.
  [[nodiscard]] virtual ModePowerResult mode_power(
      const ModePowerContext& context) const = 0;

  /// Per-PE idle-penalty rates (watts) for PV-DVS co-optimisation, or an
  /// empty vector for models with no idle interaction. The greedy DVS
  /// gradient subtracts penalty[pe] · Δt from a step's gain, so slack is
  /// only spent slowing a node down when the dynamic-energy saving beats
  /// the sleep savings that idle time would have bought. `nominal_pe_busy`
  /// is the per-PE busy time before any voltage scaling (the
  /// linearisation point of the co-optimisation).
  [[nodiscard]] virtual std::vector<double> dvs_idle_penalty(
      const Architecture& arch, double period,
      const std::vector<double>& nominal_pe_busy) const {
    (void)arch;
    (void)period;
    (void)nominal_pe_busy;
    return {};
  }
};

/// Σ static power of the active components, PEs in ascending index order
/// then CLs (the summation order is part of the bit-identity contract:
/// it fixes the floating-point result). Shared by every backend as the
/// baseline.
[[nodiscard]] double baseline_static_power(const Architecture& arch,
                                           const std::vector<bool>& pe_active,
                                           const std::vector<bool>& cl_active);

struct ModeEvaluation;

/// Total average power of one evaluated mode as Eq. 1 sees it
/// (dyn_power + the backend's effective static_power). One shared
/// definition for the evaluator's cross-mode aggregation and the usage
/// simulator, so both always price a mode through the same power model.
[[nodiscard]] double mode_total_power(const ModeEvaluation& mode);

/// The default backend: Eq. 1 exactly as the paper states it — the
/// static power of the components left on by the shut-down analysis.
class PaperPowerModel final : public PowerModel {
public:
  [[nodiscard]] const char* name() const override { return "paper"; }
  [[nodiscard]] std::uint64_t fingerprint() const override;
  [[nodiscard]] ModePowerResult mode_power(
      const ModePowerContext& context) const override;
};

}  // namespace mmsyn
