#include "power/power_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/allocation_builder.hpp"
#include "core/genome.hpp"
#include "energy/artifact_hash.hpp"
#include "energy/evaluator.hpp"
#include "power/backends.hpp"
#include "power/dpm_idle_model.hpp"
#include "power/thermal_model.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

// ---------------------------------------------------------------------------
// Registry.

TEST(PowerBackends, PaperIsTheFirstRegisteredBackend) {
  ASSERT_FALSE(power_backends().empty());
  EXPECT_STREQ(power_backends().front().name, "paper");
  EXPECT_TRUE(power_backends().front().model->is_reference_model());
}

TEST(PowerBackends, EveryRegisteredNameResolvesToItsInstance) {
  for (const PowerBackendInfo& info : power_backends()) {
    const PowerModel* model = resolve_power_backend(info.name);
    EXPECT_EQ(model, info.model) << info.name;
    EXPECT_STREQ(model->name(), info.name);
    EXPECT_STREQ(power_backend_name(model), info.name);
  }
}

TEST(PowerBackends, NullModelMeansPaper) {
  EXPECT_STREQ(power_backend_name(nullptr), "paper");
}

TEST(PowerBackends, UnknownNameThrowsWithActionableMessage) {
  try {
    (void)resolve_power_backend("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("paper"), std::string::npos);
    EXPECT_NE(what.find("--power"), std::string::npos);
  }
}

TEST(PowerBackends, OnlyPaperIsAReferenceModel) {
  for (const PowerBackendInfo& info : power_backends())
    EXPECT_EQ(info.model->is_reference_model(),
              std::string(info.name) == "paper")
        << info.name;
}

TEST(PowerBackends, NonReferenceFingerprintsAreDistinctAndNonZero) {
  const PowerModel* thermal = resolve_power_backend("thermal");
  const PowerModel* dpm = resolve_power_backend("dpm-idle");
  EXPECT_NE(thermal->fingerprint(), 0u);
  EXPECT_NE(dpm->fingerprint(), 0u);
  EXPECT_NE(thermal->fingerprint(), dpm->fingerprint());
}

TEST(PowerBackends, FingerprintCoversTheKnobs) {
  ThermalOptions hot;
  hot.thermal_resistance = 120.0;
  EXPECT_NE(ThermalPowerModel{}.fingerprint(),
            ThermalPowerModel{hot}.fingerprint());
  DpmIdleOptions lazy;
  lazy.break_even_seconds = 0.5;
  EXPECT_NE(DpmIdlePowerModel{}.fingerprint(),
            DpmIdlePowerModel{lazy}.fingerprint());
}

// ---------------------------------------------------------------------------
// Backend physics on a hand-built context.

/// One-PE architecture with the given static power.
Architecture one_pe_arch(double static_power) {
  Architecture arch;
  Pe pe;
  pe.name = "P";
  pe.static_power = static_power;
  arch.add_pe(pe);
  return arch;
}

TEST(PaperModel, MatchesBaselineStaticPowerExactly) {
  const Architecture arch = one_pe_arch(0.125);
  const std::vector<bool> pe_active{true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy;
  const ModePowerContext ctx{arch, 1.0, 0.05, pe_active, cl_active, pe_busy};
  const ModePowerResult r = PaperPowerModel{}.mode_power(ctx);
  EXPECT_DOUBLE_EQ(r.static_power,
                   baseline_static_power(arch, pe_active, cl_active));
  // Reference breakdown stays all-zero (report byte-identity contract).
  EXPECT_EQ(r.baseline_static_power, 0.0);
  EXPECT_EQ(r.idle_energy_saved, 0.0);
  EXPECT_EQ(r.wake_energy, 0.0);
  EXPECT_EQ(r.temperature, 0.0);
}

TEST(ThermalModel, ConvergesToTheClosedFormFixedPoint) {
  // With T_amb == T_ref the fixed point is linear:
  //   ΔT = R_th (p_dyn + p_base) / (1 − R_th p_base k)
  //   p_stat = p_base (1 + k ΔT)
  const double p_base = 0.1, p_dyn = 0.0;
  const Architecture arch = one_pe_arch(p_base);
  const std::vector<bool> pe_active{true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy;
  const ModePowerContext ctx{arch, 1.0, p_dyn, pe_active, cl_active, pe_busy};

  const ThermalOptions o;  // defaults: 25 C, 75 K/W, k = 0.03/K
  const ModePowerResult r = ThermalPowerModel{}.mode_power(ctx);
  const double dt = o.thermal_resistance * (p_dyn + p_base) /
                    (1.0 - o.thermal_resistance * p_base *
                               o.leakage_temp_coefficient);
  EXPECT_NEAR(r.temperature, o.ambient_celsius + dt, 1e-6);
  EXPECT_NEAR(r.static_power,
              p_base * (1.0 + o.leakage_temp_coefficient * dt), 1e-9);
  EXPECT_DOUBLE_EQ(r.baseline_static_power, p_base);
  // Leakage factor is >= 1 when ambient == reference.
  EXPECT_GE(r.static_power, r.baseline_static_power);
  EXPECT_GE(r.temperature, o.ambient_celsius);
}

TEST(ThermalModel, DynamicPowerHeatsTheLeakage) {
  const Architecture arch = one_pe_arch(0.1);
  const std::vector<bool> pe_active{true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy;
  const ModePowerContext cold{arch, 1.0, 0.0, pe_active, cl_active, pe_busy};
  const ModePowerContext hot{arch, 1.0, 0.5, pe_active, cl_active, pe_busy};
  const ThermalPowerModel model;
  EXPECT_GT(model.mode_power(hot).temperature,
            model.mode_power(cold).temperature);
  EXPECT_GT(model.mode_power(hot).static_power,
            model.mode_power(cold).static_power);
}

TEST(ThermalModel, IterationCapIsDeterministic) {
  // Non-contractive input (R_th p_base k > 1): the loop must stop at the
  // cap and produce the same value on every call.
  ThermalOptions o;
  o.max_iterations = 7;
  const Architecture arch = one_pe_arch(1.0);  // 75 * 1.0 * 0.03 = 2.25 > 1
  const std::vector<bool> pe_active{true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy;
  const ModePowerContext ctx{arch, 1.0, 0.0, pe_active, cl_active, pe_busy};
  const ThermalPowerModel model(o);
  const ModePowerResult a = model.mode_power(ctx);
  const ModePowerResult b = model.mode_power(ctx);
  EXPECT_DOUBLE_EQ(a.temperature, b.temperature);
  EXPECT_DOUBLE_EQ(a.static_power, b.static_power);
  EXPECT_TRUE(std::isfinite(a.temperature));
}

/// Two-PE architecture for the DPM cases: PE0 mostly idle, PE1 busy.
Architecture two_pe_arch(double s0, double s1) {
  Architecture arch;
  Pe a;
  a.name = "P0";
  a.static_power = s0;
  Pe b;
  b.name = "P1";
  b.static_power = s1;
  arch.add_pe(a);
  arch.add_pe(b);
  return arch;
}

TEST(DpmIdleModel, GoldenSleepArithmetic) {
  const DpmIdleOptions o;  // frac 0.05, break-even 1e-4 s, wake 2e-4 J/W
  const Architecture arch = two_pe_arch(0.3, 0.4);
  const std::vector<bool> pe_active{true, true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy{0.2, 1.0};  // PE0 idle 0.8 s, PE1 idle 0
  const ModePowerContext ctx{arch, 1.0, 0.0, pe_active, cl_active, pe_busy};
  const ModePowerResult r = DpmIdlePowerModel{}.mode_power(ctx);

  const double gross0 = 0.8 * 0.3 * (1.0 - o.sleep_power_fraction);
  const double wake0 = 0.3 * o.wake_energy_per_watt;
  EXPECT_DOUBLE_EQ(r.baseline_static_power, 0.7);
  EXPECT_DOUBLE_EQ(r.idle_energy_saved, gross0);  // PE1 never sleeps
  EXPECT_DOUBLE_EQ(r.wake_energy, wake0);
  EXPECT_DOUBLE_EQ(r.static_power, 0.7 - (gross0 - wake0) / 1.0);
  // Net savings are positive by the take-iff rule.
  EXPECT_LT(r.static_power, r.baseline_static_power);
}

TEST(DpmIdleModel, IdleBelowBreakEvenIsNotWorthSleeping) {
  DpmIdleOptions o;
  o.break_even_seconds = 0.5;
  const Architecture arch = two_pe_arch(0.3, 0.4);
  const std::vector<bool> pe_active{true, true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy{0.6, 0.7};  // idle 0.4 / 0.3 < 0.5
  const ModePowerContext ctx{arch, 1.0, 0.0, pe_active, cl_active, pe_busy};
  const ModePowerResult r = DpmIdlePowerModel{o}.mode_power(ctx);
  EXPECT_DOUBLE_EQ(r.static_power, r.baseline_static_power);
  EXPECT_EQ(r.idle_energy_saved, 0.0);
  EXPECT_EQ(r.wake_energy, 0.0);
}

TEST(DpmIdleModel, ShutDownPesAreSkipped) {
  const Architecture arch = two_pe_arch(0.3, 0.4);
  const std::vector<bool> pe_active{false, true};  // PE0 already powered off
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy{0.0, 1.0};
  const ModePowerContext ctx{arch, 1.0, 0.0, pe_active, cl_active, pe_busy};
  const ModePowerResult r = DpmIdlePowerModel{}.mode_power(ctx);
  // PE0 contributes neither baseline static power nor sleep savings.
  EXPECT_DOUBLE_EQ(r.baseline_static_power, 0.4);
  EXPECT_EQ(r.idle_energy_saved, 0.0);
  EXPECT_DOUBLE_EQ(r.static_power, 0.4);
}

TEST(DpmIdleModel, NonPositivePeriodFallsBackToBaseline) {
  const Architecture arch = two_pe_arch(0.3, 0.4);
  const std::vector<bool> pe_active{true, true};
  const std::vector<bool> cl_active;
  const std::vector<double> pe_busy;  // legitimately absent: early return
  const ModePowerContext ctx{arch, 0.0, 0.0, pe_active, cl_active, pe_busy};
  const ModePowerResult r = DpmIdlePowerModel{}.mode_power(ctx);
  EXPECT_DOUBLE_EQ(r.static_power, 0.7);
  EXPECT_EQ(r.idle_energy_saved, 0.0);
}

TEST(DpmIdleModel, DvsIdlePenaltyChargesOnlySleepingPes) {
  const DpmIdleOptions o;
  const Architecture arch = two_pe_arch(0.3, 0.4);
  const std::vector<double> nominal_busy{0.2, 1.0};
  const std::vector<double> penalty =
      DpmIdlePowerModel{}.dvs_idle_penalty(arch, 1.0, nominal_busy);
  ASSERT_EQ(penalty.size(), 2u);
  // PE0 would sleep: marginal saving rate p_stat (1 − sleep fraction).
  EXPECT_DOUBLE_EQ(penalty[0], 0.3 * (1.0 - o.sleep_power_fraction));
  // PE1 has no idle, takes no sleep, charges nothing.
  EXPECT_DOUBLE_EQ(penalty[1], 0.0);
}

TEST(DpmIdleModel, PaperBackendHasNoIdlePenalty) {
  const Architecture arch = two_pe_arch(0.3, 0.4);
  EXPECT_TRUE(PaperPowerModel{}
                  .dvs_idle_penalty(arch, 1.0, {0.2, 1.0})
                  .empty());
}

// ---------------------------------------------------------------------------
// Evaluator integration: fingerprints and full-evaluation identities.

Evaluation evaluate_with(const System& system, const PowerModel* power,
                         std::uint64_t seed) {
  const GenomeCodec codec(system);
  Rng rng(seed);
  const MultiModeMapping mapping = codec.decode(codec.random_genome(rng));
  EvaluationOptions options;
  options.power = power;
  const Evaluator evaluator(system, options);
  return evaluator.evaluate(mapping, build_core_allocation(system, mapping));
}

TEST(PowerEvaluator, NullAndPaperShareTheReferenceFingerprint) {
  const System system = make_mul(9);
  EvaluationOptions null_opts;
  EvaluationOptions paper_opts;
  paper_opts.power = resolve_power_backend("paper");
  const Evaluator null_eval(system, null_opts);
  const Evaluator paper_eval(system, paper_opts);
  // The reference model contributes nothing: pre-registry cache keys,
  // checkpoints and GA state fingerprints carry over unchanged.
  EXPECT_EQ(null_eval.options_fingerprint(), paper_eval.options_fingerprint());
}

TEST(PowerEvaluator, NonReferenceBackendsChangeOnlyTheEvalFingerprint) {
  const System system = make_mul(9);
  EvaluationOptions paper_opts;
  EvaluationOptions thermal_opts;
  thermal_opts.power = resolve_power_backend("thermal");
  EvaluationOptions dpm_opts;
  dpm_opts.power = resolve_power_backend("dpm-idle");
  const Evaluator paper(system, paper_opts);
  const Evaluator thermal(system, thermal_opts);
  const Evaluator dpm(system, dpm_opts);

  // Cache keys must separate per backend.
  EXPECT_NE(thermal.options_fingerprint(), paper.options_fingerprint());
  EXPECT_NE(dpm.options_fingerprint(), paper.options_fingerprint());
  EXPECT_NE(thermal.options_fingerprint(), dpm.options_fingerprint());
}

TEST(PowerEvaluator, PaperBackendIsBitIdenticalToNull) {
  const System system = make_mul(9);
  const Evaluation a = evaluate_with(system, nullptr, 7);
  const Evaluation b =
      evaluate_with(system, resolve_power_backend("paper"), 7);
  ASSERT_EQ(a.modes.size(), b.modes.size());
  for (std::size_t m = 0; m < a.modes.size(); ++m)
    EXPECT_TRUE(equal_mode_evaluations(a.modes[m], b.modes[m])) << m;
  EXPECT_EQ(a.avg_power_true, b.avg_power_true);
  EXPECT_EQ(a.avg_power_weighted, b.avg_power_weighted);
}

TEST(PowerEvaluator, ThermalNeverUndercutsAndDpmNeverExceedsPaper) {
  const System system = make_mul(9);
  const Evaluation paper = evaluate_with(system, nullptr, 11);
  const Evaluation thermal =
      evaluate_with(system, resolve_power_backend("thermal"), 11);
  const Evaluation dpm =
      evaluate_with(system, resolve_power_backend("dpm-idle"), 11);
  ASSERT_EQ(thermal.modes.size(), paper.modes.size());
  ASSERT_EQ(dpm.modes.size(), paper.modes.size());
  for (std::size_t m = 0; m < paper.modes.size(); ++m) {
    // Both backends report the paper value as their baseline, bitwise.
    EXPECT_EQ(thermal.modes[m].baseline_static_power,
              paper.modes[m].static_power)
        << m;
    EXPECT_EQ(dpm.modes[m].baseline_static_power, paper.modes[m].static_power)
        << m;
    EXPECT_GE(thermal.modes[m].static_power, paper.modes[m].static_power) << m;
    EXPECT_LE(dpm.modes[m].static_power, paper.modes[m].static_power) << m;
  }
  EXPECT_GE(thermal.avg_power_true, paper.avg_power_true);
  EXPECT_LE(dpm.avg_power_true, paper.avg_power_true);
}

}  // namespace
}  // namespace mmsyn
