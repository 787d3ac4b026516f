// Power-model backend ablation on the smart-phone benchmark.
//
// Protocol: synthesize once under the pinned `paper` reference backend,
// freeze the champion implementation (mapping + cores), then re-price
// that fixed candidate under every registered power backend — so the
// columns differ only in the power model, never in the search. Two
// orderings are structural and asserted (exit nonzero on violation):
//
//   thermal  >= paper  in Psi-weighted static power (leakage factor >= 1
//                      when ambient == reference temperature), and
//   dpm-idle <= paper  (sleep states are only taken when net-positive).
//
// Additionally each non-reference backend runs its own full synthesis +
// invariant audit, demonstrating the registry end-to-end.
//
//   power_backends [--population 24] [--generations 30] [--seed 1]
//                  [--threads 1] [--dvs] [--json PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/allocation_builder.hpp"
#include "core/cosynth.hpp"
#include "energy/evaluator.hpp"
#include "pipeline/backends.hpp"
#include "power/backends.hpp"
#include "power/power_model.hpp"
#include "tgff/smart_phone.hpp"

using namespace mmsyn;

namespace {

struct BackendRow {
  std::string name;
  double avg_power_mw = 0.0;         // Eq. 1 with true Psi
  double weighted_static_mw = 0.0;   // Psi-weighted static power
  double idle_saved_mj = 0.0;        // DPM: sum over modes, per period
  double max_temperature_c = 0.0;    // thermal: hottest mode
  bool audited_ok = true;            // full synthesis + audit clean
};

/// Psi-weighted static power of a fixed-candidate evaluation.
double weighted_static(const System& system, const Evaluation& eval) {
  double total = 0.0;
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m)
    total += system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)})
                 .probability *
             eval.modes[m].static_power;
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_int("population", 24, "GA population size");
  flags.define_int("generations", 30, "GA generation cap");
  flags.define_int("seed", 1, "GA seed");
  flags.define_int("threads", 1, "fitness-evaluation threads");
  flags.define_bool("dvs", false, "apply PV-DVS voltage scaling");
  flags.define_string("json", "",
                      "write machine-readable results to this file");
  if (!flags.parse(argc, argv)) return 1;

  const System system = make_smart_phone();

  SynthesisOptions options;
  options.use_dvs = flags.get_bool("dvs");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.ga.population_size = static_cast<int>(flags.get_int("population"));
  options.ga.max_generations = static_cast<int>(flags.get_int("generations"));
  options.ga.num_threads = static_cast<int>(flags.get_int("threads"));

  // ---- Champion under the reference backend. ----------------------------
  options.power = resolve_power_backend("paper");
  const SynthesisResult champion = synthesize(system, options);
  std::fprintf(stderr, "champion synthesised (%s)\n",
               champion.evaluation.feasible() ? "feasible" : "infeasible");

  // ---- Fixed-candidate ablation across every registered backend. --------
  std::vector<BackendRow> rows;
  for (const PowerBackendInfo& backend : power_backends()) {
    EvaluationOptions eopts;
    eopts.use_dvs = options.use_dvs;
    eopts.dvs = options.dvs_final;
    eopts.scheduling_policy = options.scheduling_policy;
    eopts.power = backend.model;
    const Evaluator evaluator(system, eopts);
    const Evaluation eval =
        evaluator.evaluate(champion.mapping, champion.cores);

    BackendRow row;
    row.name = backend.name;
    row.avg_power_mw = eval.avg_power_true * 1e3;
    row.weighted_static_mw = weighted_static(system, eval) * 1e3;
    for (const ModeEvaluation& me : eval.modes) {
      row.idle_saved_mj += me.idle_energy_saved * 1e3;
      row.max_temperature_c = std::max(row.max_temperature_c, me.temperature);
    }

    // End-to-end leg: a full synthesis under this backend must come back
    // auditor-clean (the audit replays the same backend).
    SynthesisOptions sopts = options;
    sopts.power = backend.model;
    const SynthesisResult result = synthesize(system, sopts);
    const AuditReport audit =
        audit_result(system, result, audit_options_for(sopts));
    row.audited_ok = audit.passed();
    if (!audit.passed())
      std::fprintf(stderr, "audit FAILED for backend '%s':\n%s",
                   backend.name, audit.to_string().c_str());
    rows.push_back(row);
    std::fprintf(stderr, "done %s\n", backend.name);
  }

  // ---- Structural orderings. --------------------------------------------
  double paper_static = 0.0, thermal_static = 0.0, dpm_static = 0.0;
  bool all_audits_ok = true;
  for (const BackendRow& r : rows) {
    if (r.name == "paper") paper_static = r.weighted_static_mw;
    if (r.name == "thermal") thermal_static = r.weighted_static_mw;
    if (r.name == "dpm-idle") dpm_static = r.weighted_static_mw;
    all_audits_ok = all_audits_ok && r.audited_ok;
  }
  const bool thermal_ok = thermal_static >= paper_static * (1.0 - 1e-12);
  const bool dpm_ok = dpm_static <= paper_static * (1.0 + 1e-12);
  const bool ordering_ok = thermal_ok && dpm_ok;

  TextTable table;
  table.set_header({"Backend", "avg P(mW)", "Psi-static(mW)",
                    "idle saved(mJ)", "max T(C)", "audit"});
  for (const BackendRow& r : rows)
    table.add_row({r.name, TextTable::num(r.avg_power_mw, 4),
                   TextTable::num(r.weighted_static_mw, 6),
                   TextTable::num(r.idle_saved_mj, 6),
                   TextTable::num(r.max_temperature_c, 2),
                   r.audited_ok ? "ok" : "FAILED"});
  table.print(std::cout,
              "Power-backend ablation (fixed champion, smart-phone)");
  std::printf("ordering: thermal %s paper (%s), dpm-idle %s paper (%s)\n",
              thermal_ok ? ">=" : "<", thermal_ok ? "ok" : "VIOLATED",
              dpm_ok ? "<=" : ">", dpm_ok ? "ok" : "VIOLATED");

  if (!flags.get_string("json").empty()) {
    std::ofstream out(flags.get_string("json"));
    out << "{\n"
        << "  \"bench\": \"power_backends\",\n"
        << "  \"population\": " << flags.get_int("population") << ",\n"
        << "  \"generations\": " << flags.get_int("generations") << ",\n"
        << "  \"seed\": " << flags.get_int("seed") << ",\n"
        << "  \"backends\": {\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const BackendRow& r = rows[i];
      out << "    \"" << r.name << "\": {\"avg_power_mw\": " << r.avg_power_mw
          << ", \"weighted_static_mw\": " << r.weighted_static_mw
          << ", \"idle_saved_mj\": " << r.idle_saved_mj
          << ", \"max_temperature_c\": " << r.max_temperature_c
          << ", \"audited_ok\": " << (r.audited_ok ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"ordering_ok\": " << (ordering_ok ? "true" : "false") << "\n"
        << "}\n";
  }

  if (!ordering_ok || !all_audits_ok) return 1;
  return 0;
}
