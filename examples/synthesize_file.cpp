// File-driven synthesis tool: load a .mmsyn system description, run the
// co-synthesis, and print the full implementation report. Can also export
// the built-in benchmarks to .mmsyn files to serve as templates.
//
//   synthesize_file --input phone.mmsyn --dvs --report-voltages
//   synthesize_file --input phone.mmsyn --save-mapping phone.mmsyn-map
//   synthesize_file --input phone.mmsyn --evaluate-mapping phone.mmsyn-map
//   synthesize_file --export-smartphone phone.mmsyn
//   synthesize_file --export-mul 6 --output mul6.mmsyn
//
// Crash safety: --checkpoint writes a resumable snapshot of the GA every
// --checkpoint-every generations, after every island migration, and on
// Ctrl-C / --time-budget expiry; --resume continues a checkpointed run
// bit-identically to an uninterrupted one with the same flags. An early
// stop still reports the best implementation found so far (exit code 3).
#include <cstdio>

#include "audit/auditor.hpp"
#include "common/failpoint.hpp"
#include "common/flags.hpp"
#include "common/interrupt.hpp"
#include "core/allocation_builder.hpp"
#include "core/cosynth.hpp"
#include "core/island_ga.hpp"
#include "core/report.hpp"
#include "core/run_control.hpp"
#include "model/io.hpp"
#include "model/mapping_io.hpp"
#include "pipeline/backends.hpp"
#include "pipeline/profile.hpp"
#include "power/backends.hpp"
#include "tgff/smart_phone.hpp"
#include "tgff/suites.hpp"

using namespace mmsyn;

int main(int argc, char** argv) {
  Flags flags;
  flags.define_string("input", "", ".mmsyn file to synthesise");
  flags.define_string("output", "", "write the system/export here");
  flags.define_bool("export-smartphone", false,
                    "write the smart-phone benchmark to --output and exit");
  flags.define_int("export-mul", 0,
                   "write suite instance mulN to --output and exit");
  flags.define_choice("dvs", backend_names(dvs_backends()),
                      /*default_value=*/dvs_backend_name(false),
                      /*implicit_value=*/dvs_backend_name(true),
                      "voltage-scaling backend (bare --dvs = " +
                          std::string(dvs_backend_name(true)) + ")");
  flags.define_choice("scheduler", backend_names(scheduler_backends()),
                      /*default_value=*/scheduler_backends().front().name,
                      /*implicit_value=*/scheduler_backends().front().name,
                      "list-scheduler priority backend");
  flags.define_choice("power", backend_names(power_backends()),
                      /*default_value=*/power_backends().front().name,
                      /*implicit_value=*/power_backends().front().name,
                      "power-model backend (paper = the pinned reference "
                      "model; thermal = temperature-dependent leakage; "
                      "dpm-idle = sleep-state idle-interval accounting)");
  flags.define_bool("profile", false,
                    "print per-stage pipeline timings and cache hit rates");
  flags.define_bool("uniform", false,
                    "neglect mode probabilities (baseline behaviour)");
  flags.define_bool("report-voltages", false,
                    "include voltage schedules in the report");
  flags.define_bool("gantt", true, "include Gantt charts in the report");
  flags.define_string("save-mapping", "",
                      "write the synthesised mapping to this file");
  flags.define_string("evaluate-mapping", "",
                      "skip synthesis; evaluate this mapping file instead");
  flags.define_int("seed", 1, "GA seed");
  flags.define_int("population", 64, "GA population size");
  flags.define_int("generations", 600, "GA generation cap");
  flags.define_int("threads", 1,
                   "fitness-evaluation threads (0 = all cores); the result "
                   "is identical for any value");
  flags.define_int("islands", 1,
                   "GA islands (independent populations exchanging elites "
                   "along a deterministic ring; 1 = a single population)");
  flags.define_int("migration-interval", 20,
                   "generations between island migration barriers "
                   "(ignored with --islands=1)");
  flags.define_int("migrants", 2,
                   "elite individuals exchanged per island per barrier "
                   "(ignored with --islands=1)");
  flags.define_int("mode-cache-capacity", 1 << 16,
                   "per-mode evaluation cache entry cap, FIFO eviction "
                   "(0 = unbounded)");
  flags.define_double("time-budget", 0.0,
                      "wall-clock budget in seconds (0 = unlimited); on "
                      "expiry the best-so-far result is reported");
  flags.define_string("checkpoint", "",
                      "write resumable GA checkpoints to this file");
  flags.define_int("checkpoint-every", 25,
                   "generations between periodic checkpoints");
  flags.define_string("resume", "",
                      "resume from this checkpoint file (same system, seed "
                      "and GA options required)");
  flags.define_int("checkpoint-keep", 3,
                   "checkpoint generations kept on disk (file, file.1, ...); "
                   "resume falls back through them past corruption");
  flags.define_string("failpoints", "",
                      "fault-injection spec (see common/failpoint.hpp), or "
                      "'list' to print the registered failpoints and exit; "
                      "empty reads $MMSYN_FAILPOINTS");
  flags.define_bool("audit", false,
                    "replay the result through the invariant auditor and "
                    "fail on any violation");
  flags.define_bool("quiet", false,
                    "suppress the system summary; stdout then carries the "
                    "implementation report alone (byte-comparable against "
                    "the job server's stored reports)");
  flags.define_bool("report-timing", true,
                    "include wall-clock timing in the report (disable for "
                    "byte-identical reports across runs)");
  flags.define_bool("exhaustive", false,
                    "enumerate every candidate instead of running the GA "
                    "(tiny systems only)");
  flags.define_int("exhaustive-budget", 2'000'000,
                   "candidate-count cap of --exhaustive");
  if (!flags.parse(argc, argv)) return 1;

  if (flags.get_string("failpoints") == "list") {
    for (const std::string& site : failpoint::registered_sites())
      std::printf("%s\n", site.c_str());
    return 0;
  }
  try {
    if (!flags.get_string("failpoints").empty())
      failpoint::arm(flags.get_string("failpoints"));
    else
      failpoint::arm_from_env();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (failpoint::armed())
    std::fprintf(stderr, "failpoints armed: %s\n",
                 failpoint::active_spec().c_str());

  if (flags.get_bool("export-smartphone") || flags.get_int("export-mul") > 0) {
    const std::string path = flags.get_string("output").empty()
                                 ? "exported.mmsyn"
                                 : flags.get_string("output");
    const System system = flags.get_bool("export-smartphone")
                              ? make_smart_phone()
                              : make_mul(static_cast<int>(
                                    flags.get_int("export-mul")));
    save_system(path, system);
    std::printf("wrote %s (%s)\n", path.c_str(), system.name.c_str());
    return 0;
  }

  if (flags.get_string("input").empty()) {
    std::fprintf(stderr, "--input is required (or use an --export option)\n");
    flags.print_usage(argv[0]);
    return 1;
  }

  System system;
  try {
    system = load_system(flags.get_string("input"));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load: %s\n", e.what());
    return 1;
  }
  const auto problems = system.validate();
  if (!problems.empty()) {
    for (const auto& p : problems)
      std::fprintf(stderr, "invalid system: %s\n", p.c_str());
    return 1;
  }
  if (!flags.get_bool("quiet")) std::printf("%s\n", describe(system).c_str());

  SynthesisOptions options;
  PipelineProfiler profiler;
  try {
    // The flag layer already restricts the values to the registered
    // choices; resolving through the registry keeps the name -> backend
    // mapping in one place (pipeline/backends.cpp).
    options.use_dvs = resolve_dvs_backend(flags.get_string("dvs"));
    options.scheduling_policy =
        resolve_scheduler_backend(flags.get_string("scheduler"));
    options.power = resolve_power_backend(flags.get_string("power"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  if (flags.get_bool("profile")) options.profiler = &profiler;
  options.consider_probabilities = !flags.get_bool("uniform");
  options.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.ga.population_size = static_cast<int>(flags.get_int("population"));
  options.ga.max_generations = static_cast<int>(flags.get_int("generations"));
  options.ga.num_threads = static_cast<int>(flags.get_int("threads"));
  options.ga.mode_cache_capacity =
      static_cast<std::size_t>(flags.get_int("mode-cache-capacity"));
  options.islands = static_cast<int>(flags.get_int("islands"));
  options.migration_interval =
      static_cast<int>(flags.get_int("migration-interval"));
  options.migrants = static_cast<int>(flags.get_int("migrants"));
  {
    // Fail fast on an inconsistent island topology (migration interval,
    // migrant count, ...) with the flag-level message instead of a deep
    // throw.
    IslandOptions topology;
    topology.islands = options.islands;
    topology.migration_interval = options.migration_interval;
    topology.migrants = options.migrants;
    try {
      IslandGa::validate(options.ga, topology);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  }

  SynthesisResult result;
  if (!flags.get_string("evaluate-mapping").empty()) {
    // Evaluate-only mode: price a stored implementation candidate.
    try {
      result.mapping =
          load_mapping(flags.get_string("evaluate-mapping"), system);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "failed to load mapping: %s\n", e.what());
      return 1;
    }
    result.cores = build_core_allocation(system, result.mapping);
    EvaluationOptions eval_options;
    eval_options.use_dvs = options.use_dvs;
    eval_options.keep_schedules = true;
    eval_options.scheduling_policy = options.scheduling_policy;
    eval_options.profiler = options.profiler;
    eval_options.power = options.power;
    const Evaluator evaluator(system, eval_options);
    result.evaluation = evaluator.evaluate(result.mapping, result.cores);
  } else if (flags.get_bool("exhaustive")) {
    try {
      result = exhaustive_search(
          system, options,
          static_cast<std::uint64_t>(flags.get_int("exhaustive-budget")));
    } catch (const ExhaustiveOverflow& e) {
      std::fprintf(stderr,
                   "exhaustive enumeration is infeasible: the mapping space "
                   "has at least %llu candidates but the budget is %llu.\n"
                   "Raise --exhaustive-budget, or drop --exhaustive to use "
                   "the genetic algorithm instead.\n",
                   static_cast<unsigned long long>(e.space_at_least()),
                   static_cast<unsigned long long>(e.budget()));
      return 1;
    }
  } else {
    RunControl control;
    control.time_budget_seconds = flags.get_double("time-budget");
    control.checkpoint_path = flags.get_string("checkpoint");
    control.checkpoint_every_generations =
        static_cast<int>(flags.get_int("checkpoint-every"));
    control.checkpoint_keep_generations =
        static_cast<int>(flags.get_int("checkpoint-keep"));
    control.resume_path = flags.get_string("resume");
    control.recovery_log = [](const std::string& message) {
      std::fprintf(stderr, "recovery: %s\n", message.c_str());
    };
    install_interrupt_flag();
    control.listen_for_interrupt();
    try {
      result = synthesize(system, options, &control);
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "cannot resume: %s\n", e.what());
      std::fprintf(stderr,
                   "The checkpoint must come from the same system file, "
                   "--seed and GA options as this invocation.\n");
      return 1;
    }
    if (result.partial)
      std::fprintf(stderr,
                   "run stopped early (%s); reporting the best "
                   "implementation found so far\n",
                   result.stop_reason == StopReason::kBudgetExhausted
                       ? "time budget"
                       : "cancelled");
  }

  if (!flags.get_string("save-mapping").empty()) {
    save_mapping(flags.get_string("save-mapping"), system, result.mapping);
    std::printf("mapping written to %s\n",
                flags.get_string("save-mapping").c_str());
  }

  ReportOptions report;
  report.include_gantt = flags.get_bool("gantt");
  report.include_voltage_schedules = flags.get_bool("report-voltages");
  report.include_timing = flags.get_bool("report-timing");
  std::printf("%s", implementation_report(system, result, report).c_str());

  if (flags.get_bool("profile")) {
    // Cache counters exist only for the GA path; the evaluate-mapping and
    // exhaustive paths never consult the mode cache (-1 omits the rows).
    const bool cached = flags.get_string("evaluate-mapping").empty() &&
                        !flags.get_bool("exhaustive");
    std::printf("%s", profiler
                          .table(cached ? result.mode_cache_hits : -1,
                                 cached ? result.mode_cache_lookups : -1)
                          .c_str());
  }

  if (flags.get_bool("audit")) {
    AuditOptions audit_options = audit_options_for(options);
    const AuditReport audit = audit_result(system, result, audit_options);
    std::printf("%s", audit.to_string().c_str());
    if (!audit.passed()) return 4;
  }
  if (result.partial) return 3;
  return result.evaluation.feasible() ? 0 : 2;
}
