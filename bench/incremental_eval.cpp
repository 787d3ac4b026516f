// Incremental-evaluation benchmark: wall-clock speedup and hit rate of
// the per-mode evaluation cache (GaOptions::memoize_mode_evaluations) on
// the mul suite, with an in-bench bitwise-identity check — the cached and
// the cache-disabled run must produce byte-identical reports, or the
// bench exits nonzero.
//
//   incremental_eval [--muls 4,8,12] [--population 64] [--generations 80]
//                    [--seed 1] [--threads 1] [--dvs] [--min-speedup 0]
//                    [--scheduler bottom-level] [--profile] [--json PATH]
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/cosynth.hpp"
#include "core/report.hpp"
#include "pipeline/backends.hpp"
#include "pipeline/profile.hpp"
#include "tgff/suites.hpp"

using namespace mmsyn;

namespace {

std::vector<int> parse_muls(const std::string& csv) {
  std::vector<int> muls;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) muls.push_back(std::stoi(item));
  return muls;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define_string("muls", "4,8,12", "comma-separated mul suite sizes");
  flags.define_int("population", 64, "GA population size");
  flags.define_int("generations", 80, "GA generations (fixed, no early stop)");
  flags.define_int("seed", 1, "GA seed");
  flags.define_int("threads", 1, "fitness-evaluation threads");
  flags.define_choice("dvs", backend_names(dvs_backends()),
                      /*default_value=*/dvs_backend_name(false),
                      /*implicit_value=*/dvs_backend_name(true),
                      "voltage-scaling backend (bare --dvs = " +
                          std::string(dvs_backend_name(true)) + ")");
  flags.define_choice("scheduler", backend_names(scheduler_backends()),
                      /*default_value=*/scheduler_backends().front().name,
                      /*implicit_value=*/scheduler_backends().front().name,
                      "list-scheduler priority backend");
  flags.define_bool("profile", false,
                    "print per-stage pipeline timings for the cached runs");
  flags.define_double("min-speedup", 0.0,
                      "fail unless at least one instance reaches this "
                      "cached/cold speedup (0 disables)");
  flags.define_string("json", "",
                      "write machine-readable results to this file");
  if (!flags.parse(argc, argv)) return 1;

  SynthesisOptions base;
  PipelineProfiler profiler;
  try {
    base.use_dvs = resolve_dvs_backend(flags.get_string("dvs"));
    base.scheduling_policy =
        resolve_scheduler_backend(flags.get_string("scheduler"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  base.ga.population_size = static_cast<int>(flags.get_int("population"));
  base.ga.max_generations = static_cast<int>(flags.get_int("generations"));
  // Fixed workload so cold and cached runs time the same search.
  base.ga.stagnation_limit = base.ga.max_generations + 1;
  base.ga.num_threads = static_cast<int>(flags.get_int("threads"));

  ReportOptions report;
  report.include_timing = false;

  TextTable table;
  table.set_header({"instance", "cold(s)", "cached(s)", "speedup",
                    "hit rate", "identical"});
  bool all_identical = true;
  double best_speedup = 0.0;
  long total_eval_hits = 0, total_eval_lookups = 0;
  struct InstanceRow {
    int mul;
    double cold_s, cached_s, speedup, hit_rate;
    bool identical;
  };
  std::vector<InstanceRow> rows;
  for (const int mul : parse_muls(flags.get_string("muls"))) {
    const System system = make_mul(mul);

    SynthesisOptions options = base;
    options.ga.memoize_mode_evaluations = false;
    const SynthesisResult cold = synthesize(system, options);
    options.ga.memoize_mode_evaluations = true;
    // Only the cached runs are profiled: the cold leg would double every
    // stage count without adding information (profiling never changes
    // results, so attaching it here cannot break the identity check).
    if (flags.get_bool("profile")) options.profiler = &profiler;
    const SynthesisResult cached = synthesize(system, options);
    options.profiler = nullptr;

    // Bitwise identity: the cache may only change the wall clock. The
    // rendered report covers the mapping, allocation, powers and fitness.
    const bool identical =
        implementation_report(system, cold, report) ==
            implementation_report(system, cached, report) &&
        cold.fitness == cached.fitness &&
        cold.evaluations == cached.evaluations &&
        cold.evaluation.avg_power_true == cached.evaluation.avg_power_true;
    all_identical = all_identical && identical;

    const double speedup = cached.elapsed_seconds > 0.0
                               ? cold.elapsed_seconds / cached.elapsed_seconds
                               : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    const double hit_rate =
        cached.mode_cache_lookups > 0
            ? static_cast<double>(cached.mode_cache_hits) /
                  static_cast<double>(cached.mode_cache_lookups)
            : 0.0;
    total_eval_hits += cached.mode_cache_hits;
    total_eval_lookups += cached.mode_cache_lookups;
    rows.push_back({mul, cold.elapsed_seconds, cached.elapsed_seconds,
                    speedup, hit_rate, identical});
    table.add_row({"mul" + std::to_string(mul),
                   TextTable::num(cold.elapsed_seconds, 2),
                   TextTable::num(cached.elapsed_seconds, 2),
                   TextTable::num(speedup, 2),
                   TextTable::num(100.0 * hit_rate, 1) + "%",
                   identical ? "yes" : "NO"});
  }
  table.print(std::cout,
              "per-mode incremental evaluation (cold vs cached GA run)");
  if (flags.get_bool("profile"))
    std::cout << profiler.table(total_eval_hits, total_eval_lookups);

  if (!flags.get_string("json").empty()) {
    std::ofstream out(flags.get_string("json"));
    out << "{\n"
        << "  \"bench\": \"incremental_eval\",\n"
        << "  \"population\": " << flags.get_int("population") << ",\n"
        << "  \"generations\": " << flags.get_int("generations") << ",\n"
        << "  \"instances\": {\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const InstanceRow& r = rows[i];
      out << "    \"mul" << r.mul << "\": {\"cold_s\": " << r.cold_s
          << ", \"cached_s\": " << r.cached_s
          << ", \"speedup\": " << r.speedup
          << ", \"hit_rate\": " << r.hit_rate << ", \"identical\": "
          << (r.identical ? "true" : "false") << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  },\n"
        << "  \"best_speedup\": " << best_speedup << ",\n"
        << "  \"identical\": " << (all_identical ? "true" : "false") << "\n"
        << "}\n";
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: cached run differs from the cache-disabled run\n");
    return 1;
  }
  const double min_speedup = flags.get_double("min-speedup");
  if (min_speedup > 0.0 && best_speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: best speedup %.2fx below required %.2fx\n",
                 best_speedup, min_speedup);
    return 1;
  }
  std::printf("best speedup: %.2fx; results identical: yes\n", best_speedup);
  return 0;
}
