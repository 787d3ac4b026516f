// Frozen pre-rewrite scheduler/DVS/core-allocation kernels, kept verbatim
// as the baseline the data-oriented kernels in src/sched, src/dvs and
// src/core are benchmarked and *bit-compared* against. micro_kernels runs
// both implementations on the same inputs, asserts byte-identical
// outputs, and reports the speedup ratio — a machine-independent number
// that the CI perf gate (tools/ci.sh) tracks through
// BENCH_micro_kernels.json (scheduling and DVS stages only).
//
// Do not "improve" this code: its value is being the exact algorithms
// the library shipped before the rewrite (allocation-heavy timelines,
// vector-of-vectors adjacency, linear-scan ready selection, full
// forward/backward passes per gradient step, map-based core demand).
#pragma once

#include <vector>

#include "core/allocation_builder.hpp"
#include "dvs/dvs_graph.hpp"
#include "dvs/pv_dvs.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/mobility.hpp"
#include "sched/schedule.hpp"

namespace mmsyn::refk {

/// The pre-rewrite DVS-graph layout: AoS nodes plus vector-of-vectors
/// adjacency (the library's DvsGraph is now SoA/CSR).
struct RefDvsGraph {
  std::vector<DvsNode> nodes;
  std::vector<std::vector<int>> succs;
  std::vector<std::vector<int>> preds;
  std::vector<int> topo;
  std::vector<int> task_node;
  std::vector<int> comm_node;
};

/// Pre-rewrite scheduling_priorities (bottom levels via the by-value
/// Architecture::links_between on every edge).
[[nodiscard]] std::vector<double> ref_scheduling_priorities(
    const ListSchedulerInput& input);

/// Pre-rewrite list scheduler (linear-scan ready selection, per-call
/// timeline allocations).
[[nodiscard]] ModeSchedule ref_list_schedule(const ListSchedulerInput& input,
                                             const std::vector<double>& priority);

/// Pre-rewrite DVS-graph construction (std::map grouping, per-node
/// vector push_back adjacency).
[[nodiscard]] RefDvsGraph ref_build_dvs_graph(const Mode& mode,
                                              const ModeSchedule& schedule,
                                              const ModeMapping& mapping,
                                              const Architecture& arch,
                                              const TechLibrary& tech,
                                              bool scale_hardware = true);

/// Pre-rewrite PV-DVS (full forward/backward critical-path passes on
/// every gradient iteration).
[[nodiscard]] PvDvsResult ref_run_pv_dvs(const RefDvsGraph& graph,
                                         const Architecture& arch,
                                         const PvDvsOptions& options = {});

/// Pre-rewrite ASAP/ALAP mobility (a by-value links_between vector on
/// every edge visit of both passes).
[[nodiscard]] MobilityInfo ref_compute_mobility(const Mode& mode,
                                                const ModeMapping& mapping,
                                                const Architecture& arch,
                                                const TechLibrary& tech);

/// Pre-rewrite core allocation (std::map grouping and per-mode demand
/// tables, mobility computed for every mode).
[[nodiscard]] CoreAllocation ref_build_core_allocation(
    const System& system, const MultiModeMapping& mapping,
    const AllocationOptions& options);

}  // namespace mmsyn::refk
