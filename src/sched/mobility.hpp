// ASAP/ALAP mobility analysis (Fig. 4, line 04 of the paper).
//
// For one mode under a given task mapping, computes contention-free
// as-soon-as-possible and as-late-as-possible start times. Mobility
// (alap - asap) drives the core-allocation heuristic: parallel tasks with
// low mobility are the ones worth an extra hardware core.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "model/mapping.hpp"

namespace mmsyn {

struct Mode;
class Architecture;
class TechLibrary;

/// Per-task mobility data for one mode (index == task id).
struct MobilityInfo {
  std::vector<double> asap_start;
  std::vector<double> alap_start;
  std::vector<double> exec_time;  ///< mapped nominal execution time
  /// alap_start - asap_start, clamped at 0 when the graph is over-tight.
  std::vector<double> mobility;
  /// Contention-free critical-path length (max ASAP finish).
  double critical_path = 0.0;
};

/// Computes ASAP/ALAP schedules ignoring resource contention.
///
/// Communication delay between tasks on different PEs is estimated with the
/// fastest CL connecting the two PEs (startup + bits/bandwidth); same-PE
/// edges cost zero and unconnected pairs kUnroutablePenalty — the
/// `best_case_delay` rule the list scheduler's priorities share
/// (sched/link_table.hpp). The ALAP pass anchors each task at
/// min(deadline, period) and each sink at the mode period.
[[nodiscard]] MobilityInfo compute_mobility(const Mode& mode,
                                            const ModeMapping& mapping,
                                            const Architecture& arch,
                                            const TechLibrary& tech);

}  // namespace mmsyn
