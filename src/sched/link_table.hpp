// Best-case inter-PE communication delays over a CSR table of the CLs
// connecting each PE pair.
//
// Two analyses estimate a message's contention-free delay from the task
// mapping alone: the ASAP/ALAP mobility behind core allocation
// (sched/mobility) and the list scheduler's bottom-level priorities
// (sched/list_scheduler). Both go through `best_case_delay`, so they share
// one rule. The table is built once per call into the caller's arena,
// instead of materialising an `Architecture::links_between` vector per
// edge; the scheduler also routes messages over its rows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "common/arena.hpp"
#include "common/ids.hpp"
#include "model/architecture.hpp"

namespace mmsyn {

/// Delay charged for a message between two PEs that no CL connects: huge
/// but finite, so timing analyses stay well-defined while the list
/// scheduler flags the broken routing (`ModeSchedule::routable`).
inline constexpr double kUnroutablePenalty = 1e6;  // seconds

/// CSR table of the CLs connecting each ordered PE pair, row (a, b) in
/// ascending CL-id order — exactly the sequence `links_between(a, b)`
/// yields (a PE listed twice on one CL still contributes one link), so
/// min-scans and routing ties resolve identically. The arrays live in the
/// arena the table was built in.
struct LinkTable {
  std::size_t pe_count = 0;
  const std::int32_t* offsets = nullptr;  // pe_count² + 1 entries
  const std::int32_t* cls = nullptr;

  [[nodiscard]] std::span<const std::int32_t> row(std::size_t a,
                                                  std::size_t b) const {
    const std::size_t r = a * pe_count + b;
    return {cls + offsets[r],
            static_cast<std::size_t>(offsets[r + 1] - offsets[r])};
  }
};

[[nodiscard]] LinkTable build_link_table(const Architecture& arch,
                                         Arena& arena);

/// Contention-free delay of a `bits`-bit message from `src` to `dst`: zero
/// on one PE, otherwise the minimum of `startup_latency + bits / bandwidth`
/// over the connecting CLs in ascending id order, or kUnroutablePenalty
/// when no CL connects the pair.
[[nodiscard]] inline double best_case_delay(const LinkTable& links,
                                            const Architecture& arch,
                                            PeId src, PeId dst, double bits) {
  if (src == dst) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::int32_t c : links.row(src.index(), dst.index())) {
    const Cl& link = arch.cl(ClId{static_cast<ClId::value_type>(c)});
    best = std::min(best, link.startup_latency + bits / link.bandwidth);
  }
  return std::isfinite(best) ? best : kUnroutablePenalty;
}

}  // namespace mmsyn
