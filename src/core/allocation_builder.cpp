#include "core/allocation_builder.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "model/system.hpp"
#include "sched/mobility.hpp"

namespace mmsyn {
namespace {

constexpr std::size_t kSoftware = static_cast<std::size_t>(-1);

/// Maximum number of simultaneously running windows, given as (time, +1)
/// start and (time, -1) end events. Sorts `events` in place.
int max_concurrency(std::vector<std::pair<double, int>>& events) {
  // Process ends before starts at equal times (back-to-back is sequential).
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  int current = 0, best = 0;
  for (const auto& [time, delta] : events) {
    current += delta;
    best = std::max(best, current);
  }
  return best;
}

/// The core set of hardware PE `pe` for a per-type demand row (`desired[t]`
/// cores of type t, 0 = none wanted): one core per wanted type, then greedy
/// extra cores until every demand is met or `capacity` is exhausted.
CoreSet allocate_cores(std::span<const int> desired, const TechLibrary& tech,
                       PeId pe, double capacity) {
  CoreSet set;
  for (std::size_t t = 0; t < desired.size(); ++t)
    if (desired[t] > 0)
      set.set_count(TaskTypeId{static_cast<TaskTypeId::value_type>(t)}, 1);
  double used = set.area(tech, pe);
  bool progress = true;
  while (progress) {
    progress = false;
    // Pick the type with the largest remaining deficit whose extra core
    // still fits; ties resolved toward the smaller core, then the lower
    // type id. The set holds exactly the wanted types, ascending.
    TaskTypeId best_type;
    int best_deficit = 0;
    double best_area = 0.0;
    for (const auto& [type, count] : set.entries()) {
      const int deficit = desired[type.index()] - count;
      if (deficit <= 0) continue;
      const double area = tech.require(type, pe).area;
      if (used + area > capacity) continue;
      if (deficit > best_deficit ||
          (deficit == best_deficit && area < best_area)) {
        best_type = type;
        best_deficit = deficit;
        best_area = area;
      }
    }
    if (best_deficit > 0) {
      set.add_core(best_type);
      used += best_area;
      progress = true;
    }
  }
  return set;
}

}  // namespace

CoreAllocation build_core_allocation(const System& system,
                                     const MultiModeMapping& mapping,
                                     const AllocationOptions& options) {
  const Omsm& omsm = system.omsm;
  const Architecture& arch = system.arch;
  const TechLibrary& tech = system.tech;
  const std::size_t n_modes = omsm.mode_count();
  const std::size_t n_pes = arch.pe_count();
  const std::size_t n_types = tech.type_count();

  CoreAllocation alloc;
  alloc.per_mode.assign(n_modes, std::vector<CoreSet>(n_pes));

  // Flat PE×type tables, entry pe * n_types + type. `group_size` counts the
  // current mode's hardware tasks per (pe, type) group and `demand` holds
  // that mode's core demand (0 = no task); `asic_demand` folds the per-type
  // maximum over all modes, since ASIC silicon is static.
  std::vector<int> group_size(n_pes * n_types);
  std::vector<int> demand(n_pes * n_types);
  std::vector<int> asic_demand(n_pes * n_types, 0);
  std::vector<std::size_t> task_group;  // per task; kSoftware off hardware
  std::vector<std::pair<double, int>> events;
  const auto row = [n_types](std::vector<int>& table, std::size_t pe) {
    return std::span<int>(table).subspan(pe * n_types, n_types);
  };

  for (std::size_t m = 0; m < n_modes; ++m) {
    const Mode& mode = omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
    const TaskGraph& graph = mode.graph;
    const std::vector<PeId>& task_to_pe = mapping.modes[m].task_to_pe;

    std::fill(group_size.begin(), group_size.end(), 0);
    task_group.assign(graph.task_count(), kSoftware);
    bool shared = false;
    for (std::size_t t = 0; t < graph.task_count(); ++t) {
      const PeId pe = task_to_pe[t];
      if (!is_hardware(arch.pe(pe).kind)) continue;
      const TaskId id{static_cast<TaskId::value_type>(t)};
      task_group[t] = pe.index() * n_types + graph.task(id).type.index();
      shared |= ++group_size[task_group[t]] > 1;
    }
    for (std::size_t g = 0; g < demand.size(); ++g)
      demand[g] = group_size[g] > 0 ? 1 : 0;

    if (options.allocate_parallel_cores && shared) {
      // Fig. 4 line 04. Extra cores pay off only for tasks of one group
      // that can actually overlap and are urgent (low mobility), so only a
      // mode with a shared group needs its mobility.
      const MobilityInfo mob =
          compute_mobility(mode, mapping.modes[m], arch, tech);
      const double mobility_cap = options.mobility_threshold * mode.period;
      for (std::size_t g = 0; g < group_size.size(); ++g) {
        if (group_size[g] < 2) continue;
        events.clear();
        for (std::size_t t = 0; t < graph.task_count(); ++t) {
          if (task_group[t] != g || mob.mobility[t] > mobility_cap) continue;
          events.emplace_back(mob.asap_start[t], +1);
          events.emplace_back(mob.asap_start[t] + mob.exec_time[t], -1);
        }
        demand[g] = std::max(1, max_concurrency(events));
      }
    }

    for (std::size_t p = 0; p < n_pes; ++p) {
      const Pe& pe = arch.pes()[p];
      if (pe.kind == PeKind::kAsic) {
        const std::span<int> merged = row(asic_demand, p);
        const std::span<int> want = row(demand, p);
        for (std::size_t t = 0; t < n_types; ++t)
          merged[t] = std::max(merged[t], want[t]);
      } else if (pe.kind == PeKind::kFpga) {
        // Reconfigurable: one set per mode.
        alloc.per_mode[m][p] =
            allocate_cores(row(demand, p), tech,
                           PeId{static_cast<PeId::value_type>(p)},
                           pe.area_capacity);
      }
    }
  }

  // Static silicon: one set for all modes, from the per-type max demand.
  for (std::size_t p = 0; p < n_pes; ++p) {
    const Pe& pe = arch.pes()[p];
    if (pe.kind != PeKind::kAsic) continue;
    const CoreSet set = allocate_cores(row(asic_demand, p), tech,
                                       PeId{static_cast<PeId::value_type>(p)},
                                       pe.area_capacity);
    for (std::size_t m = 0; m < n_modes; ++m) alloc.per_mode[m][p] = set;
  }
  return alloc;
}

}  // namespace mmsyn
