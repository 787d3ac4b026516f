#include "core/allocation_builder.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "model/system.hpp"
#include "sched/mobility.hpp"

namespace mmsyn {
namespace {

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

/// The core set of hardware PE `pe` for its groups `want` (ascending by
/// type): one core per group, then greedy extra cores until every demand
/// is met or `capacity` is exhausted.
CoreSet allocate_cores(std::span<const CoreGroup> want,
                       const TechLibrary& tech, PeId pe, double capacity) {
  CoreSet set;
  for (const CoreGroup& g : want) set.set_count(g.type, 1);
  double used = set.area(tech, pe);
  bool progress = true;
  while (progress) {
    progress = false;
    // Pick the type with the largest remaining deficit whose extra core
    // still fits; ties resolved toward the smaller core, then the lower
    // type id. The set holds exactly the wanted types, in `want`'s order.
    std::size_t best = 0;
    int best_deficit = 0;
    double best_area = 0.0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const int deficit = want[i].cores - set.entries()[i].second;
      if (deficit <= 0) continue;
      const double area = tech.require(want[i].type, pe).area;
      if (used + area > capacity) continue;
      if (deficit > best_deficit ||
          (deficit == best_deficit && area < best_area)) {
        best = i;
        best_deficit = deficit;
        best_area = area;
      }
    }
    if (best_deficit > 0) {
      set.add_core(want[best].type);
      used += best_area;
      progress = true;
    }
  }
  return set;
}

/// Calls `fn(pe, run)` for each run of `groups` (ascending by PE) on one
/// PE.
template <class Fn>
void for_each_pe(std::span<const CoreGroup> groups, Fn&& fn) {
  for (std::size_t b = 0; b < groups.size();) {
    std::size_t e = b + 1;
    while (e < groups.size() && groups[e].pe == groups[b].pe) ++e;
    fn(groups[b].pe, groups.subspan(b, e - b));
    b = e;
  }
}

}  // namespace

ModeCoreDemand mode_core_demand(const System& system, std::size_t m,
                                const ModeMapping& slice,
                                const AllocationOptions& options) {
  // One run of `tasks` per hardware group, ascending task ids inside.
  const std::vector<HardwareTask> tasks = hardware_tasks(system, m, slice);
  const auto same_group = [&](std::size_t a, std::size_t b) {
    return tasks[a].pe == tasks[b].pe && tasks[a].type == tasks[b].type;
  };
  ModeCoreDemand demand;
  bool shared = false;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (i > 0 && same_group(i - 1, i)) {
      shared = true;
      continue;
    }
    demand.push_back({tasks[i].pe, tasks[i].type});
  }
  if (!options.allocate_parallel_cores || !shared) return demand;

  // Fig. 4 line 04. Extra cores pay off only for tasks of one group that
  // can actually overlap and are urgent (low mobility), so only a mode
  // with a shared group needs its mobility.
  const Mode& mode =
      system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
  const MobilityInfo mob =
      compute_mobility(mode, slice, system.arch, system.tech);
  const double mobility_cap = options.mobility_threshold * mode.period;
  std::vector<std::pair<double, int>> events;
  for (std::size_t b = 0, g = 0; b < tasks.size(); ++g) {
    std::size_t e = b + 1;
    while (e < tasks.size() && same_group(b, e)) ++e;
    if (e - b > 1) {
      events.clear();
      for (std::size_t i = b; i < e; ++i) {
        const std::size_t t = tasks[i].task.index();
        if (mob.mobility[t] > mobility_cap) continue;
        events.emplace_back(mob.asap_start[t], +1);
        events.emplace_back(mob.asap_start[t] + mob.exec_time[t], -1);
      }
      demand[g].cores = std::max(1, max_concurrency(events));
    }
    b = e;
  }
  return demand;
}

CoreAllocation assemble_core_allocation(
    const System& system, std::span<const std::span<const CoreGroup>> demands) {
  const Architecture& arch = system.arch;
  const TechLibrary& tech = system.tech;
  CoreAllocation alloc;
  alloc.per_mode.assign(demands.size(), std::vector<CoreSet>(arch.pe_count()));

  // FPGAs are reconfigurable: one set per mode. ASIC groups are collected
  // across the modes for the static silicon below.
  std::vector<CoreGroup> asic;
  std::size_t groups = 0;
  for (const std::span<const CoreGroup> demand : demands)
    groups += demand.size();
  asic.reserve(groups);
  for (std::size_t m = 0; m < demands.size(); ++m)
    for_each_pe(demands[m], [&](PeId p, std::span<const CoreGroup> run) {
      const Pe& pe = arch.pe(p);
      if (pe.kind == PeKind::kAsic)
        asic.insert(asic.end(), run.begin(), run.end());
      else if (pe.kind == PeKind::kFpga)
        alloc.per_mode[m][p.index()] =
            allocate_cores(run, tech, p, pe.area_capacity);
    });

  // Static silicon: one set for all modes, from the per-type max demand.
  std::sort(asic.begin(), asic.end(),
            [](const CoreGroup& a, const CoreGroup& b) {
              // By (pe, type), largest demand first: unique keeps the max.
              if (a.pe != b.pe) return a.pe < b.pe;
              if (a.type != b.type) return a.type < b.type;
              return a.cores > b.cores;
            });
  asic.erase(std::unique(asic.begin(), asic.end(),
                         [](const CoreGroup& a, const CoreGroup& b) {
                           return a.pe == b.pe && a.type == b.type;
                         }),
             asic.end());
  for_each_pe(asic, [&](PeId p, std::span<const CoreGroup> run) {
    const CoreSet set = allocate_cores(run, tech, p, arch.pe(p).area_capacity);
    for (std::vector<CoreSet>& row : alloc.per_mode) row[p.index()] = set;
  });
  return alloc;
}

CoreAllocation build_core_allocation(const System& system,
                                     const MultiModeMapping& mapping,
                                     const AllocationOptions& options) {
  std::vector<ModeCoreDemand> demands;
  demands.reserve(system.omsm.mode_count());
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m)
    demands.push_back(mode_core_demand(system, m, mapping.modes[m], options));
  const std::vector<std::span<const CoreGroup>> views(demands.begin(),
                                                      demands.end());
  return assemble_core_allocation(system, views);
}

std::size_t SliceTable::hash(std::size_t m, std::span<const PeId> slice) {
  std::uint64_t h = mix_word(0, m);
  for (PeId pe : slice) h = mix_word(h, static_cast<std::uint32_t>(pe.value()));
  return static_cast<std::size_t>(h);
}

const ModeCoreDemand* SliceTable::find(std::size_t m,
                                       std::span<const PeId> slice,
                                       std::size_t hash) const {
  const auto it = map_.find(View{m, slice, hash});
  return it == map_.end() ? nullptr : &it->second;
}

void SliceTable::insert(std::size_t m, std::span<const PeId> slice,
                        std::size_t hash, ModeCoreDemand demand) {
  if (map_.contains(View{m, slice, hash})) return;
  if (capacity_ > 0 && map_.size() >= capacity_) map_.clear();
  map_.emplace(Key{m, {slice.begin(), slice.end()}, hash}, std::move(demand));
}

}  // namespace mmsyn
