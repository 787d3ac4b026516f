#include "model/core_allocation.hpp"

#include <algorithm>
#include <cassert>
#include <tuple>

#include "model/mapping.hpp"
#include "model/system.hpp"
#include "model/tech_library.hpp"

namespace mmsyn {

int CoreSet::count_of(TaskTypeId type) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type,
      [](const auto& entry, TaskTypeId t) { return entry.first < t; });
  if (it == entries_.end() || it->first != type) return 0;
  return it->second;
}

void CoreSet::set_count(TaskTypeId type, int count) {
  assert(count >= 0);
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), type,
      [](const auto& entry, TaskTypeId t) { return entry.first < t; });
  if (it != entries_.end() && it->first == type) {
    if (count == 0) entries_.erase(it);
    else it->second = count;
  } else if (count > 0) {
    entries_.insert(it, {type, count});
  }
}

void CoreSet::add_core(TaskTypeId type) {
  set_count(type, count_of(type) + 1);
}

double CoreSet::area(const TechLibrary& tech, PeId pe) const {
  double total = 0.0;
  for (const auto& [type, count] : entries_)
    total += tech.require(type, pe).area * count;
  return total;
}

double CoreSet::delta_area_from(const CoreSet& previous,
                                const TechLibrary& tech, PeId pe) const {
  double total = 0.0;
  for (const auto& [type, count] : entries_) {
    const int extra = count - previous.count_of(type);
    if (extra > 0) total += tech.require(type, pe).area * extra;
  }
  return total;
}

void CoreSet::merge_max(const CoreSet& other) {
  for (const auto& [type, count] : other.entries_)
    set_count(type, std::max(count_of(type), count));
}

double CoreAllocation::required_area(PeId pe, const TechLibrary& tech) const {
  double worst = 0.0;
  for (const auto& mode_sets : per_mode)
    worst = std::max(worst, mode_sets[pe.index()].area(tech, pe));
  return worst;
}

std::vector<HardwareTask> hardware_tasks(const System& system, std::size_t m,
                                         const ModeMapping& slice) {
  const TaskGraph& graph =
      system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)}).graph;
  std::vector<HardwareTask> tasks;
  tasks.reserve(graph.task_count());
  for (std::size_t t = 0; t < graph.task_count(); ++t) {
    const PeId pe = slice.task_to_pe[t];
    if (!is_hardware(system.arch.pe(pe).kind)) continue;
    const TaskId id{static_cast<TaskId::value_type>(t)};
    tasks.push_back({pe, graph.task(id).type, id});
  }
  std::sort(tasks.begin(), tasks.end(),
            [](const HardwareTask& a, const HardwareTask& b) {
              return std::tuple(a.pe, a.type, a.task) <
                     std::tuple(b.pe, b.type, b.task);
            });
  return tasks;
}

std::vector<CoreGroup> hardware_groups(const System& system, std::size_t m,
                                       const ModeMapping& slice) {
  std::vector<CoreGroup> groups;
  for (const HardwareTask& t : hardware_tasks(system, m, slice))
    if (groups.empty() || groups.back().pe != t.pe ||
        groups.back().type != t.type)
      groups.push_back({t.pe, t.type});
  return groups;
}

std::vector<CoreSet> used_cores(const std::vector<CoreSet>& row,
                                std::span<const CoreGroup> groups) {
  std::vector<CoreSet> used(row.size());
  for (const CoreGroup& g : groups)
    if (const int count = row[g.pe.index()].count_of(g.type); count > 0)
      used[g.pe.index()].set_count(g.type, count);
  return used;
}

}  // namespace mmsyn
