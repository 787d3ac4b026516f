// Hardware core allocation (Fig. 4, line 05 of the paper).
//
// Tasks mapped onto ASICs/FPGAs execute on *cores*: one core implements one
// task type and serves one task at a time. Multiple cores of the same type
// may be allocated (area permitting) so parallel tasks of that type run
// concurrently. ASIC core sets are static silicon — identical in every
// mode; FPGA core sets may differ per mode, at a reconfiguration-time cost
// on mode transitions. This header holds the *result* data structure; the
// allocation heuristic lives in core/.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/ids.hpp"

namespace mmsyn {

class TechLibrary;
struct ModeMapping;
struct System;

/// Multiset of cores loaded on one hardware PE (in one mode).
class CoreSet {
public:
  /// Number of core instances of `type` (0 when none).
  [[nodiscard]] int count_of(TaskTypeId type) const;

  /// Sets the instance count of `type`; count 0 removes the entry.
  void set_count(TaskTypeId type, int count);

  /// Increments the instance count of `type` by one.
  void add_core(TaskTypeId type);

  /// All (type, count) entries, ascending by type id.
  [[nodiscard]] const std::vector<std::pair<TaskTypeId, int>>& entries()
      const {
    return entries_;
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Total area of all instances, using the type areas on PE `pe`.
  [[nodiscard]] double area(const TechLibrary& tech, PeId pe) const;

  /// Area of cores present in this set but not (or with fewer instances)
  /// in `previous` — the silicon that must be (re)configured when
  /// switching from `previous` to this set.
  [[nodiscard]] double delta_area_from(const CoreSet& previous,
                                       const TechLibrary& tech,
                                       PeId pe) const;

  /// Set-union (per-type max of instance counts).
  void merge_max(const CoreSet& other);

  friend bool operator==(const CoreSet&, const CoreSet&) = default;

private:
  std::vector<std::pair<TaskTypeId, int>> entries_;  // sorted by type id
};

/// Core allocation for every (mode, hardware PE) pair. Software PEs have
/// empty sets. The builder guarantees ASIC sets are mode-invariant.
struct CoreAllocation {
  /// per_mode[mode][pe] = loaded core set of PE `pe` while mode `mode` runs.
  std::vector<std::vector<CoreSet>> per_mode;

  [[nodiscard]] const CoreSet& cores(ModeId mode, PeId pe) const {
    return per_mode[mode.index()][pe.index()];
  }
  [[nodiscard]] CoreSet& cores(ModeId mode, PeId pe) {
    return per_mode[mode.index()][pe.index()];
  }

  /// Area a PE must provide: for mode-invariant sets this equals any
  /// mode's area; for FPGAs it is the maximum over modes (each mode's
  /// configuration must fit on its own).
  [[nodiscard]] double required_area(PeId pe, const TechLibrary& tech) const;
};

/// One hardware (PE, task type) group of a mode — the mode maps at least
/// one task of `type` onto hardware PE `pe` — and the cores of that type
/// the group wants there (ImplementHWcores' per-mode demand, at least 1).
struct CoreGroup {
  PeId pe;
  TaskTypeId type;
  int cores = 1;
  friend bool operator==(const CoreGroup&, const CoreGroup&) = default;
};

/// One task a mode maps onto a hardware PE.
struct HardwareTask {
  PeId pe;
  TaskTypeId type;
  TaskId task;
};

/// The tasks of mode `m` that its task→PE slice maps onto hardware PEs,
/// sorted by (pe, type, task): each hardware group is one run.
[[nodiscard]] std::vector<HardwareTask> hardware_tasks(
    const System& system, std::size_t m, const ModeMapping& slice);

/// The hardware groups of mode `m` under its task→PE slice (the runs of
/// hardware_tasks), ascending by (pe, type), each wanting one core.
[[nodiscard]] std::vector<CoreGroup> hardware_groups(const System& system,
                                                     std::size_t m,
                                                     const ModeMapping& slice);

/// The part of one mode's allocation row that the mode schedules on: per
/// group of `groups` (ascending by (pe, type)), the count `row` holds for
/// its type on its PE, when nonzero. A group's own `cores` is not read.
/// The list scheduler looks up no other core group, so a mode's pipeline
/// result is the same on this slice as on the full row.
[[nodiscard]] std::vector<CoreSet> used_cores(
    const std::vector<CoreSet>& row, std::span<const CoreGroup> groups);

}  // namespace mmsyn
