// ImplementHWcores (Fig. 4, line 05): derives the hardware core allocation
// from a task mapping.
//
// Every task type mapped onto a hardware PE needs at least one core of that
// type. While spare area remains, additional cores are allocated for types
// whose tasks can actually run in parallel — judged by overlapping
// contention-free ASAP execution windows, preferring low-mobility (urgent)
// tasks — so application parallelism (and, with DVS, the resulting slack)
// can be exploited. ASIC core sets are the per-type maximum over all modes
// (static silicon); FPGA sets are per-mode (reconfigurable).
//
// Two steps: mode_core_demand (lines 04–05 for one mode, a pure function
// of that mode's task→PE slice, which MappingGa memoises per slice) and
// assemble_core_allocation (the cross-mode ASIC maximum and the greedy
// core sets). build_core_allocation is their composition.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "model/core_allocation.hpp"
#include "model/mapping.hpp"

namespace mmsyn {

struct System;

struct AllocationOptions {
  /// Allocate extra cores for parallel tasks (disable to study the
  /// ablation of multi-core allocation).
  bool allocate_parallel_cores = true;
  /// Only tasks with mobility below this fraction of the mode period
  /// attract extra cores.
  double mobility_threshold = 0.5;
};

/// One mode's core demand: its hardware groups (hardware_groups(), same
/// order), each wanting one core plus the extra cores its overlapping
/// urgent tasks call for.
using ModeCoreDemand = std::vector<CoreGroup>;

/// Fig. 4 lines 04–05 for mode `m` alone: the demand of its task→PE
/// slice. Only a mode with a group of two or more tasks runs the mobility
/// analysis. A pure function of (system, m, slice, options).
[[nodiscard]] ModeCoreDemand mode_core_demand(
    const System& system, std::size_t m, const ModeMapping& slice,
    const AllocationOptions& options = {});

/// The allocation of every mode's demand (`demands[m]`, one per mode):
/// each ASIC gets one core set for all modes from the per-type maximum
/// over the modes, each FPGA one set per mode; extra cores are granted
/// greedily while the PE's area lasts.
[[nodiscard]] CoreAllocation assemble_core_allocation(
    const System& system, std::span<const std::span<const CoreGroup>> demands);

/// Builds the core allocation for `mapping`: mode_core_demand of every
/// mode, then assemble_core_allocation.
[[nodiscard]] CoreAllocation build_core_allocation(
    const System& system, const MultiModeMapping& mapping,
    const AllocationOptions& options = {});

/// Memo of mode_core_demand by (mode, task→PE slice) for one system and
/// one AllocationOptions: MappingGa's slice table. A demand is a pure
/// function of its slice, so the table can change no result. find() may
/// run concurrently with other finds; insert() runs alone.
class SliceTable {
public:
  /// At most `capacity` slices (0 = unbounded): an insert into a full
  /// table clears it first.
  explicit SliceTable(std::size_t capacity) : capacity_(capacity) {}

  /// Bucket hash of (m, slice); find and insert take it precomputed.
  [[nodiscard]] static std::size_t hash(std::size_t m,
                                        std::span<const PeId> slice);

  /// The demand stored for (m, slice), or null; `hash` is hash(m, slice).
  /// Reads the caller's slice in place, copying nothing.
  [[nodiscard]] const ModeCoreDemand* find(std::size_t m,
                                           std::span<const PeId> slice,
                                           std::size_t hash) const;

  /// Stores `demand` for (m, slice) unless the slice is already present.
  void insert(std::size_t m, std::span<const PeId> slice, std::size_t hash,
              ModeCoreDemand demand);

  [[nodiscard]] std::size_t size() const { return map_.size(); }

private:
  /// A stored (mode, slice) key with its hash.
  struct Key {
    std::size_t mode = 0;
    std::vector<PeId> slice;
    std::size_t hash = 0;
  };
  /// The same key viewing the caller's slice: find() looks it up as is.
  struct View {
    std::size_t mode = 0;
    std::span<const PeId> slice;
    std::size_t hash = 0;
  };
  /// Transparent hash and equality, so a View finds a Key.
  struct Hash {
    using is_transparent = void;
    std::size_t operator()(const auto& k) const noexcept { return k.hash; }
  };
  struct Equal {
    using is_transparent = void;
    bool operator()(const auto& a, const auto& b) const {
      return a.hash == b.hash && a.mode == b.mode &&
             std::ranges::equal(a.slice, b.slice);
    }
  };

  std::size_t capacity_;
  std::unordered_map<Key, ModeCoreDemand, Hash, Equal> map_;
};

}  // namespace mmsyn
