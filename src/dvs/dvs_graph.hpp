// DVS problem graph for one scheduled mode.
//
// The voltage-scaling algorithm (pv_dvs.hpp) operates on a DAG whose nodes
// are the *activities* of the mode's schedule — tasks, inter-PE
// communications, and, for DVS-enabled hardware PEs, the virtual sequential
// segments of the paper's Fig. 5 transformation — and whose edges encode
// both data precedence and resource execution order. Edges are constructed
// forward-in-schedule-time, which keeps the graph acyclic by construction.
//
// Fig. 5 transformation: all cores of a DVS hardware PE share one supply,
// so parallel tasks cannot be scaled independently. The PE's busy timeline
// is cut at every task start, task finish, and incoming-data arrival that
// falls inside a busy interval; each resulting slice becomes one *segment*
// node with power equal to the sum of the concurrently active core powers.
// Segments chain sequentially and inherit the tightest deadline of the
// tasks finishing at their end. Cutting at data-arrival instants guarantees
// that cross-PE edges attach to a segment starting no earlier than the
// arrival, i.e. edges never point backward in time. A task shorter than
// the cut tolerance (its start and finish merge into one cut) lies in no
// segment; it keeps a fixed-voltage task node of its own instead.
//
// Layout (DESIGN.md §12): the graph is structure-of-arrays — one column
// per node attribute plus CSR adjacency — because the PV-DVS inner loop
// streams whole columns (tmin, deadline, adjacency) thousands of times per
// candidate. Per-node lists preserve edge emission order, so traversals
// visit neighbours in exactly the order the old vector-of-vectors layout
// did (bench/reference_kernels.cpp keeps that layout for the bit-compare).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/ids.hpp"
#include "model/mapping.hpp"
#include "sched/schedule.hpp"

namespace mmsyn {

struct Mode;
struct Pe;
class Architecture;
class TechLibrary;

/// Node kinds of the DVS graph.
enum class DvsNodeKind : std::uint8_t {
  kTask,     ///< a task on a software PE or non-DVS hardware PE, or a
             ///< DVS-hardware task shorter than the segment cut tolerance
  kComm,     ///< an inter-PE communication on a CL
  kSegment,  ///< a Fig.-5 virtual segment of a DVS hardware PE
};

/// One activity node, gathered from the columnar graph (see
/// DvsGraph::node). Cold consumers (reports, audits, tests) use this view;
/// hot loops read the columns directly.
struct DvsNode {
  DvsNodeKind kind = DvsNodeKind::kTask;
  /// Task id (kTask), edge id (kComm), or per-PE segment ordinal (kSegment).
  int ref = -1;
  /// Owning resource: PE for tasks/segments, invalid for comms.
  PeId pe;
  /// Nominal (unscaled) duration, seconds.
  double tmin = 0.0;
  /// Nominal dynamic energy at V_max, joules.
  double e_nom = 0.0;
  /// True when the node's supply voltage may be lowered.
  bool scalable = false;
  /// Largest allowed stretch factor t/tmin (from the PE's lowest level).
  double max_slowdown = 1.0;
  /// Absolute latest-finish constraint (mode period and/or task deadline).
  double deadline = std::numeric_limits<double>::infinity();
};

/// The DAG, structure-of-arrays. Node indices are positions in the
/// columns; all node columns have node_count() entries.
struct DvsGraph {
  // ---- Node columns. ----------------------------------------------------
  std::vector<std::uint8_t> kind;          // DvsNodeKind
  std::vector<std::int32_t> ref;
  std::vector<std::int32_t> pe;            // PE index; -1 == invalid (comms)
  std::vector<double> tmin;
  std::vector<double> e_nom;
  std::vector<std::uint8_t> scalable;      // bool
  std::vector<double> max_slowdown;
  std::vector<double> deadline;

  // ---- CSR adjacency (per-node lists in edge emission order). -----------
  std::vector<std::int32_t> succ_off;      // node_count()+1 offsets
  std::vector<std::int32_t> succ_adj;
  std::vector<std::int32_t> pred_off;
  std::vector<std::int32_t> pred_adj;

  /// Topological order (valid by construction).
  std::vector<std::int32_t> topo;

  /// node index of each task (kTask) or of the task's *last* segment
  /// (tasks absorbed into a DVS-HW chain); index == task id. Always a
  /// valid node.
  std::vector<std::int32_t> task_node;
  /// node index of each non-local comm; -1 for local edges. index == edge id.
  std::vector<std::int32_t> comm_node;

  [[nodiscard]] std::size_t node_count() const { return tmin.size(); }

  [[nodiscard]] std::span<const std::int32_t> succs(std::size_t u) const {
    return {succ_adj.data() + succ_off[u],
            static_cast<std::size_t>(succ_off[u + 1] - succ_off[u])};
  }
  [[nodiscard]] std::span<const std::int32_t> preds(std::size_t u) const {
    return {pred_adj.data() + pred_off[u],
            static_cast<std::size_t>(pred_off[u + 1] - pred_off[u])};
  }

  /// Gathers node `i`'s columns into the row view.
  [[nodiscard]] DvsNode node(std::size_t i) const {
    DvsNode n;
    n.kind = static_cast<DvsNodeKind>(kind[i]);
    n.ref = ref[i];
    n.pe = pe[i] >= 0 ? PeId{static_cast<PeId::value_type>(pe[i])}
                      : PeId::invalid();
    n.tmin = tmin[i];
    n.e_nom = e_nom[i];
    n.scalable = scalable[i] != 0;
    n.max_slowdown = max_slowdown[i];
    n.deadline = deadline[i];
    return n;
  }
};

/// True when the Fig. 5 transformation applies to `pe` (under
/// scale_hardware): a DVS-enabled hardware PE with at least two voltage
/// levels. Tasks on every other PE keep task nodes.
[[nodiscard]] bool fig5_applies(const Pe& pe);

/// Builds the DVS graph from a mode schedule. `scale_hardware` enables the
/// Fig. 5 transformation for DVS hardware PEs; when false those PEs are
/// treated like fixed-voltage hardware (software-only DVS, the prior-work
/// baseline).
[[nodiscard]] DvsGraph build_dvs_graph(const Mode& mode,
                                       const ModeSchedule& schedule,
                                       const ModeMapping& mapping,
                                       const Architecture& arch,
                                       const TechLibrary& tech,
                                       bool scale_hardware = true);

}  // namespace mmsyn
