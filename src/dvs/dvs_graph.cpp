#include "dvs/dvs_graph.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

#include "dvs/voltage_model.hpp"
#include "model/architecture.hpp"
#include "model/omsm.hpp"
#include "model/tech_library.hpp"

namespace mmsyn {
namespace {

/// True when the PE's tasks can actually be voltage-scaled.
bool pe_scalable(const Pe& pe) {
  return pe.dvs_enabled && pe.voltage_levels.size() >= 2;
}

double pe_max_slowdown(const Pe& pe) {
  if (!pe_scalable(pe)) return 1.0;
  return VoltageModel(pe.vmax(), pe.threshold_voltage).slowdown(pe.vmin());
}

/// Per-PE segment bookkeeping produced by the Fig. 5 transformation.
/// Columnar (start/end/node) so the arrival lookup can lower_bound the
/// starts directly.
struct PeSegments {
  std::vector<double> start;   // time-ordered, ascending
  std::vector<double> end;
  std::vector<std::int32_t> node;  // DvsGraph node index
  std::vector<std::int32_t> task_first;  // per task id on this PE, or -1
  std::vector<std::int32_t> task_last;

  [[nodiscard]] std::size_t count() const { return start.size(); }
};

}  // namespace

bool fig5_applies(const Pe& pe) {
  return is_hardware(pe.kind) && pe_scalable(pe);
}

DvsGraph build_dvs_graph(const Mode& mode, const ModeSchedule& schedule,
                         const ModeMapping& mapping, const Architecture& arch,
                         const TechLibrary& tech, bool scale_hardware) {
  (void)mapping;  // PEs come from the schedule; kept for interface symmetry
  const TaskGraph& graph = mode.graph;
  const std::size_t n_tasks = graph.task_count();
  const std::size_t n_edges = graph.edge_count();
  const std::size_t P = arch.pe_count();
  const double eps = 1e-9 * std::max(1.0, schedule.makespan);

  DvsGraph g;
  g.task_node.assign(n_tasks, -1);
  g.comm_node.assign(n_edges, -1);

  auto task_limit = [&](TaskId t) {
    double limit = mode.period;
    if (const auto& dl = graph.task(t).deadline)
      limit = std::min(limit, *dl);
    return limit;
  };

  auto add_node = [&](DvsNodeKind kind, int ref, PeId pe, double tmin,
                      double e_nom, bool scalable, double max_slowdown,
                      double deadline) {
    g.kind.push_back(static_cast<std::uint8_t>(kind));
    g.ref.push_back(ref);
    g.pe.push_back(pe.valid() ? static_cast<std::int32_t>(pe.index()) : -1);
    g.tmin.push_back(tmin);
    g.e_nom.push_back(e_nom);
    g.scalable.push_back(scalable ? 1 : 0);
    g.max_slowdown.push_back(max_slowdown);
    g.deadline.push_back(deadline);
    return static_cast<std::int32_t>(g.node_count() - 1);
  };
  // Edges are collected in emission order and packed into CSR at the end
  // with a stable counting sort, so per-node neighbour order matches the
  // old vector-of-vectors push_back order exactly.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  auto add_edge = [&](std::int32_t u, std::int32_t v) {
    if (u == v) return;
    edges.emplace_back(u, v);
  };

  // ---- Classify PEs; group hosted tasks per PE in one pass. -------------
  std::vector<std::uint8_t> is_dvs_hw(P, 0);
  for (std::size_t p = 0; p < P; ++p) {
    const Pe& pe = arch.pe(PeId{static_cast<PeId::value_type>(p)});
    is_dvs_hw[p] = (scale_hardware && fig5_applies(pe)) ? 1 : 0;
  }
  std::vector<std::vector<std::int32_t>> hosted_by_pe(P);
  for (std::size_t t = 0; t < n_tasks; ++t)
    hosted_by_pe[schedule.tasks[t].pe.index()].push_back(
        static_cast<std::int32_t>(t));

  // ---- Task nodes for non-DVS-HW PEs. -----------------------------------
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    const ScheduledTask& st = schedule.tasks[t];
    if (is_dvs_hw[st.pe.index()]) continue;  // becomes segments below
    const Pe& pe = arch.pe(st.pe);
    const Implementation& impl = tech.require(graph.task(id).type, st.pe);
    const bool scalable = is_software(pe.kind) && pe_scalable(pe);
    g.task_node[t] = add_node(
        DvsNodeKind::kTask, static_cast<int>(t), st.pe, st.duration(),
        impl.energy(), scalable, scalable ? pe_max_slowdown(pe) : 1.0,
        task_limit(id));
  }

  // ---- Fig. 5 transformation for each DVS hardware PE. ------------------
  std::vector<PeSegments> pe_segments(P);
  for (std::size_t pi = 0; pi < P; ++pi) {
    if (!is_dvs_hw[pi]) continue;
    const PeId p{static_cast<PeId::value_type>(pi)};
    PeSegments& ps = pe_segments[pi];
    ps.task_first.assign(n_tasks, -1);
    ps.task_last.assign(n_tasks, -1);

    const std::vector<std::int32_t>& hosted = hosted_by_pe[pi];
    if (hosted.empty()) continue;

    // Cut points: task starts/finishes plus in-flight data arrivals.
    std::vector<double> cuts;
    cuts.reserve(2 * hosted.size());
    for (std::int32_t t : hosted) {
      cuts.push_back(schedule.tasks[static_cast<std::size_t>(t)].start);
      cuts.push_back(schedule.tasks[static_cast<std::size_t>(t)].finish);
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
      const TaskEdge& edge = graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
      if (schedule.tasks[edge.dst.index()].pe != p) continue;
      const ScheduledComm& comm = schedule.comms[e];
      if (!comm.local) cuts.push_back(comm.finish);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end(),
                           [&](double a, double b) { return b - a < eps; }),
               cuts.end());

    const Pe& pe = arch.pe(p);
    const double slowdown_cap = pe_max_slowdown(pe);

    // Build segments: each [cuts[i], cuts[i+1]) slice with >= 1 active task.
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const double a = cuts[i];
      const double b = cuts[i + 1];
      double power = 0.0;
      double deadline = mode.period;
      bool any_active = false;
      for (std::int32_t t : hosted) {
        const ScheduledTask& st = schedule.tasks[static_cast<std::size_t>(t)];
        if (st.start <= a + eps && st.finish >= b - eps) {
          any_active = true;
          const TaskId id{static_cast<TaskId::value_type>(t)};
          power += tech.require(graph.task(id).type, p).dyn_power;
          if (std::abs(st.finish - b) < eps)
            deadline = std::min(deadline, task_limit(id));
        }
      }
      if (!any_active) continue;  // idle gap

      const std::int32_t idx = add_node(
          DvsNodeKind::kSegment, static_cast<int>(ps.count()), p, b - a,
          power * (b - a), true, slowdown_cap, deadline);
      ps.start.push_back(a);
      ps.end.push_back(b);
      ps.node.push_back(idx);
    }

    // Map tasks to their first/last segments and chain the segments.
    for (std::int32_t t : hosted) {
      const auto ti = static_cast<std::size_t>(t);
      const ScheduledTask& st = schedule.tasks[ti];
      for (std::size_t s = 0; s < ps.count(); ++s) {
        if (std::abs(ps.start[s] - st.start) < eps && ps.task_first[ti] == -1)
          ps.task_first[ti] = static_cast<std::int32_t>(s);
        if (std::abs(ps.end[s] - st.finish) < eps)
          ps.task_last[ti] = static_cast<std::int32_t>(s);
      }
      if (ps.task_first[ti] >= 0 && ps.task_last[ti] >= 0) {
        g.task_node[ti] =
            ps.node[static_cast<std::size_t>(ps.task_last[ti])];
        continue;
      }
      // Shorter than the cut tolerance: its start and finish merged into
      // one cut, so no segment covers it. It gets a fixed-voltage node of
      // its own, as on a non-DVS PE, carrying its time and energy.
      const TaskId id{static_cast<TaskId::value_type>(t)};
      g.task_node[ti] = add_node(
          DvsNodeKind::kTask, t, p, st.duration(),
          tech.require(graph.task(id).type, p).energy(), false, 1.0,
          task_limit(id));
    }
    for (std::size_t s = 0; s + 1 < ps.count(); ++s)
      add_edge(ps.node[s], ps.node[s + 1]);
  }

  // ---- Communication nodes. ---------------------------------------------
  for (std::size_t e = 0; e < n_edges; ++e) {
    const ScheduledComm& comm = schedule.comms[e];
    if (comm.local) continue;
    g.comm_node[e] = add_node(
        DvsNodeKind::kComm, static_cast<int>(e), PeId::invalid(),
        comm.duration(),
        comm.cl.valid() ? arch.cl(comm.cl).transfer_power * comm.duration()
                        : 0.0,
        false, 1.0, mode.period);
  }

  // ---- Data-precedence edges. -------------------------------------------
  auto in_node_for = [&](TaskId dst, double arrival) {
    const ScheduledTask& st = schedule.tasks[dst.index()];
    if (!is_dvs_hw[st.pe.index()]) return g.task_node[dst.index()];
    // A task with a node of its own takes its inputs there.
    const PeSegments& ps = pe_segments[st.pe.index()];
    if (ps.task_first[dst.index()] < 0 || ps.task_last[dst.index()] < 0)
      return g.task_node[dst.index()];
    // Earliest segment starting at/after the arrival; never later than the
    // task's own first segment (the arrival instant is a cut point).
    // Segment starts are ascending, so this is a binary search.
    const auto it = std::lower_bound(ps.start.begin(), ps.start.end(),
                                     arrival - eps);
    if (it != ps.start.end())
      return ps.node[static_cast<std::size_t>(it - ps.start.begin())];
    return g.task_node[dst.index()];
  };

  for (std::size_t e = 0; e < n_edges; ++e) {
    const TaskEdge& edge = graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
    const std::int32_t out_node = g.task_node[edge.src.index()];
    const ScheduledComm& comm = schedule.comms[e];
    if (comm.local) {
      add_edge(out_node, in_node_for(edge.dst, comm.finish));
    } else {
      const std::int32_t cn = g.comm_node[e];
      add_edge(out_node, cn);
      add_edge(cn, in_node_for(edge.dst, comm.finish));
    }
  }

  // ---- Resource execution-order edges. ----------------------------------
  // Software PEs and non-DVS hardware cores: chain by start time.
  for (std::size_t pi = 0; pi < P; ++pi) {
    if (is_dvs_hw[pi]) continue;  // already chained as segments
    const PeId p{static_cast<PeId::value_type>(pi)};
    const Pe& pe = arch.pe(p);
    if (is_software(pe.kind)) {
      std::vector<std::int32_t> hosted = hosted_by_pe[pi];
      std::sort(hosted.begin(), hosted.end(),
                [&](std::int32_t a, std::int32_t b) {
                  return schedule.tasks[static_cast<std::size_t>(a)].start <
                         schedule.tasks[static_cast<std::size_t>(b)].start;
                });
      for (std::size_t i = 0; i + 1 < hosted.size(); ++i)
        add_edge(g.task_node[static_cast<std::size_t>(hosted[i])],
                 g.task_node[static_cast<std::size_t>(hosted[i + 1])]);
    } else {
      // Group by (task type, core instance); chain within each core.
      std::map<std::pair<TaskTypeId, int>, std::vector<std::int32_t>> groups;
      for (std::int32_t t : hosted_by_pe[pi]) {
        const auto ti = static_cast<std::size_t>(t);
        const TaskId id{static_cast<TaskId::value_type>(t)};
        groups[{graph.task(id).type, schedule.tasks[ti].core_instance}]
            .push_back(t);
      }
      for (auto& [key, hosted] : groups) {
        std::sort(hosted.begin(), hosted.end(),
                  [&](std::int32_t a, std::int32_t b) {
                    return schedule.tasks[static_cast<std::size_t>(a)].start <
                           schedule.tasks[static_cast<std::size_t>(b)].start;
                  });
        for (std::size_t i = 0; i + 1 < hosted.size(); ++i)
          add_edge(g.task_node[static_cast<std::size_t>(hosted[i])],
                   g.task_node[static_cast<std::size_t>(hosted[i + 1])]);
      }
    }
  }
  // Communication links: chain transfers per CL.
  for (ClId c : arch.cl_ids()) {
    std::vector<std::size_t> on_link;
    for (std::size_t e = 0; e < n_edges; ++e)
      if (!schedule.comms[e].local && schedule.comms[e].cl == c)
        on_link.push_back(e);
    std::sort(on_link.begin(), on_link.end(), [&](std::size_t a, std::size_t b) {
      return schedule.comms[a].start < schedule.comms[b].start;
    });
    for (std::size_t i = 0; i + 1 < on_link.size(); ++i)
      add_edge(g.comm_node[on_link[i]], g.comm_node[on_link[i + 1]]);
  }

  // ---- Pack the edge list into CSR (stable counting sort). --------------
  const std::size_t n = g.node_count();
  g.succ_off.assign(n + 1, 0);
  g.pred_off.assign(n + 1, 0);
  for (const auto& [u, v] : edges) {
    ++g.succ_off[static_cast<std::size_t>(u) + 1];
    ++g.pred_off[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) {
    g.succ_off[u + 1] += g.succ_off[u];
    g.pred_off[u + 1] += g.pred_off[u];
  }
  g.succ_adj.resize(edges.size());
  g.pred_adj.resize(edges.size());
  std::vector<std::int32_t> scur(g.succ_off.begin(), g.succ_off.end() - 1);
  std::vector<std::int32_t> pcur(g.pred_off.begin(), g.pred_off.end() - 1);
  for (const auto& [u, v] : edges) {
    g.succ_adj[static_cast<std::size_t>(scur[static_cast<std::size_t>(u)]++)] = v;
    g.pred_adj[static_cast<std::size_t>(pcur[static_cast<std::size_t>(v)]++)] = u;
  }

  // ---- Topological order (Kahn, FIFO frontier). -------------------------
  std::vector<std::int32_t> indegree(n);
  for (std::size_t u = 0; u < n; ++u)
    indegree[u] = g.pred_off[u + 1] - g.pred_off[u];
  g.topo.reserve(n);
  std::vector<std::int32_t> frontier;
  for (std::size_t u = 0; u < n; ++u)
    if (indegree[u] == 0) frontier.push_back(static_cast<std::int32_t>(u));
  std::size_t cursor = 0;
  while (cursor < frontier.size()) {
    const std::int32_t u = frontier[cursor++];
    g.topo.push_back(u);
    for (std::int32_t v : g.succs(static_cast<std::size_t>(u)))
      if (--indegree[static_cast<std::size_t>(v)] == 0) frontier.push_back(v);
  }
  if (g.topo.size() != n)
    throw std::logic_error("build_dvs_graph: constructed graph is cyclic");
  return g;
}

}  // namespace mmsyn
