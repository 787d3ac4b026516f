#include "sched/mobility.hpp"

#include <algorithm>

#include "common/arena.hpp"
#include "model/architecture.hpp"
#include "model/omsm.hpp"
#include "model/tech_library.hpp"
#include "sched/link_table.hpp"

namespace mmsyn {

MobilityInfo compute_mobility(const Mode& mode, const ModeMapping& mapping,
                              const Architecture& arch,
                              const TechLibrary& tech) {
  const TaskGraph& graph = mode.graph;
  const std::size_t n = graph.task_count();
  MobilityInfo info;
  info.asap_start.assign(n, 0.0);
  info.alap_start.assign(n, 0.0);
  info.exec_time.assign(n, 0.0);
  info.mobility.assign(n, 0.0);

  for (std::size_t t = 0; t < n; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    info.exec_time[t] =
        tech.require(graph.task(id).type, mapping.task_to_pe[t]).exec_time;
  }

  // Contention-free delay of every edge, computed once for both passes.
  // Unconnected PEs get kUnroutablePenalty (huge but finite), so mobility
  // stays well-defined; the list scheduler reports the infeasibility.
  thread_local Arena arena{1 << 12};
  arena.reset();
  const LinkTable links = build_link_table(arch, arena);
  double* delay = arena.alloc<double>(graph.edge_count());
  for (std::size_t e = 0; e < graph.edge_count(); ++e) {
    const TaskEdge& edge =
        graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
    delay[e] = best_case_delay(links, arch,
                               mapping.task_to_pe[edge.src.index()],
                               mapping.task_to_pe[edge.dst.index()],
                               edge.data_bits);
  }

  const auto& topo = graph.topological_order();

  // Forward (ASAP) pass.
  for (TaskId u : topo) {
    double start = 0.0;
    for (EdgeId e : graph.in_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      start = std::max(start, info.asap_start[edge.src.index()] +
                                  info.exec_time[edge.src.index()] +
                                  delay[e.index()]);
    }
    info.asap_start[u.index()] = start;
    info.critical_path =
        std::max(info.critical_path, start + info.exec_time[u.index()]);
  }

  // Backward (ALAP) pass anchored at min(deadline, period); if the period
  // is tighter than the critical path, anchor at the critical path so the
  // mobility values stay non-negative and still rank tasks usefully.
  const double anchor = std::max(mode.period, info.critical_path);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    double limit = anchor;
    if (const auto& dl = graph.task(u).deadline)
      limit = std::min(limit, std::max(*dl, info.asap_start[u.index()] +
                                                info.exec_time[u.index()]));
    double latest_finish = limit;
    for (EdgeId e : graph.out_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      latest_finish = std::min(
          latest_finish, info.alap_start[edge.dst.index()] - delay[e.index()]);
    }
    info.alap_start[u.index()] = latest_finish - info.exec_time[u.index()];
    info.mobility[u.index()] = std::max(
        0.0, info.alap_start[u.index()] - info.asap_start[u.index()]);
  }
  return info;
}

}  // namespace mmsyn
