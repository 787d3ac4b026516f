#include "dvs/dvs_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "common/arena.hpp"
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

/// Builder scratch: everything but the returned graph lives here, reset
/// per call (DESIGN.md §12), so a warm thread builds without touching the
/// heap beyond the graph's own columns.
Arena& graph_arena() {
  thread_local Arena arena{1 << 14};
  return arena;
}

/// One DVS hardware PE's Fig. 5 segments, time-ordered. Columnar
/// (start/end/node) so the arrival lookup can lower_bound the starts
/// directly; the arrays live in the builder arena.
struct PeSegments {
  double* start = nullptr;  // ascending
  double* end = nullptr;
  std::int32_t* node = nullptr;  // DvsGraph node index
  std::size_t count = 0;
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

  Arena& arena = graph_arena();
  arena.reset();

  // Size bounds. Nodes: at most one task node per task, at most
  // (2 * hosted + incoming arrivals - 1) segments per DVS hardware PE and
  // one comm node per edge. Edges: the segment chains (< segments), two
  // data edges per task edge, the per-resource chains (< tasks) and the
  // per-CL chains (< task edges).
  const std::size_t max_nodes = 3 * n_tasks + 2 * n_edges;
  const std::size_t max_edges = 3 * n_tasks + 4 * n_edges;

  DvsGraph g;
  g.kind.reserve(max_nodes);
  g.ref.reserve(max_nodes);
  g.pe.reserve(max_nodes);
  g.tmin.reserve(max_nodes);
  g.e_nom.reserve(max_nodes);
  g.scalable.reserve(max_nodes);
  g.max_slowdown.reserve(max_nodes);
  g.deadline.reserve(max_nodes);
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
  std::int32_t* edge_src = arena.alloc<std::int32_t>(max_edges);
  std::int32_t* edge_dst = arena.alloc<std::int32_t>(max_edges);
  std::size_t edge_count = 0;
  auto add_edge = [&](std::int32_t u, std::int32_t v) {
    if (u == v) return;
    if (edge_count == max_edges)
      throw std::logic_error("build_dvs_graph: edge bound exceeded");
    edge_src[edge_count] = u;
    edge_dst[edge_count] = v;
    ++edge_count;
  };

  // ---- Classify PEs; hosted tasks per PE (CSR, ascending task id). -----
  std::uint8_t* is_dvs_hw = arena.alloc<std::uint8_t>(P);
  double* slowdown_cap = arena.alloc<double>(P);
  for (std::size_t p = 0; p < P; ++p) {
    const Pe& pe = arch.pe(PeId{static_cast<PeId::value_type>(p)});
    is_dvs_hw[p] = (scale_hardware && fig5_applies(pe)) ? 1 : 0;
    slowdown_cap[p] = pe_max_slowdown(pe);
  }
  std::int32_t* hosted_off = arena.alloc_filled<std::int32_t>(P + 1, 0);
  for (std::size_t t = 0; t < n_tasks; ++t)
    ++hosted_off[schedule.tasks[t].pe.index() + 1];
  for (std::size_t p = 0; p < P; ++p) hosted_off[p + 1] += hosted_off[p];
  std::int32_t* hosted = arena.alloc<std::int32_t>(n_tasks);
  {
    std::int32_t* cursor = arena.alloc<std::int32_t>(P);
    std::copy(hosted_off, hosted_off + P, cursor);
    for (std::size_t t = 0; t < n_tasks; ++t)
      hosted[cursor[schedule.tasks[t].pe.index()]++] =
          static_cast<std::int32_t>(t);
  }

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
        impl.energy(), scalable, scalable ? slowdown_cap[st.pe.index()] : 1.0,
        task_limit(id));
  }

  // ---- Fig. 5 transformation for each DVS hardware PE. ------------------
  // First/last segment ordinal of each task absorbed into a segment chain
  // (a task is hosted by one PE, so one array serves every PE).
  std::int32_t* task_first = arena.alloc_filled<std::int32_t>(n_tasks, -1);
  std::int32_t* task_last = arena.alloc_filled<std::int32_t>(n_tasks, -1);
  PeSegments* pe_segments = arena.alloc_filled<PeSegments>(P, PeSegments{});
  for (std::size_t pi = 0; pi < P; ++pi) {
    if (!is_dvs_hw[pi]) continue;
    const PeId p{static_cast<PeId::value_type>(pi)};
    const std::int32_t* hosted_begin = hosted + hosted_off[pi];
    const auto k = static_cast<std::size_t>(hosted_off[pi + 1] - hosted_off[pi]);
    if (k == 0) continue;
    PeSegments& ps = pe_segments[pi];

    // Per-hosted columns, in hosted order: the slice loop below reads
    // each task's window, power and deadline once per cut.
    double* h_start = arena.alloc<double>(k);
    double* h_finish = arena.alloc<double>(k);
    double* h_power = arena.alloc<double>(k);
    double* h_limit = arena.alloc<double>(k);
    for (std::size_t j = 0; j < k; ++j) {
      const TaskId id{static_cast<TaskId::value_type>(hosted_begin[j])};
      const ScheduledTask& st = schedule.tasks[id.index()];
      h_start[j] = st.start;
      h_finish[j] = st.finish;
      h_power[j] = tech.require(graph.task(id).type, p).dyn_power;
      h_limit[j] = task_limit(id);
    }

    // Cut points: task starts/finishes plus in-flight data arrivals.
    double* cuts = arena.alloc<double>(2 * k + n_edges);
    std::size_t n_cuts = 0;
    for (std::size_t j = 0; j < k; ++j) {
      cuts[n_cuts++] = h_start[j];
      cuts[n_cuts++] = h_finish[j];
    }
    for (std::size_t e = 0; e < n_edges; ++e) {
      const TaskEdge& edge = graph.edge(EdgeId{static_cast<EdgeId::value_type>(e)});
      if (schedule.tasks[edge.dst.index()].pe != p) continue;
      const ScheduledComm& comm = schedule.comms[e];
      if (!comm.local) cuts[n_cuts++] = comm.finish;
    }
    std::sort(cuts, cuts + n_cuts);
    n_cuts = static_cast<std::size_t>(
        std::unique(cuts, cuts + n_cuts,
                    [&](double a, double b) { return b - a < eps; }) -
        cuts);

    // Build segments: each [cuts[i], cuts[i+1]) slice with >= 1 active task.
    ps.start = arena.alloc<double>(n_cuts);
    ps.end = arena.alloc<double>(n_cuts);
    ps.node = arena.alloc<std::int32_t>(n_cuts);
    for (std::size_t i = 0; i + 1 < n_cuts; ++i) {
      const double a = cuts[i];
      const double b = cuts[i + 1];
      double power = 0.0;
      double deadline = mode.period;
      bool any_active = false;
      for (std::size_t j = 0; j < k; ++j) {
        if (h_start[j] <= a + eps && h_finish[j] >= b - eps) {
          any_active = true;
          power += h_power[j];
          if (std::abs(h_finish[j] - b) < eps)
            deadline = std::min(deadline, h_limit[j]);
        }
      }
      if (!any_active) continue;  // idle gap

      const std::int32_t idx = add_node(
          DvsNodeKind::kSegment, static_cast<int>(ps.count), p, b - a,
          power * (b - a), true, slowdown_cap[pi], deadline);
      ps.start[ps.count] = a;
      ps.end[ps.count] = b;
      ps.node[ps.count] = idx;
      ++ps.count;
    }

    // Map tasks to their first/last segments and chain the segments.
    for (std::size_t j = 0; j < k; ++j) {
      const auto ti = static_cast<std::size_t>(hosted_begin[j]);
      for (std::size_t s = 0; s < ps.count; ++s) {
        if (std::abs(ps.start[s] - h_start[j]) < eps && task_first[ti] == -1)
          task_first[ti] = static_cast<std::int32_t>(s);
        if (std::abs(ps.end[s] - h_finish[j]) < eps)
          task_last[ti] = static_cast<std::int32_t>(s);
      }
      if (task_first[ti] >= 0 && task_last[ti] >= 0) {
        g.task_node[ti] = ps.node[static_cast<std::size_t>(task_last[ti])];
        continue;
      }
      // Shorter than the cut tolerance: its start and finish merged into
      // one cut, so no segment covers it. It gets a fixed-voltage node of
      // its own, as on a non-DVS PE, carrying its time and energy.
      const TaskId id{static_cast<TaskId::value_type>(ti)};
      g.task_node[ti] = add_node(
          DvsNodeKind::kTask, static_cast<int>(ti), p,
          schedule.tasks[ti].duration(),
          tech.require(graph.task(id).type, p).energy(), false, 1.0,
          h_limit[j]);
    }
    for (std::size_t s = 0; s + 1 < ps.count; ++s)
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
    const std::size_t di = dst.index();
    const ScheduledTask& st = schedule.tasks[di];
    if (!is_dvs_hw[st.pe.index()]) return g.task_node[di];
    // A task with a node of its own takes its inputs there.
    if (task_first[di] < 0 || task_last[di] < 0) return g.task_node[di];
    // Earliest segment starting at/after the arrival; never later than the
    // task's own first segment (the arrival instant is a cut point).
    // Segment starts are ascending, so this is a binary search.
    const PeSegments& ps = pe_segments[st.pe.index()];
    const double* it =
        std::lower_bound(ps.start, ps.start + ps.count, arrival - eps);
    if (it != ps.start + ps.count)
      return ps.node[static_cast<std::size_t>(it - ps.start)];
    return g.task_node[di];
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
  // Each chain sorts its members (ascending task or edge id beforehand)
  // by start with std::sort and links neighbours; the input sequences
  // match the old per-resource vectors, so the emitted order does too.
  std::int32_t* order = arena.alloc<std::int32_t>(std::max(n_tasks, n_edges));
  auto chain_by_start = [&](std::int32_t* first, std::int32_t* last,
                            auto start_of, const std::int32_t* node_of) {
    std::sort(first, last, [&](std::int32_t a, std::int32_t b) {
      return start_of(a) < start_of(b);
    });
    for (std::int32_t* it = first; it + 1 < last; ++it)
      add_edge(node_of[*it], node_of[*(it + 1)]);
  };
  auto task_start = [&](std::int32_t t) {
    return schedule.tasks[static_cast<std::size_t>(t)].start;
  };
  // Software PEs and non-DVS hardware cores: chain by start time.
  for (std::size_t pi = 0; pi < P; ++pi) {
    if (is_dvs_hw[pi]) continue;  // already chained as segments
    const Pe& pe = arch.pe(PeId{static_cast<PeId::value_type>(pi)});
    std::int32_t* first = order;
    std::int32_t* last =
        std::copy(hosted + hosted_off[pi], hosted + hosted_off[pi + 1], first);
    if (is_software(pe.kind)) {
      chain_by_start(first, last, task_start, g.task_node.data());
      continue;
    }
    // Group by (task type, core instance), groups in key order and
    // ascending task id inside each (the id makes the key unique, so
    // std::sort yields a stable grouping); chain within each core.
    auto group_key = [&](std::int32_t t) {
      const auto ti = static_cast<std::size_t>(t);
      return std::pair{graph.task(TaskId{static_cast<TaskId::value_type>(t)})
                           .type,
                       schedule.tasks[ti].core_instance};
    };
    std::sort(first, last, [&](std::int32_t a, std::int32_t b) {
      return std::tuple{group_key(a), a} < std::tuple{group_key(b), b};
    });
    while (first != last) {
      std::int32_t* group_end = first + 1;
      while (group_end != last && group_key(*group_end) == group_key(*first))
        ++group_end;
      chain_by_start(first, group_end, task_start, g.task_node.data());
      first = group_end;
    }
  }
  // Communication links: chain transfers per CL, bucketed in one pass.
  {
    const std::size_t C = arch.cl_count();
    std::int32_t* cl_off = arena.alloc_filled<std::int32_t>(C + 1, 0);
    for (const ScheduledComm& comm : schedule.comms)
      if (!comm.local && comm.cl.valid()) ++cl_off[comm.cl.index() + 1];
    for (std::size_t c = 0; c < C; ++c) cl_off[c + 1] += cl_off[c];
    std::int32_t* cursor = arena.alloc<std::int32_t>(C);
    std::copy(cl_off, cl_off + C, cursor);
    for (std::size_t e = 0; e < n_edges; ++e) {
      const ScheduledComm& comm = schedule.comms[e];
      if (!comm.local && comm.cl.valid())
        order[cursor[comm.cl.index()]++] = static_cast<std::int32_t>(e);
    }
    auto comm_start = [&](std::int32_t e) {
      return schedule.comms[static_cast<std::size_t>(e)].start;
    };
    for (std::size_t c = 0; c < C; ++c)
      chain_by_start(order + cl_off[c], order + cl_off[c + 1], comm_start,
                     g.comm_node.data());
  }

  // ---- Pack the edge list into CSR (stable counting sort). --------------
  const std::size_t n = g.node_count();
  g.succ_off.assign(n + 1, 0);
  g.pred_off.assign(n + 1, 0);
  for (std::size_t i = 0; i < edge_count; ++i) {
    ++g.succ_off[static_cast<std::size_t>(edge_src[i]) + 1];
    ++g.pred_off[static_cast<std::size_t>(edge_dst[i]) + 1];
  }
  for (std::size_t u = 0; u < n; ++u) {
    g.succ_off[u + 1] += g.succ_off[u];
    g.pred_off[u + 1] += g.pred_off[u];
  }
  g.succ_adj.resize(edge_count);
  g.pred_adj.resize(edge_count);
  std::int32_t* scur = arena.alloc<std::int32_t>(n);
  std::int32_t* pcur = arena.alloc<std::int32_t>(n);
  std::copy(g.succ_off.begin(), g.succ_off.end() - 1, scur);
  std::copy(g.pred_off.begin(), g.pred_off.end() - 1, pcur);
  for (std::size_t i = 0; i < edge_count; ++i) {
    const auto u = static_cast<std::size_t>(edge_src[i]);
    const auto v = static_cast<std::size_t>(edge_dst[i]);
    g.succ_adj[static_cast<std::size_t>(scur[u]++)] = edge_dst[i];
    g.pred_adj[static_cast<std::size_t>(pcur[v]++)] = edge_src[i];
  }

  // ---- Topological order (Kahn, FIFO frontier). -------------------------
  // The frontier is the order itself: every node enters it once, in the
  // order it is popped.
  std::int32_t* indegree = arena.alloc<std::int32_t>(n);
  for (std::size_t u = 0; u < n; ++u)
    indegree[u] = g.pred_off[u + 1] - g.pred_off[u];
  std::int32_t* frontier = arena.alloc<std::int32_t>(n);
  std::size_t frontier_size = 0;
  for (std::size_t u = 0; u < n; ++u)
    if (indegree[u] == 0) frontier[frontier_size++] = static_cast<std::int32_t>(u);
  for (std::size_t cursor = 0; cursor < frontier_size; ++cursor)
    for (std::int32_t v : g.succs(static_cast<std::size_t>(frontier[cursor])))
      if (--indegree[static_cast<std::size_t>(v)] == 0)
        frontier[frontier_size++] = v;
  if (frontier_size != n)
    throw std::logic_error("build_dvs_graph: constructed graph is cyclic");
  g.topo.assign(frontier, frontier + n);
  return g;
}

}  // namespace mmsyn
