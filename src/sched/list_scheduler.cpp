// Data-oriented list scheduler (DESIGN.md §12).
//
// The scheduler is the hottest stage of the GA inner loop, so it runs on a
// per-call workspace instead of allocating per candidate:
//
//  - all POD scratch (priorities, ready-queue keys, predecessor counts,
//    slot columns) lives in a thread-local bump Arena that is reset — not
//    freed — between calls;
//  - timelines are pooled and cleared, never reallocated;
//  - CL routing uses a P×P CSR link table (sched/link_table.hpp) built
//    once per call from the architecture, replacing the per-edge
//    `links_between` vector materialisation;
//  - the ready queue is a binary heap over 128-bit packed keys (priority
//    as an order-preserving integer, tie-broken by task id), replacing the
//    O(n²) linear selection scan.
//
// Every floating-point expression and every tie-break is kept identical to
// the original implementation (see bench/reference_kernels.cpp for the
// frozen baseline); the staged-vs-legacy property tests and the
// micro-kernel bit-compare enforce byte-identical ModeSchedule artifacts.
#include "sched/list_scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/arena.hpp"
#include "model/architecture.hpp"
#include "model/omsm.hpp"
#include "model/tech_library.hpp"
#include "sched/link_table.hpp"
#include "sched/timeline.hpp"

namespace mmsyn {
namespace {

constexpr std::int32_t kNoGroup = -1;

/// Per-thread scratch reused across list_schedule calls. The arena holds
/// all POD arrays; timelines (which own heap storage) are pooled
/// separately so their interval buffers are recycled too.
struct SchedWorkspace {
  Arena arena{1 << 16};
  std::vector<Timeline> timelines;
};

SchedWorkspace& workspace() {
  thread_local SchedWorkspace ws;
  return ws;
}

/// Growable view over the pooled timeline storage. `acquire` hands out the
/// statically-known resources (CLs first, then PE/core timelines);
/// `append` adds implicit-core timelines discovered during scheduling.
class TimelinePool {
public:
  explicit TimelinePool(std::vector<Timeline>& storage) : storage_(storage) {}

  void acquire(std::size_t count) {
    if (storage_.size() < count) storage_.resize(count);
    for (std::size_t i = 0; i < count; ++i) storage_[i].clear();
    used_ = count;
  }

  [[nodiscard]] std::int32_t append() {
    if (storage_.size() <= used_) storage_.emplace_back();
    storage_[used_].clear();
    return static_cast<std::int32_t>(used_++);
  }

  [[nodiscard]] Timeline& operator[](std::size_t i) { return storage_[i]; }

private:
  std::vector<Timeline>& storage_;
  std::size_t used_ = 0;
};

/// Packs (priority, task id) into one 128-bit key so the ready queue
/// orders by a single integer compare: higher priority wins, ties go to
/// the lower task id. The double is mapped to an order-preserving uint64
/// (sign-magnitude flip); `+ 0.0` canonicalises -0.0 so the kTopoOrder
/// priority of task 0 (-0.0) compares equal to +0.0.
[[nodiscard]] inline unsigned __int128 ready_key(double priority,
                                                 std::uint32_t task) {
  std::uint64_t bits = std::bit_cast<std::uint64_t>(priority + 0.0);
  bits = (bits & 0x8000000000000000ull) ? ~bits
                                        : (bits | 0x8000000000000000ull);
  return (static_cast<unsigned __int128>(bits) << 64) |
         static_cast<std::uint64_t>(~task);
}

[[nodiscard]] inline std::uint32_t ready_key_task(unsigned __int128 key) {
  return ~static_cast<std::uint32_t>(static_cast<std::uint64_t>(key));
}

/// Bottom level: longest path from task start to any sink's finish, using
/// mapped execution times and best-case communication delays. Classic list
/// scheduling priority: larger == more urgent.
std::vector<double> bottom_levels(const TaskGraph& graph,
                                  const ModeMapping& mapping,
                                  const Architecture& arch,
                                  const TechLibrary& tech, Arena& arena) {
  const LinkTable links = build_link_table(arch, arena);
  const std::size_t n = graph.task_count();
  double* exec = arena.alloc<double>(n);
  for (std::size_t t = 0; t < n; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    exec[t] = tech.require(graph.task(id).type, mapping.task_to_pe[t])
                  .exec_time;
  }
  std::vector<double> level(n, 0.0);
  const auto& topo = graph.topological_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const TaskId u = *it;
    double tail = 0.0;
    for (EdgeId e : graph.out_edges(u)) {
      const TaskEdge& edge = graph.edge(e);
      const double comm = best_case_delay(
          links, arch, mapping.task_to_pe[edge.src.index()],
          mapping.task_to_pe[edge.dst.index()], edge.data_bits);
      tail = std::max(tail, comm + level[edge.dst.index()]);
    }
    level[u.index()] = exec[u.index()] + tail;
  }
  return level;
}

}  // namespace

std::vector<double> scheduling_priorities(const ListSchedulerInput& input) {
  const TaskGraph& graph = input.mode.graph;
  const std::size_t n = graph.task_count();
  std::vector<double> priority;
  switch (input.policy) {
    case SchedulingPolicy::kBottomLevel: {
      SchedWorkspace& ws = workspace();
      ws.arena.reset();
      priority =
          bottom_levels(graph, input.mapping, input.arch, input.tech, ws.arena);
      break;
    }
    case SchedulingPolicy::kTopoOrder:
      priority.resize(n);
      for (std::size_t t = 0; t < n; ++t)
        priority[t] = -static_cast<double>(t);
      break;
    case SchedulingPolicy::kLongestTask:
      priority.resize(n);
      for (std::size_t t = 0; t < n; ++t) {
        const TaskId id{static_cast<TaskId::value_type>(t)};
        priority[t] =
            input.tech.require(graph.task(id).type, input.mapping.task_to_pe[t])
                .exec_time;
      }
      break;
  }
  return priority;
}

ModeSchedule list_schedule(const ListSchedulerInput& input) {
  return list_schedule(input, scheduling_priorities(input));
}

ModeSchedule list_schedule(const ListSchedulerInput& input,
                           const std::vector<double>& priority) {
  const TaskGraph& graph = input.mode.graph;
  const std::size_t n = graph.task_count();
  const std::size_t m = graph.edge_count();
  assert(priority.size() == n);

  SchedWorkspace& ws = workspace();
  ws.arena.reset();
  Arena& arena = ws.arena;

  const LinkTable links = build_link_table(input.arch, arena);

  // --- Resource layout: CL timelines first, then per-PE core groups. ----
  const std::size_t P = input.arch.pe_count();
  const std::size_t T = input.tech.type_count();
  // group_off[p*T + type]: first timeline of the (pe, type) core group;
  // kNoGroup if the type has no allocated cores on that PE. Software PEs
  // use pe_base[p] (their single sequential resource) instead.
  std::int32_t* group_off = arena.alloc_filled<std::int32_t>(P * T, kNoGroup);
  std::int32_t* group_cnt = arena.alloc_filled<std::int32_t>(P * T, 0);
  std::int32_t* pe_base = arena.alloc_filled<std::int32_t>(P, kNoGroup);
  std::uint8_t* pe_sw = arena.alloc<std::uint8_t>(P);

  std::size_t tl_count = input.arch.cl_count();
  for (std::size_t p = 0; p < P; ++p) {
    const Pe& pe = input.arch.pe(PeId{static_cast<PeId::value_type>(p)});
    pe_sw[p] = is_software(pe.kind) ? 1 : 0;
    if (pe_sw[p]) {
      pe_base[p] = static_cast<std::int32_t>(tl_count++);
      continue;
    }
    for (const auto& [type, count] : input.hw_cores[p].entries()) {
      group_off[p * T + type.index()] = static_cast<std::int32_t>(tl_count);
      group_cnt[p * T + type.index()] = count;
      tl_count += static_cast<std::size_t>(count);
    }
  }
  TimelinePool pool(ws.timelines);
  pool.acquire(tl_count);

  // --- Task columns (SoA slot arrays; scattered into the artifact at the
  // end) and the dependency/ready state. ---------------------------------
  double* exec = arena.alloc<double>(n);
  double* t_start = arena.alloc<double>(n);
  double* t_finish = arena.alloc<double>(n);
  std::int32_t* t_core = arena.alloc<std::int32_t>(n);
  double* c_start = arena.alloc<double>(m);
  double* c_finish = arena.alloc<double>(m);
  std::int32_t* c_cl = arena.alloc<std::int32_t>(m);
  std::uint8_t* c_local = arena.alloc<std::uint8_t>(m);
  std::int32_t* unscheduled_preds = arena.alloc<std::int32_t>(n);

  for (std::size_t t = 0; t < n; ++t) {
    const TaskId id{static_cast<TaskId::value_type>(t)};
    exec[t] = input.tech.require(graph.task(id).type, input.mapping.task_to_pe[t])
                  .exec_time;
    unscheduled_preds[t] = static_cast<std::int32_t>(graph.in_edges(id).size());
  }

  unsigned __int128* heap = arena.alloc<unsigned __int128>(n);
  std::size_t heap_size = 0;
  const auto push_ready = [&](std::size_t t) {
    heap[heap_size++] =
        ready_key(priority[t], static_cast<std::uint32_t>(t));
    std::push_heap(heap, heap + heap_size);
  };
  for (std::size_t t = 0; t < n; ++t)
    if (unscheduled_preds[t] == 0) push_ready(t);

  bool routable = true;
  double makespan = 0.0;
  std::size_t scheduled = 0;
  while (heap_size > 0) {
    // Highest priority first; ties broken by lower task id — both encoded
    // in the packed key, so the heap pop is the whole selection step.
    std::pop_heap(heap, heap + heap_size);
    const std::size_t u = ready_key_task(heap[--heap_size]);
    const TaskId uid{static_cast<TaskId::value_type>(u)};

    const PeId pe = input.mapping.task_to_pe[u];
    const std::size_t pi = pe.index();
    const TaskTypeId type = graph.task(uid).type;
    const double dur = exec[u];

    // Route every incoming edge, committing the earliest-delivery CL.
    double est = 0.0;
    for (EdgeId e : graph.in_edges(uid)) {
      const TaskEdge& edge = graph.edge(e);
      const std::size_t ei = e.index();
      const double pred_finish = t_finish[edge.src.index()];
      const PeId src_pe = input.mapping.task_to_pe[edge.src.index()];
      if (src_pe == pe) {
        c_local[ei] = 1;
        c_cl[ei] = -1;
        c_start[ei] = c_finish[ei] = pred_finish;
        est = std::max(est, pred_finish);
        continue;
      }
      c_local[ei] = 0;
      const auto row = links.row(src_pe.index(), pi);
      if (row.empty()) {
        routable = false;
        c_cl[ei] = -1;
        c_start[ei] = pred_finish;
        c_finish[ei] = pred_finish + kUnroutablePenalty;
        est = std::max(est, c_finish[ei]);
        continue;
      }
      double best_finish = std::numeric_limits<double>::infinity();
      double best_start = 0.0;
      double best_dur = 0.0;
      std::int32_t best_cl = -1;
      for (std::int32_t c : row) {
        const Cl& link = input.arch.cl(ClId{static_cast<ClId::value_type>(c)});
        const double d = link.startup_latency + edge.data_bits / link.bandwidth;
        const double s = pool[static_cast<std::size_t>(c)].earliest_fit(
            pred_finish, d);
        if (s + d < best_finish) {
          best_finish = s + d;
          best_start = s;
          best_dur = d;
          best_cl = c;
        }
      }
      pool[static_cast<std::size_t>(best_cl)].reserve(best_start, best_dur);
      c_cl[ei] = best_cl;
      c_start[ei] = best_start;
      c_finish[ei] = best_start + best_dur;
      est = std::max(est, c_finish[ei]);
    }

    // Earliest-fitting (start, instance) over the task's core group (or
    // the software PE's single timeline). Equal starts keep the lowest
    // instance, as before.
    double start;
    std::int32_t instance = 0;
    if (pe_sw[pi]) {
      start = pool[static_cast<std::size_t>(pe_base[pi])].earliest_fit(est, dur);
      pool[static_cast<std::size_t>(pe_base[pi])].reserve(start, dur);
    } else {
      std::int32_t off = group_off[pi * T + type.index()];
      std::int32_t cnt = group_cnt[pi * T + type.index()];
      if (off == kNoGroup) {
        // Type not in the allocated core set: behave as one implicit core
        // so the schedule stays well-defined; the fitness layer charges
        // the area for it via the allocation builder.
        off = pool.append();
        cnt = 1;
        group_off[pi * T + type.index()] = off;
        group_cnt[pi * T + type.index()] = cnt;
      }
      start = std::numeric_limits<double>::infinity();
      for (std::int32_t i = 0; i < cnt; ++i) {
        const double s = pool[static_cast<std::size_t>(off + i)].earliest_fit(
            est, dur);
        if (s < start) {
          start = s;
          instance = i;
        }
      }
      pool[static_cast<std::size_t>(off + instance)].reserve(start, dur);
    }

    t_start[u] = start;
    t_finish[u] = start + dur;
    t_core[u] = instance;
    makespan = std::max(makespan, t_finish[u]);
    ++scheduled;

    for (EdgeId e : graph.out_edges(uid)) {
      const std::size_t v = graph.edge(e).dst.index();
      if (--unscheduled_preds[v] == 0) push_ready(v);
    }
  }
  assert(scheduled == n && "task graph must be acyclic");

  // --- Scatter the slot columns into the canonical artifact. ------------
  ModeSchedule result;
  result.routable = routable;
  result.tasks.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    ScheduledTask& st = result.tasks[t];
    st.task = TaskId{static_cast<TaskId::value_type>(t)};
    st.pe = input.mapping.task_to_pe[t];
    st.core_instance = t_core[t];
    st.start = t_start[t];
    st.finish = t_finish[t];
  }
  result.comms.resize(m);
  for (std::size_t e = 0; e < m; ++e) {
    ScheduledComm& sc = result.comms[e];
    sc.edge = EdgeId{static_cast<EdgeId::value_type>(e)};
    sc.cl = c_cl[e] >= 0 ? ClId{static_cast<ClId::value_type>(c_cl[e])}
                         : ClId::invalid();
    sc.local = c_local[e] != 0;
    sc.start = c_start[e];
    sc.finish = c_finish[e];
    makespan = std::max(makespan, sc.finish);
  }
  result.makespan = makespan;
  return result;
}

}  // namespace mmsyn
