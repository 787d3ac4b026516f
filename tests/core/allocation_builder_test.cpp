#include "core/allocation_builder.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "model/system.hpp"

namespace mmsyn {
namespace {

/// Fixture: GPP + ASIC + FPGA; one type everywhere; two modes.
class AllocationBuilderTest : public ::testing::Test {
 protected:
  AllocationBuilderTest() {
    Pe gpp;
    gpp.name = "GPP";
    sw_ = system_.arch.add_pe(gpp);
    Pe asic;
    asic.name = "ASIC";
    asic.kind = PeKind::kAsic;
    asic.area_capacity = 1000.0;
    asic_ = system_.arch.add_pe(asic);
    Pe fpga;
    fpga.name = "FPGA";
    fpga.kind = PeKind::kFpga;
    fpga.area_capacity = 1000.0;
    fpga.reconfig_bandwidth = 1e5;
    fpga_ = system_.arch.add_pe(fpga);
    Cl bus;
    bus.attached = {sw_, asic_, fpga_};
    system_.arch.add_cl(bus);

    type_ = system_.tech.add_type("T");
    system_.tech.set_implementation(type_, sw_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(type_, asic_, {1e-3, 1e-3, 300.0});
    system_.tech.set_implementation(type_, fpga_, {1e-3, 1e-3, 300.0});
    other_ = system_.tech.add_type("U");
    system_.tech.set_implementation(other_, sw_, {10e-3, 0.1, 0.0});
    system_.tech.set_implementation(other_, asic_, {1e-3, 1e-3, 300.0});
  }

  /// One mode with `n` independent tasks of type_, one with a single task.
  void build_modes(int parallel_tasks) {
    Mode a;
    a.name = "A";
    a.probability = 0.5;
    a.period = 0.1;
    for (int i = 0; i < parallel_tasks; ++i)
      a.graph.add_task("p" + std::to_string(i), type_);
    system_.omsm.add_mode(std::move(a));
    Mode b;
    b.name = "B";
    b.probability = 0.5;
    b.period = 0.1;
    b.graph.add_task("q", other_);
    system_.omsm.add_mode(std::move(b));
  }

  System system_;
  PeId sw_, asic_, fpga_;
  TaskTypeId type_, other_;
};

TEST_F(AllocationBuilderTest, SoftwareMappingNeedsNoCores) {
  build_modes(2);
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {sw_, sw_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  for (const auto& mode_sets : alloc.per_mode)
    for (const CoreSet& set : mode_sets) EXPECT_TRUE(set.empty());
}

TEST_F(AllocationBuilderTest, HardwareTypeGetsAtLeastOneCore) {
  build_modes(1);
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, ParallelLowMobilityTasksGetExtraCores) {
  build_modes(3);
  // Tight period so the three parallel tasks have near-zero mobility.
  system_.omsm.mode(ModeId{0}).period = 1.1e-3;
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  // 1000 cells / 300 per core: up to 3 cores fit; demand is 3.
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 3);
}

TEST_F(AllocationBuilderTest, ExtraCoresRespectAreaCapacity) {
  build_modes(5);
  system_.omsm.mode(ModeId{0}).period = 2e-3;
  system_.arch.pe(asic_).area_capacity = 700.0;  // only 2 cores fit
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 2);
}

TEST_F(AllocationBuilderTest, DisablingParallelCoresKeepsOne) {
  build_modes(3);
  system_.omsm.mode(ModeId{0}).period = 1.1e-3;
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  AllocationOptions options;
  options.allocate_parallel_cores = false;
  const CoreAllocation alloc = build_core_allocation(system_, m, options);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, AsicSetsAreModeInvariant) {
  build_modes(1);
  // Mode B's task also onto the ASIC (different type).
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_};
  m.modes[1].task_to_pe = {asic_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_), alloc.cores(ModeId{1}, asic_));
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(other_), 1);
}

TEST_F(AllocationBuilderTest, FpgaSetsArePerMode) {
  build_modes(1);
  Mode c;
  c.name = "C";
  c.probability = 0.0;
  c.period = 0.1;
  c.graph.add_task("r", type_);
  system_.omsm.add_mode(std::move(c));
  system_.omsm.normalize_probabilities();
  MultiModeMapping m;
  m.modes.resize(3);
  m.modes[0].task_to_pe = {fpga_};
  m.modes[1].task_to_pe = {sw_};
  m.modes[2].task_to_pe = {fpga_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  EXPECT_EQ(alloc.cores(ModeId{0}, fpga_).count_of(type_), 1);
  EXPECT_TRUE(alloc.cores(ModeId{1}, fpga_).empty());
  EXPECT_EQ(alloc.cores(ModeId{2}, fpga_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, OverfullBaseSetIsNotExtended) {
  build_modes(2);
  system_.omsm.mode(ModeId{0}).period = 2e-3;
  system_.arch.pe(asic_).area_capacity = 100.0;  // below one core
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  const CoreAllocation alloc = build_core_allocation(system_, m);
  // Base core still allocated (the mapping demands it) but no extras.
  EXPECT_EQ(alloc.cores(ModeId{0}, asic_).count_of(type_), 1);
}

TEST_F(AllocationBuilderTest, ModeDemandListsHardwareGroupsWithTheirCores) {
  build_modes(3);
  system_.omsm.mode(ModeId{0}).period = 2e-3;  // all three urgent
  MultiModeMapping m;
  m.modes.resize(2);
  m.modes[0].task_to_pe = {asic_, asic_, asic_};
  m.modes[1].task_to_pe = {sw_};
  EXPECT_EQ(mode_core_demand(system_, 0, m.modes[0]),
            (ModeCoreDemand{{asic_, type_, 3}}));
  EXPECT_TRUE(mode_core_demand(system_, 1, m.modes[1]).empty());
  AllocationOptions single;
  single.allocate_parallel_cores = false;
  EXPECT_EQ(mode_core_demand(system_, 0, m.modes[0], single),
            (ModeCoreDemand{{asic_, type_, 1}}));
  EXPECT_EQ(mode_core_demand(system_, 0, m.modes[0], single),
            hardware_groups(system_, 0, m.modes[0]));
}

TEST(SliceTable, FindsStoredDemandsAndClearsWhenFull) {
  SliceTable table(/*capacity=*/2);
  const std::vector<PeId> a{PeId{0}, PeId{1}};
  const std::vector<PeId> b{PeId{1}, PeId{0}};
  const std::vector<PeId> c{PeId{1}, PeId{1}};
  const ModeCoreDemand demand{{PeId{1}, TaskTypeId{0}, 2}};
  EXPECT_EQ(table.find(0, a, SliceTable::hash(0, a)), nullptr);
  table.insert(0, a, SliceTable::hash(0, a), demand);
  ASSERT_NE(table.find(0, a, SliceTable::hash(0, a)), nullptr);
  EXPECT_EQ(*table.find(0, a, SliceTable::hash(0, a)), demand);
  // Any slice with the same contents finds it: the key owns its copy.
  const std::vector<PeId> a_again = a;
  EXPECT_EQ(table.find(0, a_again, SliceTable::hash(0, a_again)),
            table.find(0, a, SliceTable::hash(0, a)));
  // The mode is part of the key.
  EXPECT_EQ(table.find(1, a, SliceTable::hash(1, a)), nullptr);
  table.insert(0, a, SliceTable::hash(0, a), {});  // present: ignored
  EXPECT_EQ(*table.find(0, a, SliceTable::hash(0, a)), demand);
  table.insert(0, b, SliceTable::hash(0, b), {});
  EXPECT_EQ(table.size(), 2u);
  // Full: the next insert starts over.
  table.insert(0, c, SliceTable::hash(0, c), demand);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.find(0, a, SliceTable::hash(0, a)), nullptr);
  EXPECT_NE(table.find(0, c, SliceTable::hash(0, c)), nullptr);
}

}  // namespace
}  // namespace mmsyn
