#include "model/tech_library.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace mmsyn {
namespace {

TEST(TechLibrary, AddTypesAndNames) {
  TechLibrary lib;
  const TaskTypeId a = lib.add_type("FFT");
  const TaskTypeId b = lib.add_type("IDCT");
  EXPECT_EQ(lib.type_count(), 2u);
  EXPECT_EQ(lib.type_name(a), "FFT");
  EXPECT_EQ(lib.type_name(b), "IDCT");
}

TEST(TechLibrary, ImplementationRoundTrip) {
  TechLibrary lib;
  const TaskTypeId t = lib.add_type("T");
  lib.set_implementation(t, PeId{1}, {2e-3, 0.5, 100.0});
  ASSERT_TRUE(lib.supports(t, PeId{1}));
  EXPECT_FALSE(lib.supports(t, PeId{0}));
  const auto impl = lib.implementation(t, PeId{1});
  ASSERT_TRUE(impl.has_value());
  EXPECT_DOUBLE_EQ(impl->exec_time, 2e-3);
  EXPECT_DOUBLE_EQ(impl->dyn_power, 0.5);
  EXPECT_DOUBLE_EQ(impl->area, 100.0);
}

TEST(TechLibrary, EnergyIsTimeTimesPower) {
  const Implementation impl{4e-3, 0.25, 0.0};
  EXPECT_DOUBLE_EQ(impl.energy(), 1e-3);
}

TEST(TechLibrary, OverwriteImplementation) {
  TechLibrary lib;
  const TaskTypeId t = lib.add_type("T");
  lib.set_implementation(t, PeId{0}, {1e-3, 0.1, 0.0});
  lib.set_implementation(t, PeId{0}, {2e-3, 0.2, 0.0});
  EXPECT_DOUBLE_EQ(lib.require(t, PeId{0}).exec_time, 2e-3);
}

TEST(TechLibrary, RequireThrowsWhenMissing) {
  TechLibrary lib;
  const TaskTypeId t = lib.add_type("T");
  EXPECT_THROW((void)lib.require(t, PeId{0}), std::logic_error);
}

TEST(TechLibrary, CandidatePesAscending) {
  TechLibrary lib;
  const TaskTypeId t = lib.add_type("T");
  lib.set_implementation(t, PeId{2}, {1e-3, 0.1, 0.0});
  lib.set_implementation(t, PeId{0}, {1e-3, 0.1, 0.0});
  const auto cands = lib.candidate_pes(t, 3);
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[0], PeId{0});
  EXPECT_EQ(cands[1], PeId{2});
}

TEST(TechLibrary, CandidatePesRespectsPeCount) {
  TechLibrary lib;
  const TaskTypeId t = lib.add_type("T");
  lib.set_implementation(t, PeId{2}, {1e-3, 0.1, 0.0});
  EXPECT_TRUE(lib.candidate_pes(t, 2).empty());  // PE 2 outside range
}

TEST(TechLibrary, InvalidInputsRejected) {
  TechLibrary lib;
  const TaskTypeId t = lib.add_type("T");
  EXPECT_THROW(lib.set_implementation(TaskTypeId{9}, PeId{0}, {1, 1, 1}),
               std::out_of_range);
  EXPECT_THROW(lib.set_implementation(t, PeId{}, {1, 1, 1}),
               std::out_of_range);
  EXPECT_THROW(lib.set_implementation(t, PeId{0}, {0.0, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(lib.set_implementation(t, PeId{0}, {1, -1, 1}),
               std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(lib.set_implementation(t, PeId{0}, {nan, 1, 1}),
               std::invalid_argument);
  EXPECT_THROW(lib.set_implementation(t, PeId{0}, {1, nan, 1}),
               std::invalid_argument);
  EXPECT_THROW(lib.set_implementation(t, PeId{0}, {1, 1, nan}),
               std::invalid_argument);
  EXPECT_FALSE(lib.implementation(t, PeId{0}).has_value());
}

}  // namespace
}  // namespace mmsyn
