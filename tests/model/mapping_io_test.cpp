#include "model/mapping_io.hpp"

#include <gtest/gtest.h>

#include "core/genome.hpp"
#include "tgff/motivational.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

TEST(MappingIo, RoundTripExample1) {
  const System system = make_motivational_example1();
  const MultiModeMapping original = example1_mapping_with_probabilities();
  const MultiModeMapping parsed =
      mapping_from_string(mapping_to_string(system, original), system);
  ASSERT_EQ(parsed.modes.size(), original.modes.size());
  for (std::size_t m = 0; m < original.modes.size(); ++m)
    EXPECT_EQ(parsed.modes[m].task_to_pe, original.modes[m].task_to_pe);
}

TEST(MappingIo, RoundTripRandomMappingsOnSuite) {
  const System system = make_mul(6);
  const GenomeCodec codec(system);
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const MultiModeMapping original =
        codec.decode(codec.random_genome(rng));
    const MultiModeMapping parsed =
        mapping_from_string(mapping_to_string(system, original), system);
    for (std::size_t m = 0; m < original.modes.size(); ++m)
      ASSERT_EQ(parsed.modes[m].task_to_pe, original.modes[m].task_to_pe);
  }
}

TEST(MappingIo, MissingTaskRejected) {
  const System system = make_motivational_example1();
  const MultiModeMapping original = example1_mapping_with_probabilities();
  std::string text = mapping_to_string(system, original);
  text.erase(text.rfind("map "));  // drop the last assignment
  EXPECT_THROW((void)mapping_from_string(text, system), ParseError);
}

TEST(MappingIo, DuplicateAssignmentRejected) {
  const System system = make_motivational_example1();
  const MultiModeMapping original = example1_mapping_with_probabilities();
  std::string text = mapping_to_string(system, original);
  text += "map O1 tau1 PE0\n";
  EXPECT_THROW((void)mapping_from_string(text, system), ParseError);
}

TEST(MappingIo, UnknownNamesRejected) {
  const System system = make_motivational_example1();
  const std::string base =
      mapping_to_string(system, example1_mapping_with_probabilities());
  EXPECT_THROW(
      (void)mapping_from_string(base + "map NOPE tau1 PE0\n", system),
      ParseError);
  EXPECT_THROW(
      (void)mapping_from_string(base + "map O1 NOPE PE0\n", system),
      ParseError);
  EXPECT_THROW(
      (void)mapping_from_string(base + "map O1 tau1 NOPE\n", system),
      ParseError);
}

TEST(MappingIo, TrailingTokenRejected) {
  const System system = make_motivational_example1();
  const std::string text =
      mapping_to_string(system, example1_mapping_with_probabilities());
  const auto eol = text.find('\n', text.find("map "));
  ASSERT_NE(eol, std::string::npos);
  std::string extra = text;
  extra.insert(eol, " PE1");
  try {
    (void)mapping_from_string(extra, system);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(e.message().find("unexpected token 'PE1'"), std::string::npos)
        << e.message();
  }
  std::string comment = text;
  comment.insert(eol, " # trailing comment");
  EXPECT_NO_THROW((void)mapping_from_string(comment, system));
}

TEST(MappingIo, UnsupportedPeRejected) {
  // Example 2's types B/C/E/F are software-only: mapping one to PE1 fails.
  const System system = make_motivational_example2();
  std::string text =
      mapping_to_string(system, example2_mapping_multiple_impl());
  const auto pos = text.find("map O1 tau2 PE0");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 15, "map O1 tau2 PE1");
  EXPECT_THROW((void)mapping_from_string(text, system), ParseError);
}

TEST(MappingIo, FileRoundTrip) {
  const System system = make_motivational_example1();
  const MultiModeMapping original = example1_mapping_without_probabilities();
  const std::string path = ::testing::TempDir() + "/mapping.mmsyn-map";
  save_mapping(path, system, original);
  const MultiModeMapping loaded = load_mapping(path, system);
  for (std::size_t m = 0; m < original.modes.size(); ++m)
    EXPECT_EQ(loaded.modes[m].task_to_pe, original.modes[m].task_to_pe);
}

}  // namespace
}  // namespace mmsyn
