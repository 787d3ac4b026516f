#include "common/flags.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace mmsyn {
namespace {

/// argv helper (parse takes char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

Flags make_flags() {
  Flags flags;
  flags.define_int("count", 5, "a count");
  flags.define_double("ratio", 0.5, "a ratio");
  flags.define_bool("verbose", false, "verbosity");
  flags.define_string("name", "default", "a name");
  return flags;
}

TEST(Flags, DefaultsApply) {
  Flags flags = make_flags();
  Argv argv({});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 5);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.5);
  EXPECT_FALSE(flags.get_bool("verbose"));
  EXPECT_EQ(flags.get_string("name"), "default");
}

TEST(Flags, SpaceSeparatedValues) {
  Flags flags = make_flags();
  Argv argv({"--count", "9", "--ratio", "0.25", "--name", "x"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 9);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.25);
  EXPECT_EQ(flags.get_string("name"), "x");
}

TEST(Flags, EqualsSyntax) {
  Flags flags = make_flags();
  Argv argv({"--count=7", "--verbose=true"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, BareBooleanIsTrue) {
  Flags flags = make_flags();
  Argv argv({"--verbose"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(Flags, UnknownFlagFails) {
  Flags flags = make_flags();
  Argv argv({"--bogus", "1"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, MissingValueFails) {
  Flags flags = make_flags();
  Argv argv({"--count"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, PositionalArgumentFails) {
  Flags flags = make_flags();
  Argv argv({"stray"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, HelpReturnsFalse) {
  Flags flags = make_flags();
  Argv argv({"--help"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, NonNumericValuesAreRefused) {
  // Each value alone must fail the parse: garbage, trailing junk, an
  // empty or blank-led value, and numbers outside the type's range.
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--count", "abc"},
           {"--count", "3x"},
           {"--count=1.5"},
           {"--count="},
           {"--count", " 7"},
           {"--count", "99999999999999999999"},
           {"--ratio", "abc"},
           {"--ratio", "0.5s"},
           {"--ratio", "1e999"},
           {"--ratio", "inf"},
       }) {
    Flags flags = make_flags();
    Argv argv(args);
    EXPECT_FALSE(flags.parse(argv.argc(), argv.argv())) << args.back();
    // A refused value leaves the default in place.
    EXPECT_EQ(flags.get_int("count"), 5);
    EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 0.5);
  }
}

TEST(Flags, SignedAndExponentNumbersParse) {
  Flags flags = make_flags();
  Argv argv({"--count", "-3", "--ratio", "1e-3"});
  ASSERT_TRUE(flags.parse(argv.argc(), argv.argv()));
  EXPECT_EQ(flags.get_int("count"), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("ratio"), 1e-3);

  Flags more = make_flags();
  Argv edge({"--count=-9223372036854775808", "--ratio=-2.5"});
  ASSERT_TRUE(more.parse(edge.argc(), edge.argv()));
  EXPECT_EQ(more.get_int("count"), INT64_MIN);
  EXPECT_DOUBLE_EQ(more.get_double("ratio"), -2.5);
}

TEST(Flags, TypeMismatchThrows) {
  Flags flags = make_flags();
  EXPECT_THROW((void)flags.get_int("ratio"), std::logic_error);
  EXPECT_THROW((void)flags.get_bool("count"), std::logic_error);
  EXPECT_THROW((void)flags.get_int("nonexistent"), std::out_of_range);
}

TEST(Flags, ChoiceDefaultsAndExplicitValues) {
  Flags flags;
  flags.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  Argv none({});
  ASSERT_TRUE(flags.parse(none.argc(), none.argv()));
  EXPECT_EQ(flags.get_string("dvs"), "none");

  Argv eq({"--dvs=pv-dvs"});
  ASSERT_TRUE(flags.parse(eq.argc(), eq.argv()));
  EXPECT_EQ(flags.get_string("dvs"), "pv-dvs");
}

TEST(Flags, BareChoiceSelectsImplicitValue) {
  Flags flags;
  flags.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  flags.define_bool("audit", false, "audit");
  // `--dvs` as the last argument and followed by another flag both take
  // the implicit value; a trailing registered choice is consumed.
  Argv last({"--dvs"});
  ASSERT_TRUE(flags.parse(last.argc(), last.argv()));
  EXPECT_EQ(flags.get_string("dvs"), "pv-dvs");

  Flags flags2;
  flags2.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  flags2.define_bool("audit", false, "audit");
  Argv before({"--dvs", "--audit"});
  ASSERT_TRUE(flags2.parse(before.argc(), before.argv()));
  EXPECT_EQ(flags2.get_string("dvs"), "pv-dvs");
  EXPECT_TRUE(flags2.get_bool("audit"));

  Flags flags3;
  flags3.define_choice("dvs", {"none", "pv-dvs"}, "none", "pv-dvs", "backend");
  Argv spaced({"--dvs", "none"});
  ASSERT_TRUE(flags3.parse(spaced.argc(), spaced.argv()));
  EXPECT_EQ(flags3.get_string("dvs"), "none");
}

TEST(Flags, UnknownChoiceValueFails) {
  Flags flags;
  flags.define_choice("scheduler", {"bottom-level", "topo-order"},
                      "bottom-level", "bottom-level", "backend");
  Argv argv({"--scheduler=simulated-annealing"});
  EXPECT_FALSE(flags.parse(argv.argc(), argv.argv()));
}

TEST(Flags, ChoiceReadsBackAsStringOnly) {
  Flags flags;
  flags.define_choice("scheduler", {"a", "b"}, "a", "a", "backend");
  EXPECT_EQ(flags.get_string("scheduler"), "a");
  EXPECT_THROW((void)flags.get_int("scheduler"), std::logic_error);
}

}  // namespace
}  // namespace mmsyn
