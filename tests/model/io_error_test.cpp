// Table-driven malformed-input tests for the .mmsyn parser: every entry
// is a broken variation of a small valid system, and the test asserts the
// reported line number and message substring — the diagnostics a user
// actually sees.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "model/io.hpp"

namespace mmsyn {
namespace {

// A minimal valid system; line numbers below refer to this exact text.
constexpr const char* kValidText =
    "system tiny\n"                                       // 1
    "pe CPU kind=GPP static=1e-4\n"                       // 2
    "pe ACC kind=ASIC area=100 static=1e-5\n"             // 3
    "cl BUS bandwidth=1e6 attached=CPU,ACC\n"             // 4
    "type FFT\n"                                          // 5
    "impl FFT CPU time=1e-3 power=0.2\n"                  // 6
    "impl FFT ACC time=1e-4 power=0.01 area=50\n"         // 7
    "mode run psi=1.0 period=0.01\n"                      // 8
    "task a FFT\n"                                        // 9
    "task b FFT deadline=0.005\n"                         // 10
    "edge a b bits=100\n";                                // 11

struct ErrorCase {
  const char* name;
  std::string text;
  int expected_line;
  const char* message_substring;
};

std::string replace_line(int line, const std::string& replacement) {
  std::istringstream is(kValidText);
  std::ostringstream os;
  std::string text;
  int number = 0;
  while (std::getline(is, text))
    os << (++number == line ? replacement : text) << "\n";
  return os.str();
}

std::vector<ErrorCase> error_cases() {
  return {
      {"DuplicatePe", replace_line(3, "pe CPU kind=ASIC area=1"), 3,
       "duplicate PE"},
      {"DuplicateType", std::string(kValidText) + "type FFT\n", 12,
       "duplicate type"},
      {"DuplicateMode", std::string(kValidText) + "mode run psi=0 period=1\n",
       12, "duplicate mode"},
      {"DuplicateTask", replace_line(10, "task a FFT"), 10,
       "duplicate task"},
      {"TaskBeforeMode", replace_line(8, "task early FFT"), 8,
       "'task' before any 'mode'"},
      {"EdgeBeforeMode",
       "system t\npe P kind=GPP\ntype X\nedge a b bits=1\n", 4,
       "'edge' before any 'mode'"},
      {"UnknownKeyword", replace_line(11, "egde a b bits=100"), 11,
       "unknown keyword"},
      {"UnknownPeKind", replace_line(2, "pe CPU kind=QPU"), 2,
       "unknown PE kind"},
      {"UnknownTypeInImpl", replace_line(6, "impl DCT CPU time=1 power=1"),
       6, "unknown type"},
      {"UnknownPeInAttach", replace_line(4, "cl BUS bandwidth=1e6 attached=GPU"),
       4, "unknown PE"},
      {"UnknownEdgeEndpoint", replace_line(11, "edge a z bits=100"), 11,
       "unknown task"},
      {"BadNumber", replace_line(8, "mode run psi=lots period=0.01"), 8,
       "not a number"},
      {"TrailingJunkNumber", replace_line(8, "mode run psi=1.0x period=0.01"),
       8, "trailing junk"},
      {"BadNumberInLevels", replace_line(2, "pe CPU kind=GPP levels=1.2,oops"),
       2, "not a number"},
      // stod reads these; the parser must not.
      {"NanTime", replace_line(6, "impl FFT CPU time=nan power=0.2"), 6,
       "not a finite number"},
      {"InfPower",
       replace_line(7, "impl FFT ACC time=1e-4 power=inf area=50"), 7,
       "not a finite number"},
      {"InfPeriod", replace_line(8, "mode run psi=1.0 period=inf"), 8,
       "not a finite number"},
      {"NanPsi", replace_line(8, "mode run psi=nan period=0.01"), 8,
       "not a finite number"},
      {"NanBits", replace_line(11, "edge a b bits=nan"), 11,
       "not a finite number"},
      {"NanInLevels", replace_line(2, "pe CPU kind=GPP levels=1.1,nan"), 2,
       "not a finite number"},
      {"MissingRequiredOption", replace_line(4, "cl BUS attached=CPU,ACC"), 4,
       "missing option 'bandwidth'"},
      {"MissingPositional", replace_line(5, "type"), 5, "missing argument"},
      {"TruncatedMapLine", replace_line(11, "edge a"), 11,
       "missing argument"},
      // Every keyword takes a fixed set of keys and positional arguments.
      {"MisspelledOption",
       replace_line(7, "impl FFT ACC time=1e-4 power=0.01 aera=50"), 7,
       "unknown option 'aera=50' for 'impl'"},
      {"OptionOfAnotherKeyword", replace_line(10, "task b FFT bits=100"), 10,
       "unknown option 'bits=100' for 'task'"},
      {"OptionOnBareKeyword", replace_line(5, "type FFT area=1"), 5,
       "unknown option 'area=1' for 'type'"},
      {"RepeatedOption",
       replace_line(6, "impl FFT CPU time=1e-3 power=0.2 time=5"), 6,
       "repeated option 'time=5'"},
      {"EdgeBitsWithoutKey", replace_line(11, "edge a b 100"), 11,
       "unexpected token '100' after 'edge'"},
      {"TrailingSystemToken", replace_line(1, "system tiny v2"), 1,
       "unexpected token 'v2' after 'system'"},
  };
}

TEST(IoErrorTable, ValidBaseTextParses) {
  EXPECT_NO_THROW((void)system_from_string(kValidText));
}

TEST(IoErrorTable, EveryCaseReportsLineAndMessage) {
  for (const ErrorCase& c : error_cases()) {
    SCOPED_TRACE(c.name);
    try {
      (void)system_from_string(c.text);
      ADD_FAILURE() << "expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), c.expected_line);
      EXPECT_TRUE(e.file().empty());  // string input: no path
      EXPECT_NE(e.message().find(c.message_substring), std::string::npos)
          << "message was: " << e.message();
      EXPECT_NE(std::string(e.what()).find(c.message_substring),
                std::string::npos);
    }
  }
}

TEST(IoErrorFile, LoadAttachesPathAndLine) {
  const std::string path = std::string(::testing::TempDir()) + "broken.mmsyn";
  {
    std::ofstream os(path);
    os << replace_line(8, "mode run psi=nope period=0.01");
  }
  try {
    (void)load_system(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 8);
    // what() renders as "path:line: message" — directly clickable.
    EXPECT_NE(std::string(e.what()).find(path + ":8:"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(IoErrorFile, MissingFileIsParseErrorWithPath) {
  const std::string path = "/nonexistent/dir/x.mmsyn";
  try {
    (void)load_system(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.line(), 0);
    EXPECT_NE(e.message().find("cannot open"), std::string::npos);
  }
}

TEST(IoErrorFile, SaveToUnwritablePathIsParseError) {
  const System system = system_from_string(kValidText);
  try {
    save_system("/nonexistent/dir/out.mmsyn", system);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "/nonexistent/dir/out.mmsyn");
    EXPECT_NE(e.message().find("cannot open"), std::string::npos);
  }
}

}  // namespace
}  // namespace mmsyn
