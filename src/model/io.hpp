// Text serialization of systems (.mmsyn format).
//
// A line-oriented, TGFF-inspired format so problem instances can be
// versioned, shared, and fed to the synthesis tools without recompiling:
//
//   system phone
//   pe CPU kind=GPP dvs=1 levels=1.2,2.0,3.3 vt=0.8 static=4e-4
//   pe ACC kind=ASIC area=600 static=2e-4
//   cl BUS bandwidth=1e7 startup=5e-5 power=0.05 static=1e-4 attached=CPU,ACC
//   type FFT
//   impl FFT CPU time=6e-3 power=0.25
//   impl FFT ACC time=2e-4 power=6e-3 area=350
//   mode idle psi=0.9 period=0.04
//   task sense FFT
//   task act FFT deadline=0.03
//   edge sense act bits=2000
//   mode burst psi=0.1 period=0.025
//   ...
//   transition idle burst tmax=0.02
//
// `task` and `edge` lines attach to the most recent `mode`. Entities are
// referenced by name; `#` starts a comment. Names must be whitespace-free.
// Each keyword takes exactly its positional arguments and only its keys:
//
//   system <name>
//   pe <name>                kind dvs levels vt area static reconfig_bw
//   cl <name>                bandwidth startup power static attached
//   type <name>
//   impl <type> <pe>         time power area
//   mode <name>              psi period
//   task <name> <type>       deadline
//   edge <source> <target>   bits
//   transition <from> <to>   tmax
//
// An unknown key, a key given twice or an extra positional token is a
// ParseError naming the line and the token.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "model/system.hpp"

namespace mmsyn {

/// Parse / file-I/O failure with a 1-based line number, the originating
/// file path (empty when parsing a stream or string), and an explanation.
/// Line 0 means the problem is with the file itself (missing, unreadable,
/// write failure) rather than any particular line.
class ParseError : public std::runtime_error {
public:
  ParseError(int line, const std::string& message)
      : ParseError(std::string(), line, message) {}
  ParseError(std::string file, int line, std::string message)
      : std::runtime_error(format(file, line, message)),
        file_(std::move(file)),
        line_(line),
        message_(std::move(message)) {}

  [[nodiscard]] int line() const { return line_; }
  /// Path of the file being read/written; empty for stream/string input.
  [[nodiscard]] const std::string& file() const { return file_; }
  /// The explanation without the location prefix.
  [[nodiscard]] const std::string& message() const { return message_; }

private:
  [[nodiscard]] static std::string format(const std::string& file, int line,
                                          const std::string& message) {
    if (file.empty())
      return "line " + std::to_string(line) + ": " + message;
    if (line <= 0) return file + ": " + message;
    return file + ":" + std::to_string(line) + ": " + message;
  }

  std::string file_;
  int line_;
  std::string message_;
};

/// Serialises `system` in the .mmsyn text format. Infinite transition
/// limits and unset deadlines are omitted; round-trips through
/// read_system() reproduce an equivalent system.
void write_system(std::ostream& os, const System& system);

/// Convenience: render to a string.
[[nodiscard]] std::string system_to_string(const System& system);

/// Parses a system; throws ParseError on malformed input. The result is
/// *not* validated beyond structural parsing — call System::validate().
[[nodiscard]] System read_system(std::istream& is);

/// Convenience: parse from a string.
[[nodiscard]] System system_from_string(const std::string& text);

/// File helpers. Both parse failures *and* I/O failures (missing file,
/// permission denied, write error) surface as ParseError carrying the
/// path, so callers get one structured diagnostic channel.
void save_system(const std::string& path, const System& system);
[[nodiscard]] System load_system(const std::string& path);

}  // namespace mmsyn
