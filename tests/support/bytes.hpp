// Test helpers for pinning binary formats across builds: read a file
// whole, and render bytes as lower-case hex for a readable expectation.
#pragma once

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

namespace mmsyn {

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

}  // namespace mmsyn
