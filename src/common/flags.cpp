#include "common/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mmsyn {
namespace {

std::string kind_name(int kind) {
  switch (kind) {
    case 0: return "int";
    case 1: return "double";
    case 2: return "bool";
    case 3: return "string";
    default: return "choice";
  }
}

std::string join_choices(const std::vector<std::string>& choices) {
  std::string out;
  for (const auto& c : choices) {
    if (!out.empty()) out += ", ";
    out += c;
  }
  return out;
}

/// True when all of `text` is one in-range int64 (`integer`) or finite
/// double. strtoll/strtod alone would read "abc" as 0, "3x" as 3 and skip
/// leading blanks.
bool parses_as_number(const std::string& text, bool integer) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front())))
    return false;
  char* end = nullptr;
  errno = 0;
  const double value =
      integer ? static_cast<double>(std::strtoll(text.c_str(), &end, 10))
              : std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && errno != ERANGE &&
         std::isfinite(value);
}

}  // namespace

void Flags::define_int(const std::string& name, std::int64_t default_value,
                       const std::string& help) {
  entries_[name] = Entry{Kind::kInt, std::to_string(default_value), help};
  order_.push_back(name);
}

void Flags::define_double(const std::string& name, double default_value,
                          const std::string& help) {
  entries_[name] = Entry{Kind::kDouble, std::to_string(default_value), help};
  order_.push_back(name);
}

void Flags::define_bool(const std::string& name, bool default_value,
                        const std::string& help) {
  entries_[name] = Entry{Kind::kBool, default_value ? "true" : "false", help};
  order_.push_back(name);
}

void Flags::define_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help) {
  entries_[name] = Entry{Kind::kString, default_value, help};
  order_.push_back(name);
}

void Flags::define_choice(const std::string& name,
                          const std::vector<std::string>& choices,
                          const std::string& default_value,
                          const std::string& implicit_value,
                          const std::string& help) {
  entries_[name] =
      Entry{Kind::kChoice, default_value, help, choices, implicit_value};
  order_.push_back(name);
}

bool Flags::set_value(const std::string& name, const std::string& text) {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
    return false;
  }
  const Kind kind = it->second.kind;
  if ((kind == Kind::kInt || kind == Kind::kDouble) &&
      !parses_as_number(text, kind == Kind::kInt)) {
    std::fprintf(stderr, "invalid value '%s' for --%s: expected %s\n",
                 text.c_str(), name.c_str(),
                 kind == Kind::kInt ? "an integer" : "a finite number");
    return false;
  }
  if (it->second.kind == Kind::kChoice) {
    const auto& choices = it->second.choices;
    if (std::find(choices.begin(), choices.end(), text) == choices.end()) {
      std::fprintf(stderr,
                   "unknown value '%s' for --%s: registered choices are %s\n",
                   text.c_str(), name.c_str(),
                   join_choices(choices).c_str());
      return false;
    }
  }
  it->second.value = text;
  return true;
}

bool Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n",
                   arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string name = arg;
    std::string value;
    bool have_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      have_value = true;
    }
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      return false;
    }
    if (!have_value) {
      if (it->second.kind == Kind::kBool) {
        value = "true";
      } else if (it->second.kind == Kind::kChoice) {
        // Consume the next argument only when it names a registered
        // choice; otherwise the bare flag selects the implicit value
        // (so a script ending in `--dvs` keeps working).
        const auto& choices = it->second.choices;
        if (i + 1 < argc && std::find(choices.begin(), choices.end(),
                                      argv[i + 1]) != choices.end()) {
          value = argv[++i];
        } else {
          value = it->second.implicit;
        }
      } else if (i + 1 < argc) {
        value = argv[++i];
      } else {
        std::fprintf(stderr, "flag --%s requires a value\n", name.c_str());
        return false;
      }
    }
    if (!set_value(name, value)) return false;
  }
  return true;
}

const Flags::Entry& Flags::entry(const std::string& name, Kind kind) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::out_of_range("flag not defined: " + name);
  // Choice flags read back as strings.
  const bool ok = it->second.kind == kind ||
                  (kind == Kind::kString && it->second.kind == Kind::kChoice);
  if (!ok)
    throw std::logic_error("flag " + name + " is not of type " +
                           kind_name(static_cast<int>(kind)));
  return it->second;
}

std::int64_t Flags::get_int(const std::string& name) const {
  return std::strtoll(entry(name, Kind::kInt).value.c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name) const {
  return std::strtod(entry(name, Kind::kDouble).value.c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name) const {
  const std::string& v = entry(name, Kind::kBool).value;
  return v == "true" || v == "1" || v == "yes";
}

const std::string& Flags::get_string(const std::string& name) const {
  return entry(name, Kind::kString).value;
}

void Flags::print_usage(const std::string& program) const {
  std::fprintf(stderr, "usage: %s [flags]\n", program.c_str());
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    if (e.kind == Kind::kChoice) {
      std::fprintf(stderr, "  --%-20s %s (one of: %s; default: %s)\n",
                   name.c_str(), e.help.c_str(),
                   join_choices(e.choices).c_str(), e.value.c_str());
    } else {
      std::fprintf(stderr, "  --%-20s %s (default: %s)\n", name.c_str(),
                   e.help.c_str(), e.value.c_str());
    }
  }
}

}  // namespace mmsyn
