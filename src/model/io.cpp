#include "model/io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/failpoint.hpp"

namespace mmsyn {
namespace {

// Failpoint on system-file reads, shared by name with the checkpoint
// reader in core/run_control.cpp: "io.read" covers every input-file read
// in the process. `fail` is retried in place; `corrupt` is a no-op here
// (a flipped byte in a text system file is just a parse error).
failpoint::Site fp_io_read{"io.read"};

// ---------------------------------------------------------------- writer

/// Numbers are written with enough digits to round-trip exactly.
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

const char* kind_token(PeKind k) { return to_string(k); }

}  // namespace

void write_system(std::ostream& os, const System& system) {
  os << "# mmsyn system file\n";
  os << "system " << system.name << "\n\n";

  for (PeId p : system.arch.pe_ids()) {
    const Pe& pe = system.arch.pe(p);
    os << "pe " << pe.name << " kind=" << kind_token(pe.kind);
    if (pe.dvs_enabled) os << " dvs=1";
    os << " levels=";
    for (std::size_t i = 0; i < pe.voltage_levels.size(); ++i)
      os << (i ? "," : "") << fmt(pe.voltage_levels[i]);
    os << " vt=" << fmt(pe.threshold_voltage);
    if (pe.area_capacity > 0.0) os << " area=" << fmt(pe.area_capacity);
    if (pe.static_power > 0.0) os << " static=" << fmt(pe.static_power);
    if (pe.reconfig_bandwidth > 0.0)
      os << " reconfig_bw=" << fmt(pe.reconfig_bandwidth);
    os << "\n";
  }
  for (ClId c : system.arch.cl_ids()) {
    const Cl& cl = system.arch.cl(c);
    os << "cl " << cl.name << " bandwidth=" << fmt(cl.bandwidth);
    if (cl.startup_latency > 0.0) os << " startup=" << fmt(cl.startup_latency);
    if (cl.transfer_power > 0.0) os << " power=" << fmt(cl.transfer_power);
    if (cl.static_power > 0.0) os << " static=" << fmt(cl.static_power);
    os << " attached=";
    for (std::size_t i = 0; i < cl.attached.size(); ++i)
      os << (i ? "," : "") << system.arch.pe(cl.attached[i]).name;
    os << "\n";
  }
  os << "\n";

  for (std::size_t t = 0; t < system.tech.type_count(); ++t) {
    const TaskTypeId type{static_cast<TaskTypeId::value_type>(t)};
    os << "type " << system.tech.type_name(type) << "\n";
    for (PeId p : system.arch.pe_ids()) {
      const auto impl = system.tech.implementation(type, p);
      if (!impl) continue;
      os << "impl " << system.tech.type_name(type) << " "
         << system.arch.pe(p).name << " time=" << fmt(impl->exec_time)
         << " power=" << fmt(impl->dyn_power);
      if (impl->area > 0.0) os << " area=" << fmt(impl->area);
      os << "\n";
    }
  }
  os << "\n";

  for (const Mode& mode : system.omsm.modes()) {
    os << "mode " << mode.name << " psi=" << fmt(mode.probability)
       << " period=" << fmt(mode.period) << "\n";
    for (const Task& task : mode.graph.tasks()) {
      os << "task " << task.name << " "
         << system.tech.type_name(task.type);
      if (task.deadline) os << " deadline=" << fmt(*task.deadline);
      os << "\n";
    }
    for (const TaskEdge& edge : mode.graph.edges()) {
      os << "edge " << mode.graph.task(edge.src).name << " "
         << mode.graph.task(edge.dst).name << " bits=" << fmt(edge.data_bits)
         << "\n";
    }
    os << "\n";
  }

  for (const ModeTransition& tr : system.omsm.transitions()) {
    os << "transition " << system.omsm.mode(tr.from).name << " "
       << system.omsm.mode(tr.to).name;
    if (std::isfinite(tr.max_transition_time))
      os << " tmax=" << fmt(tr.max_transition_time);
    os << "\n";
  }
}

std::string system_to_string(const System& system) {
  std::ostringstream os;
  write_system(os, system);
  return os.str();
}

// ---------------------------------------------------------------- parser

namespace {

/// Tokenised line with key=value option access. A key given twice is an
/// error.
class Line {
public:
  Line(int number, const std::string& text) : number_(number) {
    std::istringstream is(text);
    std::string token;
    while (is >> token) {
      if (token[0] == '#') break;
      if (auto eq = token.find('='); eq != std::string::npos) {
        if (!options_.emplace(token.substr(0, eq), token.substr(eq + 1))
                 .second)
          throw ParseError(number_, "repeated option '" + token + "'");
      } else {
        positional_.push_back(token);
      }
    }
  }

  /// Refuses every token the keyword does not take: a key outside `keys`,
  /// or a positional token past the first `positional` (the keyword
  /// itself counts as one).
  void expect(std::size_t positional,
              std::initializer_list<std::string_view> keys) const {
    for (const auto& [key, value] : options_)
      if (std::find(keys.begin(), keys.end(), key) == keys.end())
        throw ParseError(number_, "unknown option '" + key + "=" + value +
                                      "' for '" + keyword() + "'");
    if (positional_.size() > positional)
      throw ParseError(number_, "unexpected token '" +
                                    positional_[positional] + "' after '" +
                                    keyword() + "'");
  }

  [[nodiscard]] bool empty() const {
    return positional_.empty() && options_.empty();
  }
  [[nodiscard]] int number() const { return number_; }
  [[nodiscard]] const std::string& keyword() const {
    if (positional_.empty()) throw ParseError(number_, "missing keyword");
    return positional_[0];
  }
  [[nodiscard]] const std::string& arg(std::size_t i,
                                       const char* what) const {
    if (i >= positional_.size())
      throw ParseError(number_, std::string("missing argument: ") + what);
    return positional_[i];
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options_.count(key) > 0;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback = "") const {
    auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return parse_double(it->second);
  }
  [[nodiscard]] double require_num(const std::string& key) const {
    auto it = options_.find(key);
    if (it == options_.end())
      throw ParseError(number_, "missing option '" + key + "'");
    return parse_double(it->second);
  }
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const {
    std::vector<std::string> out;
    auto it = options_.find(key);
    if (it == options_.end()) return out;
    std::istringstream is(it->second);
    std::string item;
    while (std::getline(is, item, ','))
      if (!item.empty()) out.push_back(item);
    return out;
  }
  [[nodiscard]] std::vector<double> num_list(const std::string& key) const {
    std::vector<double> out;
    for (const std::string& item : list(key)) out.push_back(parse_double(item));
    return out;
  }

private:
  [[nodiscard]] double parse_double(const std::string& text) const {
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(text, &consumed);
    } catch (const std::exception&) {
      throw ParseError(number_, "not a number: '" + text + "'");
    }
    if (consumed != text.size())
      throw ParseError(number_, "trailing junk in number: '" + text + "'");
    // stod reads "nan" and "inf"; no quantity of the format is either
    // (an absent tmax already means no limit).
    if (!std::isfinite(value))
      throw ParseError(number_, "not a finite number: '" + text + "'");
    return value;
  }

  int number_;
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

PeKind parse_kind(const Line& line, const std::string& token) {
  if (token == "GPP") return PeKind::kGpp;
  if (token == "ASIP") return PeKind::kAsip;
  if (token == "ASIC") return PeKind::kAsic;
  if (token == "FPGA") return PeKind::kFpga;
  throw ParseError(line.number(), "unknown PE kind '" + token + "'");
}

}  // namespace

System read_system(std::istream& is) {
  System system;
  std::map<std::string, PeId> pes;
  std::map<std::string, TaskTypeId> types;
  std::map<std::string, ModeId> modes;
  // Task names are scoped to their mode.
  std::map<std::string, TaskId> tasks_in_mode;
  ModeId current_mode;  // invalid until the first 'mode' line

  auto lookup = [](const auto& map, const std::string& name,
                   const Line& line, const char* what) {
    auto it = map.find(name);
    if (it == map.end())
      throw ParseError(line.number(),
                       std::string("unknown ") + what + " '" + name + "'");
    return it->second;
  };

  std::string text;
  int number = 0;
  while (std::getline(is, text)) {
    const Line line(++number, text);
    if (line.empty()) continue;
    const std::string& kw = line.keyword();

    if (kw == "system") {
      line.expect(2, {});
      system.name = line.arg(1, "system name");
    } else if (kw == "pe") {
      line.expect(2, {"kind", "dvs", "levels", "vt", "area", "static",
                      "reconfig_bw"});
      Pe pe;
      pe.name = line.arg(1, "pe name");
      if (pes.count(pe.name))
        throw ParseError(line.number(), "duplicate PE '" + pe.name + "'");
      pe.kind = parse_kind(line, line.str("kind", "GPP"));
      pe.dvs_enabled = line.num("dvs", 0.0) != 0.0;
      if (line.has("levels")) pe.voltage_levels = line.num_list("levels");
      pe.threshold_voltage = line.num("vt", 0.8);
      pe.area_capacity = line.num("area", 0.0);
      pe.static_power = line.num("static", 0.0);
      pe.reconfig_bandwidth = line.num("reconfig_bw", 0.0);
      const std::string pe_name = pe.name;
      try {
        pes[pe_name] = system.arch.add_pe(std::move(pe));
      } catch (const std::invalid_argument& e) {
        throw ParseError(line.number(), e.what());
      }
    } else if (kw == "cl") {
      line.expect(2, {"bandwidth", "startup", "power", "static", "attached"});
      Cl cl;
      cl.name = line.arg(1, "cl name");
      cl.bandwidth = line.require_num("bandwidth");
      cl.startup_latency = line.num("startup", 0.0);
      cl.transfer_power = line.num("power", 0.0);
      cl.static_power = line.num("static", 0.0);
      for (const std::string& name : line.list("attached"))
        cl.attached.push_back(lookup(pes, name, line, "PE"));
      try {
        system.arch.add_cl(std::move(cl));
      } catch (const std::exception& e) {
        throw ParseError(line.number(), e.what());
      }
    } else if (kw == "type") {
      line.expect(2, {});
      const std::string& name = line.arg(1, "type name");
      if (types.count(name))
        throw ParseError(line.number(), "duplicate type '" + name + "'");
      types[name] = system.tech.add_type(name);
    } else if (kw == "impl") {
      line.expect(3, {"time", "power", "area"});
      const TaskTypeId type =
          lookup(types, line.arg(1, "type name"), line, "type");
      const PeId pe = lookup(pes, line.arg(2, "pe name"), line, "PE");
      Implementation impl;
      impl.exec_time = line.require_num("time");
      impl.dyn_power = line.require_num("power");
      impl.area = line.num("area", 0.0);
      try {
        system.tech.set_implementation(type, pe, impl);
      } catch (const std::exception& e) {
        throw ParseError(line.number(), e.what());
      }
    } else if (kw == "mode") {
      line.expect(2, {"psi", "period"});
      Mode mode;
      mode.name = line.arg(1, "mode name");
      if (modes.count(mode.name))
        throw ParseError(line.number(), "duplicate mode '" + mode.name + "'");
      mode.probability = line.require_num("psi");
      mode.period = line.require_num("period");
      const ModeId id = system.omsm.add_mode(std::move(mode));
      modes[system.omsm.mode(id).name] = id;
      current_mode = id;
      tasks_in_mode.clear();
    } else if (kw == "task") {
      line.expect(3, {"deadline"});
      if (!current_mode.valid())
        throw ParseError(line.number(), "'task' before any 'mode'");
      const std::string& name = line.arg(1, "task name");
      if (tasks_in_mode.count(name))
        throw ParseError(line.number(),
                         "duplicate task '" + name + "' in mode");
      const TaskTypeId type =
          lookup(types, line.arg(2, "type name"), line, "type");
      std::optional<double> deadline;
      if (line.has("deadline")) deadline = line.require_num("deadline");
      tasks_in_mode[name] =
          system.omsm.mode(current_mode).graph.add_task(name, type, deadline);
    } else if (kw == "edge") {
      line.expect(3, {"bits"});
      if (!current_mode.valid())
        throw ParseError(line.number(), "'edge' before any 'mode'");
      const TaskId src =
          lookup(tasks_in_mode, line.arg(1, "source task"), line, "task");
      const TaskId dst =
          lookup(tasks_in_mode, line.arg(2, "target task"), line, "task");
      try {
        system.omsm.mode(current_mode)
            .graph.add_edge(src, dst, line.num("bits", 0.0));
      } catch (const std::exception& e) {
        throw ParseError(line.number(), e.what());
      }
    } else if (kw == "transition") {
      line.expect(3, {"tmax"});
      const ModeId from =
          lookup(modes, line.arg(1, "source mode"), line, "mode");
      const ModeId to = lookup(modes, line.arg(2, "target mode"), line, "mode");
      ModeTransition tr{from, to};
      if (line.has("tmax")) tr.max_transition_time = line.require_num("tmax");
      system.omsm.add_transition(tr);
    } else {
      throw ParseError(line.number(), "unknown keyword '" + kw + "'");
    }
  }
  return system;
}

System system_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_system(is);
}

void save_system(const std::string& path, const System& system) {
  std::ofstream os(path);
  if (!os) throw ParseError(path, 0, "cannot open for writing");
  write_system(os, system);
  os.flush();
  if (!os) throw ParseError(path, 0, "write failed");
}

System load_system(const std::string& path) {
  return failpoint::retry_transient("load_system", [&] {
    (void)failpoint::inject(fp_io_read);
    std::ifstream is(path);
    if (!is) throw ParseError(path, 0, "cannot open for reading");
    try {
      return read_system(is);
    } catch (const ParseError& e) {
      // Re-raise with the path attached so diagnostics are actionable.
      throw ParseError(path, e.line(), e.message());
    }
  });
}

}  // namespace mmsyn
