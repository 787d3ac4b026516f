#include "model/mapping_io.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <vector>

namespace mmsyn {

void write_mapping(std::ostream& os, const System& system,
                   const MultiModeMapping& mapping) {
  os << "# mmsyn mapping file\n";
  os << "mapping for-system " << system.name << "\n";
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    const Mode& mode = system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
    for (std::size_t t = 0; t < mode.graph.task_count(); ++t) {
      const TaskId id{static_cast<TaskId::value_type>(t)};
      os << "map " << mode.name << " " << mode.graph.task(id).name << " "
         << system.arch.pe(mapping.modes[m].task_to_pe[t]).name << "\n";
    }
  }
}

std::string mapping_to_string(const System& system,
                              const MultiModeMapping& mapping) {
  std::ostringstream os;
  write_mapping(os, system, mapping);
  return os.str();
}

MultiModeMapping read_mapping(std::istream& is, const System& system) {
  // Name lookup tables.
  std::map<std::string, ModeId> modes;
  std::vector<std::map<std::string, TaskId>> tasks(system.omsm.mode_count());
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    const ModeId id{static_cast<ModeId::value_type>(m)};
    const Mode& mode = system.omsm.mode(id);
    modes[mode.name] = id;
    for (std::size_t t = 0; t < mode.graph.task_count(); ++t) {
      const TaskId tid{static_cast<TaskId::value_type>(t)};
      tasks[m][mode.graph.task(tid).name] = tid;
    }
  }
  std::map<std::string, PeId> pes;
  for (PeId p : system.arch.pe_ids()) pes[system.arch.pe(p).name] = p;

  MultiModeMapping mapping;
  mapping.modes.resize(system.omsm.mode_count());
  std::vector<std::vector<bool>> assigned(system.omsm.mode_count());
  for (std::size_t m = 0; m < system.omsm.mode_count(); ++m) {
    const std::size_t n =
        system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)})
            .graph.task_count();
    mapping.modes[m].task_to_pe.assign(n, PeId::invalid());
    assigned[m].assign(n, false);
  }

  std::string text;
  int number = 0;
  while (std::getline(is, text)) {
    ++number;
    std::istringstream line(text);
    std::string keyword;
    if (!(line >> keyword) || keyword[0] == '#') continue;
    if (keyword == "mapping") continue;  // header, informational
    if (keyword != "map")
      throw ParseError(number, "unknown keyword '" + keyword + "'");
    std::string mode_name, task_name, pe_name;
    if (!(line >> mode_name >> task_name >> pe_name))
      throw ParseError(number, "expected: map <mode> <task> <pe>");
    if (std::string extra; line >> extra && extra[0] != '#')
      throw ParseError(number, "unexpected token '" + extra +
                                   "' after 'map <mode> <task> <pe>'");
    const auto mode_it = modes.find(mode_name);
    if (mode_it == modes.end())
      throw ParseError(number, "unknown mode '" + mode_name + "'");
    const std::size_t m = mode_it->second.index();
    const auto task_it = tasks[m].find(task_name);
    if (task_it == tasks[m].end())
      throw ParseError(number, "unknown task '" + task_name + "' in mode '" +
                                   mode_name + "'");
    const auto pe_it = pes.find(pe_name);
    if (pe_it == pes.end())
      throw ParseError(number, "unknown PE '" + pe_name + "'");
    const std::size_t t = task_it->second.index();
    if (assigned[m][t])
      throw ParseError(number, "task '" + task_name + "' mapped twice");
    const TaskTypeId type =
        system.omsm.mode(mode_it->second).graph.task(task_it->second).type;
    if (!system.tech.supports(type, pe_it->second))
      throw ParseError(number, "type '" + system.tech.type_name(type) +
                                   "' has no implementation on '" + pe_name +
                                   "'");
    mapping.modes[m].task_to_pe[t] = pe_it->second;
    assigned[m][t] = true;
  }

  for (std::size_t m = 0; m < assigned.size(); ++m)
    for (std::size_t t = 0; t < assigned[m].size(); ++t)
      if (!assigned[m][t])
        throw ParseError(
            number,
            "unmapped task '" +
                system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)})
                    .graph.task(TaskId{static_cast<TaskId::value_type>(t)})
                    .name +
                "' in mode '" +
                system.omsm.mode(ModeId{static_cast<ModeId::value_type>(m)})
                    .name +
                "'");
  return mapping;
}

MultiModeMapping mapping_from_string(const std::string& text,
                                     const System& system) {
  std::istringstream is(text);
  return read_mapping(is, system);
}

void save_mapping(const std::string& path, const System& system,
                  const MultiModeMapping& mapping) {
  std::ofstream os(path);
  if (!os) throw ParseError(path, 0, "cannot open for writing");
  write_mapping(os, system, mapping);
  os.flush();
  if (!os) throw ParseError(path, 0, "write failed");
}

MultiModeMapping load_mapping(const std::string& path, const System& system) {
  std::ifstream is(path);
  if (!is) throw ParseError(path, 0, "cannot open for reading");
  try {
    return read_mapping(is, system);
  } catch (const ParseError& e) {
    throw ParseError(path, e.line(), e.message());
  }
}

}  // namespace mmsyn
