#include "model/tech_library.hpp"

#include <stdexcept>

namespace mmsyn {

TaskTypeId TechLibrary::add_type(std::string name) {
  names_.push_back(std::move(name));
  impls_.emplace_back();
  return TaskTypeId{static_cast<TaskTypeId::value_type>(names_.size() - 1)};
}

void TechLibrary::set_implementation(TaskTypeId type, PeId pe,
                                     Implementation impl) {
  if (!type.valid() || type.index() >= impls_.size())
    throw std::out_of_range("TechLibrary: unknown task type");
  if (!pe.valid()) throw std::out_of_range("TechLibrary: invalid PE id");
  // Negated so NaN, which compares false with everything, is refused too.
  if (!(impl.exec_time > 0.0))
    throw std::invalid_argument("Implementation exec_time must be positive");
  if (!(impl.dyn_power >= 0.0) || !(impl.area >= 0.0))
    throw std::invalid_argument("Implementation power/area must be >= 0");
  auto& row = impls_[type.index()];
  if (row.size() <= pe.index()) row.resize(pe.index() + 1);
  row[pe.index()] = Cell{true, impl};
}

const TechLibrary::Cell* TechLibrary::find(TaskTypeId type, PeId pe) const {
  if (!type.valid() || type.index() >= impls_.size() || !pe.valid())
    return nullptr;
  const auto& row = impls_[type.index()];
  if (pe.index() >= row.size() || !row[pe.index()].present) return nullptr;
  return &row[pe.index()];
}

std::optional<Implementation> TechLibrary::implementation(TaskTypeId type,
                                                          PeId pe) const {
  const Cell* cell = find(type, pe);
  if (!cell) return std::nullopt;
  return cell->impl;
}

const Implementation& TechLibrary::require(TaskTypeId type, PeId pe) const {
  const Cell* cell = find(type, pe);
  if (!cell)
    throw std::logic_error("TechLibrary: type " +
                           (type.valid() ? names_.at(type.index()) : "?") +
                           " has no implementation on requested PE");
  return cell->impl;
}

bool TechLibrary::supports(TaskTypeId type, PeId pe) const {
  return find(type, pe) != nullptr;
}

std::vector<PeId> TechLibrary::candidate_pes(TaskTypeId type,
                                             std::size_t pe_count) const {
  std::vector<PeId> result;
  for (std::size_t p = 0; p < pe_count; ++p) {
    const PeId id{static_cast<PeId::value_type>(p)};
    if (supports(type, id)) result.push_back(id);
  }
  return result;
}

}  // namespace mmsyn
