#include "sched/link_table.hpp"

#include <algorithm>

namespace mmsyn {

LinkTable build_link_table(const Architecture& arch, Arena& arena) {
  const std::size_t P = arch.pe_count();
  const std::size_t C = arch.cl_count();
  const std::size_t rows = P * P;
  std::int32_t* offsets = arena.alloc_filled<std::int32_t>(rows + 1, 0);
  // Distinct attached PEs per CL (membership semantics: a PE listed twice
  // still contributes one link, matching links_between).
  std::int32_t* att = arena.alloc<std::int32_t>(P);
  auto distinct_attached = [&](std::size_t c) -> std::size_t {
    const ClId id{static_cast<ClId::value_type>(c)};
    std::size_t k = 0;
    for (PeId p : arch.cl(id).attached) {
      const auto v = static_cast<std::int32_t>(p.index());
      bool seen = false;
      for (std::size_t i = 0; i < k; ++i) seen |= (att[i] == v);
      if (!seen) att[k++] = v;
    }
    return k;
  };

  for (std::size_t c = 0; c < C; ++c) {
    const std::size_t k = distinct_attached(c);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = i + 1; j < k; ++j) {
        const auto a = static_cast<std::size_t>(att[i]);
        const auto b = static_cast<std::size_t>(att[j]);
        ++offsets[a * P + b + 1];
        ++offsets[b * P + a + 1];
      }
  }
  for (std::size_t r = 0; r < rows; ++r) offsets[r + 1] += offsets[r];

  std::int32_t* cls = arena.alloc<std::int32_t>(
      static_cast<std::size_t>(offsets[rows]));
  std::int32_t* cursor = arena.alloc<std::int32_t>(rows);
  std::copy(offsets, offsets + rows, cursor);
  for (std::size_t c = 0; c < C; ++c) {  // ascending c => ascending per row
    const std::size_t k = distinct_attached(c);
    for (std::size_t i = 0; i < k; ++i)
      for (std::size_t j = i + 1; j < k; ++j) {
        const auto a = static_cast<std::size_t>(att[i]);
        const auto b = static_cast<std::size_t>(att[j]);
        cls[cursor[a * P + b]++] = static_cast<std::int32_t>(c);
        cls[cursor[b * P + a]++] = static_cast<std::int32_t>(c);
      }
  }
  return LinkTable{P, offsets, cls};
}

}  // namespace mmsyn
