#include "pipeline/profile.hpp"

#include <sstream>

#include "common/table.hpp"

namespace mmsyn {

const char* to_string(PipelineStage stage) {
  switch (stage) {
    case PipelineStage::kCommMapping: return "comm-mapping";
    case PipelineStage::kSchedule: return "schedule";
    case PipelineStage::kSerialize: return "serialize";
    case PipelineStage::kScale: return "scale";
    case PipelineStage::kFinalize: return "finalize";
  }
  return "?";
}

std::string PipelineProfiler::table(long eval_hits, long eval_lookups) const {
  constexpr PipelineStage kStages[] = {
      PipelineStage::kCommMapping, PipelineStage::kSchedule,
      PipelineStage::kSerialize, PipelineStage::kScale,
      PipelineStage::kFinalize};

  double total_seconds = 0.0;
  for (PipelineStage s : kStages) total_seconds += stats(s).seconds;

  TextTable table;
  table.set_header({"stage", "calls", "time(s)", "share"});
  for (PipelineStage s : kStages) {
    const StageStats st = stats(s);
    const double share =
        total_seconds > 0.0 ? st.seconds / total_seconds : 0.0;
    table.add_row({to_string(s), std::to_string(st.calls),
                   TextTable::num(st.seconds, 3),
                   TextTable::pct(share) + "%"});
  }

  std::ostringstream os;
  table.print(os, "pipeline stage profile");
  if (eval_lookups >= 0) {
    const double rate =
        eval_lookups > 0 ? static_cast<double>(eval_hits) / eval_lookups : 0.0;
    os << "mode-eval cache: " << eval_hits << "/" << eval_lookups
       << " hits (" << TextTable::pct(rate) << "%)\n";
  }
  return os.str();
}

}  // namespace mmsyn
