// Per-stage instrumentation of the mode-evaluation pipeline.
//
// A PipelineProfiler accumulates monotonic wall time and call counts per
// pipeline stage with relaxed atomics, so the GA's parallel inner loops
// can record into one shared profiler without synchronisation or result
// perturbation. Attach one via PipelineOptions::profiler (surfaced as
// --profile on the CLI binaries); a null profiler costs nothing — the
// stage timer reads the clock only when a profiler is present, and
// profiling never feeds back into any computed result.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace mmsyn {

/// The five stages of ModePipeline, in execution order.
enum class PipelineStage {
  kCommMapping = 0,  ///< communication-aware priority assignment
  kSchedule,         ///< list scheduling + CL routing
  kSerialize,        ///< Fig. 5 DVS-graph construction
  kScale,            ///< PV-DVS voltage scaling / nominal energy sum
  kFinalize,         ///< timing penalty + shut-down analysis
};

inline constexpr std::size_t kPipelineStageCount = 5;

/// Short stable stage name ("comm-mapping", "schedule", ...).
[[nodiscard]] const char* to_string(PipelineStage stage);

/// Thread-safe accumulator of per-stage timings.
class PipelineProfiler {
public:
  struct StageStats {
    long calls = 0;
    double seconds = 0.0;
  };

  void record(PipelineStage stage, std::uint64_t nanos) {
    const auto i = static_cast<std::size_t>(stage);
    calls_[i].fetch_add(1, std::memory_order_relaxed);
    nanos_[i].fetch_add(nanos, std::memory_order_relaxed);
  }

  [[nodiscard]] StageStats stats(PipelineStage stage) const {
    const auto i = static_cast<std::size_t>(stage);
    return {calls_[i].load(std::memory_order_relaxed),
            static_cast<double>(nanos_[i].load(std::memory_order_relaxed)) *
                1e-9};
  }

  void reset() {
    for (auto& c : calls_) c.store(0, std::memory_order_relaxed);
    for (auto& n : nanos_) n.store(0, std::memory_order_relaxed);
  }

  /// Renders the per-stage table (calls, total time, share of pipeline
  /// time) plus the mode-eval cache hit rate, via common/table. Pass -1
  /// counters to omit the cache row.
  [[nodiscard]] std::string table(long eval_hits, long eval_lookups) const;

private:
  std::array<std::atomic<long>, kPipelineStageCount> calls_{};
  std::array<std::atomic<std::uint64_t>, kPipelineStageCount> nanos_{};
};

/// RAII stage timer: no-op when `profiler` is null.
class StageTimer {
public:
  StageTimer(PipelineProfiler* profiler, PipelineStage stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() {
    if (profiler_)
      profiler_->record(
          stage_,
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start_)
                  .count()));
  }

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

private:
  PipelineProfiler* profiler_;
  PipelineStage stage_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace mmsyn
