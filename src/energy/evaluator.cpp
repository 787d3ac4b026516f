#include "energy/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "common/checksum.hpp"
#include "common/failpoint.hpp"
#include "energy/artifact_hash.hpp"
#include "power/power_model.hpp"

namespace mmsyn {
namespace {

// Failpoint on memo insertion. `corrupt` poisons the stored copy *after*
// its digest is taken (a deterministic bit flip in the hottest scalar),
// so the next lookup of that key fails verification and quarantines the
// entry. `fail` drops the insert instead of throwing: a memo insert has
// no caller-side retry (the value is already computed), and a lost entry
// is recomputed on the next miss, also self-healing.
failpoint::Site fp_cache_insert{"cache.insert"};

// Self-healing digests live in energy/artifact_hash.hpp; they and the
// auditor's equality checks walk ModeEvaluation::fields, so a new field
// can't silently drop out of either.

}  // namespace

std::size_t ModeEvalKeyHash::operator()(const ModeEvalKey& key) const {
  // Bucket placement only: nothing persists this value (checkpoints store
  // the memo in FIFO order); the persisted digests stay FNV-1a.
  std::uint64_t h = mix_word(key.options_fingerprint, key.mode);
  for (PeId pe : key.task_to_pe)
    h = mix_word(h, static_cast<std::uint32_t>(pe.value()));
  for (const CoreSet& set : key.cores) {
    h = mix_word(h, set.entries().size());
    for (const auto& [type, count] : set.entries())
      h = mix_word(h, (std::uint64_t{static_cast<std::uint32_t>(type.value())}
                       << 32) |
                          static_cast<std::uint32_t>(count));
  }
  return static_cast<std::size_t>(h);
}

const ModeEvaluation* ModeEvalCache::find(const ModeEvalKey& key,
                                          std::size_t hash) {
  ++lookups_;
  const auto it = map_.find(HashedModeKey{&key, hash});
  if (it == map_.end()) return nullptr;
  const std::list<Stored>::iterator entry = it->second;
  if (mode_evaluation_digest(entry->value) != entry->digest) {
    // Poisoned entry: quarantine (erase) and report a miss so the caller
    // recomputes. Recomputation is bit-identical to a cold evaluation.
    ++quarantined_;
    map_.erase(it);
    fifo_.erase(entry);
    return nullptr;
  }
  ++hits_;
  return &entry->value;
}

void ModeEvalCache::insert(const ModeEvalKey& key, std::size_t hash,
                           const ModeEvaluation& value) {
  // Duplicate keys must be detected *before* eviction: at capacity, running
  // the eviction loop first would evict the FIFO head and then fail the
  // emplace, shrinking the cache and losing an innocent entry.
  if (map_.contains(HashedModeKey{&key, hash})) return;
  const failpoint::Action fault = fp_cache_insert.hit();
  if (fault == failpoint::Action::kKill) std::_Exit(failpoint::kKillExitCode);
  if (fault == failpoint::Action::kFail) return;
  if (capacity_ > 0) {
    while (map_.size() >= capacity_ && !fifo_.empty()) {
      map_.erase(HashedModeKey{&fifo_.front().key, fifo_.front().hash});
      fifo_.pop_front();
    }
  }
  Stored& stored = fifo_.emplace_back(
      Stored{key, hash, value, mode_evaluation_digest(value)});
  if (fault == failpoint::Action::kCorrupt)
    stored.value.dyn_energy =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(
                                  stored.value.dyn_energy) ^ 1u);
  map_.emplace(HashedModeKey{&stored.key, hash}, std::prev(fifo_.end()));
}

std::vector<std::pair<ModeEvalKey, ModeEvaluation>> ModeEvalCache::entries()
    const {
  std::vector<std::pair<ModeEvalKey, ModeEvaluation>> out;
  out.reserve(fifo_.size());
  for (const Stored& stored : fifo_) out.emplace_back(stored.key, stored.value);
  return out;
}

void ModeEvalCache::restore(
    std::vector<std::pair<ModeEvalKey, ModeEvaluation>> entries, long hits,
    long lookups) {
  map_.clear();
  fifo_.clear();
  for (auto& [key, value] : entries) insert(key, value);
  hits_ = hits;
  lookups_ = lookups;
}

void ModeEvalCache::clear() {
  map_.clear();
  fifo_.clear();
  hits_ = 0;
  lookups_ = 0;
  quarantined_ = 0;
}

Evaluator::Evaluator(const System& system, EvaluationOptions options)
    : system_(system),
      options_(std::move(options)),
      pipeline_(system, PipelineOptions{options_.scheduling_policy,
                                        options_.use_dvs, options_.dvs,
                                        options_.keep_schedules,
                                        options_.profiler, options_.power}) {
  // Finalize on this thread: the pool threads that later read the graphs
  // (core allocation, scheduling) must find the adjacency already built.
  for (const Mode& mode : system.omsm.modes())
    if (!mode.graph.finalize())
      throw std::invalid_argument("mode '" + mode.name +
                                  "': task graph is cyclic");
  true_probs_ = system.omsm.probabilities();
  if (options_.weight_override.empty()) {
    weights_ = true_probs_;
  } else {
    if (options_.weight_override.size() != system.omsm.mode_count())
      throw std::invalid_argument(
          "EvaluationOptions::weight_override size mismatch");
    weights_ = options_.weight_override;
  }
  double total = 0.0;
  for (double w : weights_) total += w;
  if (total <= 0.0)
    throw std::invalid_argument("optimisation weights must sum > 0");
  for (double& w : weights_) w /= total;
}

std::vector<CoreSet> Evaluator::mode_cores(std::size_t m,
                                           const MultiModeMapping& mapping,
                                           const CoreAllocation& cores) const {
  return used_cores(cores.per_mode[m],
                    hardware_groups(system_, m, mapping.modes[m]));
}

ModeEvaluation Evaluator::evaluate_mode(std::size_t m,
                                        const MultiModeMapping& mapping,
                                        const CoreAllocation& cores) const {
  return pipeline_.run(m, mapping.modes[m], mode_cores(m, mapping, cores));
}

ModeEvalKey Evaluator::mode_key(std::size_t m, const MultiModeMapping& mapping,
                                const CoreAllocation& cores) const {
  return mode_key(m, mapping, cores,
                  hardware_groups(system_, m, mapping.modes[m]));
}

ModeEvalKey Evaluator::mode_key(std::size_t m, const MultiModeMapping& mapping,
                                const CoreAllocation& cores,
                                std::span<const CoreGroup> groups) const {
  ModeEvalKey key;
  key.mode = static_cast<std::uint32_t>(m);
  key.options_fingerprint = pipeline_.evaluation_fingerprint();
  key.task_to_pe = mapping.modes[m].task_to_pe;
  key.cores = used_cores(cores.per_mode[m], groups);
  return key;
}

Evaluation Evaluator::assemble(const MultiModeMapping& mapping,
                               const CoreAllocation& cores,
                               std::vector<ModeEvaluation> modes) const {
  (void)mapping;
  const Omsm& omsm = system_.omsm;
  const Architecture& arch = system_.arch;
  const TechLibrary& tech = system_.tech;
  assert(modes.size() == omsm.mode_count());

  Evaluation eval;
  eval.modes = std::move(modes);

  // Accumulated in ascending mode order so the floating-point sums are
  // bitwise-identical to the pre-decomposition evaluator.
  for (std::size_t m = 0; m < omsm.mode_count(); ++m) {
    const Mode& mode = omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
    const ModeEvaluation& me = eval.modes[m];
    const double mode_power = mode_total_power(me);
    eval.avg_power_true += mode_power * true_probs_[m];
    eval.avg_power_weighted += mode_power * weights_[m];
    // Normalised by the mode period: the timing penalty is expressed in
    // fractions of the period, never raw seconds (scale-independent).
    eval.weighted_timing_violation +=
        weights_[m] * me.timing_violation / mode.period;
  }

  // ---- Area usage and violations (line 06). -----------------------------
  eval.pe_used_area.assign(arch.pe_count(), 0.0);
  eval.pe_area_violation.assign(arch.pe_count(), 0.0);
  for (PeId p : arch.pe_ids()) {
    const Pe& pe = arch.pe(p);
    if (!is_hardware(pe.kind)) continue;
    eval.pe_used_area[p.index()] = cores.required_area(p, tech);
    eval.pe_area_violation[p.index()] =
        std::max(0.0, eval.pe_used_area[p.index()] - pe.area_capacity);
    eval.total_area_violation += eval.pe_area_violation[p.index()];
  }

  // ---- Mode-transition (FPGA reconfiguration) times (line 08). ----------
  eval.transition_times.assign(omsm.transition_count(), 0.0);
  eval.transition_violations.assign(omsm.transition_count(), 0.0);
  for (std::size_t t = 0; t < omsm.transition_count(); ++t) {
    const ModeTransition& tr =
        omsm.transition(TransitionId{static_cast<TransitionId::value_type>(t)});
    double time = 0.0;
    for (PeId p : arch.pe_ids()) {
      const Pe& pe = arch.pe(p);
      if (pe.kind != PeKind::kFpga) continue;
      const double delta = cores.cores(tr.to, p).delta_area_from(
          cores.cores(tr.from, p), tech, p);
      // FPGAs reconfigure in parallel with each other; the transition
      // waits for the slowest one.
      time = std::max(time, delta / pe.reconfig_bandwidth);
    }
    eval.transition_times[t] = time;
    eval.transition_violations[t] =
        std::max(0.0, time - tr.max_transition_time);
  }

  return eval;
}

Evaluation Evaluator::evaluate(const MultiModeMapping& mapping,
                               const CoreAllocation& cores) const {
  std::vector<ModeEvaluation> modes;
  modes.reserve(system_.omsm.mode_count());
  for (std::size_t m = 0; m < system_.omsm.mode_count(); ++m)
    modes.push_back(evaluate_mode(m, mapping, cores));
  return assemble(mapping, cores, std::move(modes));
}

Evaluation Evaluator::evaluate(const MultiModeMapping& mapping,
                               const CoreAllocation& cores,
                               ModeEvalCache* cache) const {
  if (cache == nullptr || options_.keep_schedules)
    return evaluate(mapping, cores);
  std::vector<ModeEvaluation> modes;
  modes.reserve(system_.omsm.mode_count());
  for (std::size_t m = 0; m < system_.omsm.mode_count(); ++m) {
    const ModeEvalKey key = mode_key(m, mapping, cores);
    const std::size_t hash = ModeEvalKeyHash{}(key);
    if (const ModeEvaluation* hit = cache->find(key, hash)) {
      modes.push_back(*hit);
      continue;
    }
    modes.push_back(pipeline_.run(m, mapping.modes[m], key.cores));
    cache->insert(key, hash, modes.back());
  }
  return assemble(mapping, cores, std::move(modes));
}

}  // namespace mmsyn
