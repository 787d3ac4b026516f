// Shared field-by-field hashing and exact equality of the per-mode
// pipeline artifacts.
//
// The mode cache's self-healing digest and the auditor's stage-replay /
// cache-invariant comparisons share this one field enumeration, so a
// field dropped from one cannot silently weaken the other: the digest
// covers exactly the fields equal_mode_evaluations compares (the
// optional retained schedule excluded — memoised entries never carry
// one, and the auditor compares schedules with equal_mode_schedules).
//
// Stability: the digest is an in-memory integrity check, recomputed on
// every cache insert (checkpoints store values, not digests), so the
// definition may evolve with the struct — but within one build it must
// be deterministic across calls and processes, which the hash-stability
// test pins.
#pragma once

#include <cstdint>

#include "pipeline/artifacts.hpp"
#include "sched/schedule.hpp"

namespace mmsyn {

/// FNV-1a digest of every compared ModeEvaluation field.
[[nodiscard]] std::uint64_t mode_evaluation_digest(const ModeEvaluation& m);

/// Exact (bitwise) equality over the digested ModeEvaluation fields.
[[nodiscard]] bool equal_mode_evaluations(const ModeEvaluation& a,
                                          const ModeEvaluation& b);

/// Exact (bitwise) equality over every ModeSchedule field.
[[nodiscard]] bool equal_mode_schedules(const ModeSchedule& a,
                                        const ModeSchedule& b);

}  // namespace mmsyn
