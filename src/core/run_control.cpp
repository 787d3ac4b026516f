#include "core/run_control.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/byte_codec.hpp"
#include "common/checksum.hpp"
#include "common/durable_file.hpp"
#include "common/failpoint.hpp"
#include "common/interrupt.hpp"

namespace mmsyn {
namespace {

// Checkpoint file layout (all integers little-endian):
//   8 bytes  magic "MMSYNCKP"
//   u32      format version (kVersion)
//   u64      payload size in bytes
//   payload  serialized island container (see serialize_container)
//   u32      CRC-32 of the payload
// The trailing CRC plus the explicit size reject truncation and bit rot;
// the version gates format evolution.
constexpr char kMagic[8] = {'M', 'M', 'S', 'Y', 'N', 'C', 'K', 'P'};
// v2: appended the per-mode evaluation memo (keys + results + counters).
// v3: appended a schedule-stage tier of the same memo.
// v4: every file is an island container — config header (island count,
// migration schedule, next barrier) followed by one length-prefixed
// GaSnapshot per island; a single-population save is the one-island
// special case. GaSnapshot itself gained the `converged` latch.
// v5: ModeEvaluation gained the power-model breakdown fields
// (baseline_static_power, idle_energy_saved, wake_energy, temperature),
// serialized after `routable`.
// v6: dropped the schedule-stage tier again; the per-mode memo is the
// last section of each GaSnapshot. The best individual is stored only
// when has_best is set (v5 wrote an empty genome for a missing best,
// which the reader then misparsed).
// v7: same layout; the GA fingerprints no longer hash a random-engine
// choice (Threefry is the only GA engine), and a one-island container
// stores a zero migration schedule, so v6 fingerprints cannot match.
// v8: same layout; every evaluation fingerprint now folds the power
// backend (`paper` included), the GA state fingerprint takes the
// evaluation options from it, and the removed diversity floor is no
// longer hashed, so v7 fingerprints cannot match.
// Any other version is rejected up front.
constexpr std::uint32_t kVersion = 8;

using Reader = ByteReader<CheckpointError>;

// An individual's score and a memo entry's ModeEvaluation go through
// put/get and their fields() lists. What stays hand-written is the layout
// around them: a snapshot stores the genome length once (an individual
// is its genes, then its score) and the best individual only when there
// is one, and a memo key bounds each element count by that element's
// minimum size.

template <class T>
std::uint64_t encoded_size(const T& value) {
  ByteWriter w;
  put(w, value);
  return w.take().size();
}

void write_individual(ByteWriter& w, const Individual& ind,
                      std::size_t genome_length) {
  if (ind.genome.size() != genome_length)
    throw CheckpointError("inconsistent genome length in snapshot");
  for (std::uint16_t gene : ind.genome) w.u16(gene);
  put(w, ind.score);
}

Individual read_individual(Reader& r, std::size_t genome_length) {
  Individual ind;
  ind.genome.resize(genome_length);
  for (std::uint16_t& gene : ind.genome) gene = r.u16();
  get(r, ind.score);
  return ind;
}

void write_mode_key(ByteWriter& w, const ModeEvalKey& key) {
  w.u32(key.mode);
  w.u64(key.options_fingerprint);
  w.u64(key.task_to_pe.size());
  for (PeId p : key.task_to_pe) w.i32(p.value());
  w.u64(key.cores.size());
  for (const CoreSet& set : key.cores) {
    w.u64(set.entries().size());
    for (const auto& [type, count] : set.entries()) {
      w.i32(type.value());
      w.i32(count);
    }
  }
}

ModeEvalKey read_mode_key(Reader& r) {
  ModeEvalKey key;
  key.mode = r.u32();
  key.options_fingerprint = r.u64();
  const std::uint64_t n_tasks = r.bounded(r.u64(), 4);
  key.task_to_pe.reserve(n_tasks);
  for (std::uint64_t i = 0; i < n_tasks; ++i)
    key.task_to_pe.push_back(PeId{static_cast<PeId::value_type>(r.i32())});
  key.cores.resize(r.bounded(r.u64(), 8));
  for (CoreSet& set : key.cores) {
    const std::uint64_t n_entries = r.bounded(r.u64(), 8);
    for (std::uint64_t e = 0; e < n_entries; ++e) {
      const TaskTypeId type{static_cast<TaskTypeId::value_type>(r.i32())};
      set.set_count(type, r.i32());
    }
  }
  return key;
}

std::string serialize_ga(const GaSnapshot& snapshot) {
  // Genomes are fixed-length per run; store the length once.
  const std::size_t genome_length =
      snapshot.population.empty() ? snapshot.best.genome.size()
                                  : snapshot.population.front().genome.size();
  ByteWriter w;
  w.u64(snapshot.fingerprint);
  w.u64(genome_length);
  w.i32(snapshot.next_generation);
  w.i32(snapshot.stagnation);
  w.boolean(snapshot.converged);
  w.i32(snapshot.area_infeasible_streak);
  w.i32(snapshot.timing_infeasible_streak);
  w.i32(snapshot.transition_infeasible_streak);
  w.i64(snapshot.evaluations);
  w.i64(snapshot.cache_hits);
  w.i64(snapshot.cache_lookups);
  w.f64(snapshot.elapsed_seconds);
  for (std::uint64_t word : snapshot.rng_state) w.u64(word);
  // A run stopped before its first evaluation has no best (and an empty
  // best genome), so the best is stored only when there is one.
  w.boolean(snapshot.has_best);
  if (snapshot.has_best) write_individual(w, snapshot.best, genome_length);
  w.u64(snapshot.population.size());
  for (const Individual& ind : snapshot.population)
    write_individual(w, ind, genome_length);
  w.u64(snapshot.cache.size());
  for (const Individual& ind : snapshot.cache)
    write_individual(w, ind, genome_length);
  w.i64(snapshot.mode_cache_hits);
  w.i64(snapshot.mode_cache_lookups);
  w.u64(snapshot.mode_cache.size());
  for (const auto& [key, value] : snapshot.mode_cache) {
    // The memo never holds schedules (the GA hot loop drops them); a
    // schedule here means the snapshot was built from the wrong evaluator
    // configuration, which resume could not reproduce.
    if (value.schedule.has_value())
      throw CheckpointError("mode-cache entry carries a schedule");
    write_mode_key(w, key);
    put(w, value);
  }
  return w.take();
}

GaSnapshot deserialize_ga(std::string_view payload) {
  Reader r(payload);
  GaSnapshot s;
  s.fingerprint = r.u64();
  // Smallest serialized sizes bound the counts: a gene is a u16; an
  // individual adds its score; a memo entry is at least a key (u32 +
  // three u64) and an evaluation with no PEs or CLs.
  const std::uint64_t genome_length = r.bounded(r.u64(), 2);
  const std::uint64_t individual_bytes =
      2 * genome_length + encoded_size(Score{});
  const std::uint64_t mode_entry_bytes =
      (4 + 3 * 8) + encoded_size(ModeEvaluation{});
  s.next_generation = r.i32();
  s.stagnation = r.i32();
  s.converged = r.boolean();
  s.area_infeasible_streak = r.i32();
  s.timing_infeasible_streak = r.i32();
  s.transition_infeasible_streak = r.i32();
  s.evaluations = r.i64();
  s.cache_hits = r.i64();
  s.cache_lookups = r.i64();
  s.elapsed_seconds = r.f64();
  for (std::uint64_t& word : s.rng_state) word = r.u64();
  s.has_best = r.boolean();
  if (s.has_best) s.best = read_individual(r, genome_length);
  const std::uint64_t population_count = r.bounded(r.u64(), individual_bytes);
  s.population.reserve(population_count);
  for (std::uint64_t i = 0; i < population_count; ++i)
    s.population.push_back(read_individual(r, genome_length));
  const std::uint64_t cache_count = r.bounded(r.u64(), individual_bytes);
  s.cache.reserve(cache_count);
  for (std::uint64_t i = 0; i < cache_count; ++i)
    s.cache.push_back(read_individual(r, genome_length));
  s.mode_cache_hits = r.i64();
  s.mode_cache_lookups = r.i64();
  const std::uint64_t mode_cache_count = r.bounded(r.u64(), mode_entry_bytes);
  s.mode_cache.reserve(mode_cache_count);
  for (std::uint64_t i = 0; i < mode_cache_count; ++i) {
    ModeEvalKey key = read_mode_key(r);
    ModeEvaluation value;
    get(r, value);
    s.mode_cache.emplace_back(std::move(key), std::move(value));
  }
  r.expect_end();
  return s;
}

// The v4 island container: config header + length-prefixed per-island
// GaSnapshot payloads, in island order.
std::string serialize_container(const IslandSnapshot& snapshot) {
  if (snapshot.islands.size() !=
      static_cast<std::size_t>(snapshot.island_count))
    throw CheckpointError("island container holds " +
                          std::to_string(snapshot.islands.size()) +
                          " snapshots but declares " +
                          std::to_string(snapshot.island_count));
  ByteWriter w;
  w.u64(snapshot.fingerprint);
  w.i32(snapshot.island_count);
  w.i32(snapshot.migration_interval);
  w.i32(snapshot.migrants);
  w.i64(snapshot.next_migration_generation);
  for (const GaSnapshot& island : snapshot.islands) {
    const std::string payload = serialize_ga(island);
    w.u64(payload.size());
    w.raw(payload);
  }
  return w.take();
}

IslandSnapshot deserialize_container(std::string_view payload) {
  Reader r(payload);
  IslandSnapshot s;
  s.fingerprint = r.u64();
  s.island_count = r.i32();
  s.migration_interval = r.i32();
  s.migrants = r.i32();
  s.next_migration_generation = r.i64();
  if (s.island_count < 1)
    throw CheckpointError("island container declares " +
                          std::to_string(s.island_count) + " islands");
  // Each island takes at least its u64 length prefix.
  s.islands.reserve(r.bounded(static_cast<std::uint64_t>(s.island_count), 8));
  for (std::int32_t i = 0; i < s.island_count; ++i)
    s.islands.push_back(deserialize_ga(r.raw(r.u64())));
  r.expect_end();
  return s;
}

// Failpoints on the checkpoint I/O path (see common/failpoint.hpp).
// `fail` on either site is retried with deterministic backoff; `corrupt`
// on checkpoint.write flips one payload byte in the on-disk image (the
// generation then fails its CRC on load, exercising the fallback), and
// `corrupt` on io.read flips one byte of the in-memory image after a
// clean read. io.read is shared by name with model/io.cpp.
failpoint::Site fp_checkpoint_write{"checkpoint.write"};
failpoint::Site fp_checkpoint_rename{"checkpoint.rename"};
failpoint::Site fp_io_read{"io.read"};

}  // namespace

std::string checkpoint_generation_path(const std::string& path,
                                       int generation) {
  return generation <= 0 ? path : path + "." + std::to_string(generation);
}

void save_island_checkpoint_rotating(const std::string& path,
                                     const IslandSnapshot& snapshot,
                                     int keep) {
  if (keep < 1) keep = 1;
  const std::string payload = serialize_container(snapshot);

  ByteWriter w;
  w.raw({kMagic, sizeof kMagic});
  w.u32(kVersion);
  w.u64(payload.size());
  w.raw(payload);
  w.u32(crc32(payload));
  const std::string file = w.take();

  const std::string tmp = path + ".tmp";
  try {
    failpoint::retry_transient("checkpoint.write", [&] {
      std::string image = file;
      if (failpoint::inject(fp_checkpoint_write)) {
        // Deterministic corruption: flip one bit mid-payload; the CRC
        // trailer stays stale so the generation is rejected on load.
        const std::size_t at = sizeof kMagic + 12 + payload.size() / 2;
        image[at] = static_cast<char>(image[at] ^ 0x01);
      }
      try {
        write_file_durable(tmp, image);
      } catch (const DurableIoError& e) {
        // The checkpoint layer's callers tolerate CheckpointError (a
        // lost periodic save must not kill a multi-hour run).
        throw CheckpointError(e.what());
      }
    });

    // Shift the surviving generations up before the new file takes the
    // base name; a missing generation is not an error (fresh runs).
    for (int gen = keep - 1; gen >= 1; --gen)
      (void)std::rename(checkpoint_generation_path(path, gen - 1).c_str(),
                        checkpoint_generation_path(path, gen).c_str());

    // Atomic replace: a crash mid-save leaves the previous generations in
    // place (possibly shifted up one slot), never a half-written file
    // under a loadable name.
    failpoint::retry_transient("checkpoint.rename", [&] {
      (void)failpoint::inject(fp_checkpoint_rename);
      if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw CheckpointError("cannot rename " + tmp + " to " + path);
    });
  } catch (const TransientFault& e) {
    // Exhausted retries surface as the checkpoint-layer error type.
    std::remove(tmp.c_str());
    throw CheckpointError(std::string("giving up after ") +
                          std::to_string(failpoint::kMaxRetryAttempts) +
                          " attempts: " + e.what());
  }
  fsync_parent_dir(path);
}

IslandSnapshot load_island_checkpoint(const std::string& path) {
  std::string file;
  try {
    file = failpoint::retry_transient("checkpoint read", [&] {
      const bool corrupt = failpoint::inject(fp_io_read);
      std::ifstream is(path, std::ios::binary);
      if (!is) throw CheckpointError("cannot open for reading: " + path);
      std::ostringstream buffer;
      buffer << is.rdbuf();
      std::string bytes = buffer.str();
      if (corrupt && !bytes.empty())
        bytes[bytes.size() / 2] =
            static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
      return bytes;
    });
  } catch (const TransientFault& e) {
    throw CheckpointError(std::string("giving up after ") +
                          std::to_string(failpoint::kMaxRetryAttempts) +
                          " attempts: " + e.what());
  }

  if (file.size() < sizeof kMagic + 12 ||
      file.compare(0, sizeof kMagic, kMagic, sizeof kMagic) != 0)
    throw CheckpointError("not a mmsyn checkpoint: " + path);
  Reader r(file);
  (void)r.raw(sizeof kMagic);
  const std::uint32_t version = r.u32();
  if (version != kVersion)
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version));
  const std::uint64_t payload_size = r.u64();
  if (file.size() != sizeof kMagic + 12 + payload_size + 4)
    throw CheckpointError("truncated checkpoint: " + path);
  const std::string_view payload = r.raw(payload_size);
  if (r.u32() != crc32(payload))
    throw CheckpointError("CRC mismatch (corrupted file): " + path);
  return deserialize_container(payload);
}

LoadedCheckpoint load_island_checkpoint_fallback(
    const std::string& path, int keep,
    std::optional<std::uint64_t> expected_fingerprint) {
  if (keep < 1) keep = 1;
  LoadedCheckpoint result;
  for (int gen = 0; gen < keep; ++gen) {
    const std::string gen_path = checkpoint_generation_path(path, gen);
    try {
      IslandSnapshot snapshot = load_island_checkpoint(gen_path);
      if (expected_fingerprint.has_value() &&
          snapshot.fingerprint != *expected_fingerprint)
        throw CheckpointError(
            "configuration fingerprint mismatch (the file was written with "
            "--islands=" + std::to_string(snapshot.island_count) +
            "; resuming needs the same island count, migration schedule, "
            "seed, GA options and system): " + gen_path);
      result.snapshot = std::move(snapshot);
      result.loaded_path = gen_path;
      result.generation = gen;
      return result;
    } catch (const CheckpointError& e) {
      result.notes.emplace_back(e.what());
    }
  }
  std::string message = "no usable checkpoint generation under " + path;
  for (const std::string& note : result.notes) message += "; " + note;
  throw CheckpointError(message);
}

void RunControl::write_island_checkpoint(const IslandSnapshot& snapshot) const {
  if (checkpoint_path.empty()) return;
  try {
    save_island_checkpoint_rotating(checkpoint_path, snapshot,
                                    checkpoint_keep_generations);
  } catch (const CheckpointError& e) {
    ++checkpoint_write_failures_;
    log_recovery(std::string("tolerated checkpoint write failure (run "
                             "continues on older generations): ") +
                 e.what());
  }
}

bool RunControl::cancel_requested() const {
  return cancelled_.load(std::memory_order_relaxed) ||
         (poll_interrupt_flag_ && interrupt_requested());
}

}  // namespace mmsyn
