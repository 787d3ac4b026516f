#include "core/run_control.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>

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
// Any other version is rejected up front.
constexpr std::uint32_t kVersion = 7;

class Writer {
public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] const std::string& bytes() const { return bytes_; }

private:
  std::string bytes_;
};

class Reader {
public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (pos_ >= bytes_.size())
      throw CheckpointError("payload truncated");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{u8()} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{u8()} << (8 * i);
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  /// A raw slice of `n` bytes (used for the length-prefixed per-island
  /// payloads of the v4 container).
  std::string_view raw(std::size_t n) {
    if (n > bytes_.size() - pos_)
      throw CheckpointError("payload truncated");
    const std::string_view slice = bytes_.substr(pos_, n);
    pos_ += n;
    return slice;
  }

  /// Passes `n` through as the count of elements that take at least
  /// `element_bytes` each; a count the bytes left cannot hold means a
  /// damaged payload, rejected before it can reach an allocation.
  std::uint64_t bounded(std::uint64_t n, std::uint64_t element_bytes) const {
    if (n > (bytes_.size() - pos_) / element_bytes)
      throw CheckpointError("element count " + std::to_string(n) +
                            " exceeds the payload");
    return n;
  }

  [[nodiscard]] bool done() const { return pos_ == bytes_.size(); }

private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

void write_individual(Writer& w, const SnapshotIndividual& ind,
                      std::size_t genome_length) {
  if (ind.genome.size() != genome_length)
    throw CheckpointError("inconsistent genome length in snapshot");
  for (std::uint16_t gene : ind.genome) {
    w.u8(static_cast<std::uint8_t>(gene & 0xff));
    w.u8(static_cast<std::uint8_t>(gene >> 8));
  }
  w.f64(ind.fitness);
  w.f64(ind.violation);
  w.f64(ind.power_true);
  w.boolean(ind.evaluated);
  w.boolean(ind.area_infeasible);
  w.boolean(ind.timing_infeasible);
  w.boolean(ind.transition_infeasible);
}

SnapshotIndividual read_individual(Reader& r, std::size_t genome_length) {
  SnapshotIndividual ind;
  ind.genome.resize(genome_length);
  for (std::uint16_t& gene : ind.genome) {
    const std::uint16_t lo = r.u8();
    const std::uint16_t hi = r.u8();
    gene = static_cast<std::uint16_t>(lo | (hi << 8));
  }
  ind.fitness = r.f64();
  ind.violation = r.f64();
  ind.power_true = r.f64();
  ind.evaluated = r.boolean();
  ind.area_infeasible = r.boolean();
  ind.timing_infeasible = r.boolean();
  ind.transition_infeasible = r.boolean();
  return ind;
}

void write_mode_key(Writer& w, const ModeEvalKey& key) {
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

void write_mode_evaluation(Writer& w, const ModeEvaluation& m) {
  // The memo never holds schedules (the GA hot loop drops them); a
  // schedule here means the snapshot was built from the wrong evaluator
  // configuration, which resume could not reproduce.
  if (m.schedule.has_value())
    throw CheckpointError("mode-cache entry carries a schedule");
  w.f64(m.dyn_energy);
  w.f64(m.dyn_power);
  w.f64(m.static_power);
  w.f64(m.timing_violation);
  w.f64(m.makespan);
  w.u64(m.pe_active.size());
  for (bool b : m.pe_active) w.boolean(b);
  w.u64(m.cl_active.size());
  for (bool b : m.cl_active) w.boolean(b);
  w.boolean(m.routable);
  w.f64(m.baseline_static_power);
  w.f64(m.idle_energy_saved);
  w.f64(m.wake_energy);
  w.f64(m.temperature);
}

ModeEvaluation read_mode_evaluation(Reader& r) {
  ModeEvaluation m;
  m.dyn_energy = r.f64();
  m.dyn_power = r.f64();
  m.static_power = r.f64();
  m.timing_violation = r.f64();
  m.makespan = r.f64();
  m.pe_active.resize(r.bounded(r.u64(), 1));
  for (std::size_t i = 0; i < m.pe_active.size(); ++i)
    m.pe_active[i] = r.boolean();
  m.cl_active.resize(r.bounded(r.u64(), 1));
  for (std::size_t i = 0; i < m.cl_active.size(); ++i)
    m.cl_active[i] = r.boolean();
  m.routable = r.boolean();
  m.baseline_static_power = r.f64();
  m.idle_energy_saved = r.f64();
  m.wake_energy = r.f64();
  m.temperature = r.f64();
  return m;
}

std::string serialize_ga(const GaSnapshot& snapshot) {
  // Genomes are fixed-length per run; store the length once.
  const std::size_t genome_length =
      snapshot.population.empty() ? snapshot.best.genome.size()
                                  : snapshot.population.front().genome.size();
  Writer w;
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
  for (const SnapshotIndividual& ind : snapshot.population)
    write_individual(w, ind, genome_length);
  w.u64(snapshot.cache.size());
  for (const SnapshotIndividual& ind : snapshot.cache)
    write_individual(w, ind, genome_length);
  w.i64(snapshot.mode_cache_hits);
  w.i64(snapshot.mode_cache_lookups);
  w.u64(snapshot.mode_cache.size());
  for (const auto& [key, value] : snapshot.mode_cache) {
    write_mode_key(w, key);
    write_mode_evaluation(w, value);
  }
  return w.bytes();
}

GaSnapshot deserialize_ga(std::string_view payload) {
  Reader r(payload);
  GaSnapshot s;
  s.fingerprint = r.u64();
  // Smallest serialized sizes bound the counts: a gene is a u16; an
  // individual adds three f64 and four flags; a memo entry is at least a
  // key (u32 + three u64) and an evaluation (nine f64, two u64, a flag).
  const std::uint64_t genome_length = r.bounded(r.u64(), 2);
  const std::uint64_t individual_bytes = 2 * genome_length + 3 * 8 + 4;
  constexpr std::uint64_t kModeEntryBytes = (4 + 3 * 8) + (9 * 8 + 2 * 8 + 1);
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
  const std::uint64_t mode_cache_count = r.bounded(r.u64(), kModeEntryBytes);
  s.mode_cache.reserve(mode_cache_count);
  for (std::uint64_t i = 0; i < mode_cache_count; ++i) {
    ModeEvalKey key = read_mode_key(r);
    ModeEvaluation value = read_mode_evaluation(r);
    s.mode_cache.emplace_back(std::move(key), std::move(value));
  }
  if (!r.done()) throw CheckpointError("trailing bytes in payload");
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
  Writer w;
  w.u64(snapshot.fingerprint);
  w.i32(snapshot.island_count);
  w.i32(snapshot.migration_interval);
  w.i32(snapshot.migrants);
  w.i64(snapshot.next_migration_generation);
  std::string bytes = w.bytes();
  for (const GaSnapshot& island : snapshot.islands) {
    const std::string payload = serialize_ga(island);
    Writer len;
    len.u64(payload.size());
    bytes += len.bytes();
    bytes += payload;
  }
  return bytes;
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
  if (!r.done()) throw CheckpointError("trailing bytes in payload");
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

  std::string file;
  file.reserve(payload.size() + 24);
  file.append(kMagic, sizeof kMagic);
  Writer header;
  header.u32(kVersion);
  header.u64(payload.size());
  file += header.bytes();
  file += payload;
  Writer trailer;
  trailer.u32(crc32(payload));
  file += trailer.bytes();

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
  Reader header(std::string_view(file).substr(sizeof kMagic, 12));
  const std::uint32_t version = header.u32();
  if (version != kVersion)
    throw CheckpointError("unsupported checkpoint version " +
                          std::to_string(version));
  const std::uint64_t payload_size = header.u64();
  const std::size_t payload_offset = sizeof kMagic + 12;
  if (file.size() != payload_offset + payload_size + 4)
    throw CheckpointError("truncated checkpoint: " + path);
  const std::string_view payload =
      std::string_view(file).substr(payload_offset, payload_size);
  Reader trailer(std::string_view(file).substr(payload_offset + payload_size));
  if (trailer.u32() != crc32(payload))
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
