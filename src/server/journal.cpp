#include "server/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/checksum.hpp"
#include "common/durable_file.hpp"
#include "common/failpoint.hpp"

namespace mmsyn {
namespace {

constexpr char kMagic[8] = {'M', 'M', 'S', 'Y', 'N', 'W', 'A', 'L'};
// v2: JobOptions gained power_backend (the --power registry choice).
constexpr std::uint32_t kJournalVersion = 2;
constexpr std::size_t kHeaderSize = sizeof(kMagic) + 4;
/// Same allocation guard as the wire layer: a corrupt length field must
/// not drive a huge allocation during replay.
constexpr std::uint32_t kMaxRecord = 64u << 20;

failpoint::Site fp_journal_write{"server.journal.write"};
failpoint::Site fp_result_write{"job.result.write"};

using Reader = ByteReader<JournalError>;

/// A record payload, started with the type byte and job id every record
/// leads with.
ByteWriter start_record(JournalRecordType type, std::uint64_t job_id) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(job_id);
  return w;
}

std::string encode_accept(std::uint64_t job_id, std::uint64_t fingerprint,
                          const JobOptions& options,
                          const std::string& system_text) {
  ByteWriter w = start_record(JournalRecordType::kAccept, job_id);
  w.u64(fingerprint);
  put(w, options);
  w.str(system_text);
  return w.take();
}

std::string encode_attempt(std::uint64_t job_id, int attempt) {
  ByteWriter w = start_record(JournalRecordType::kAttempt, job_id);
  w.u32(static_cast<std::uint32_t>(attempt));
  return w.take();
}

/// The type byte, then the kJobResult wire payload (whose first field is
/// the job id, so this record leads like the others).
std::string encode_complete(const JobResultReply& result) {
  ByteWriter w;
  put(w, JournalRecordType::kComplete);
  put(w, result);
  return w.take();
}

std::string encode_quarantine(std::uint64_t job_id, const std::string& error) {
  ByteWriter w = start_record(JournalRecordType::kQuarantine, job_id);
  w.str(error);
  return w.take();
}

/// One framed record: `u32 len | payload | u32 crc32(payload)`.
void frame_record(ByteWriter& w, std::string_view payload) {
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));
}

/// The file header: magic + version.
ByteWriter journal_header() {
  ByteWriter w;
  w.raw({kMagic, sizeof kMagic});
  w.u32(kJournalVersion);
  return w;
}

/// Applies one parsed record payload to the recovery state. Unknown job
/// ids (a terminal record whose kAccept fell in a compacted-away or torn
/// region) throw — replay stops at structurally valid but unreplayable
/// records the same way it stops at corrupt ones.
void apply_record(JournalRecovery& out, std::string_view payload) {
  Reader r(payload);
  const auto type = static_cast<JournalRecordType>(r.u8());
  const std::uint64_t id = r.u64();
  if (type == JournalRecordType::kAccept) {
    JournalJob job;
    job.job_id = id;
    job.fingerprint = r.u64();
    get(r, job.options);
    job.system_text = r.str();
    r.expect_end();
    if (id + 1 > out.next_job_id) out.next_job_id = id + 1;
    out.jobs[id] = std::move(job);
    return;
  }
  const auto it = out.jobs.find(id);
  if (it == out.jobs.end()) throw JournalError("record for unknown job");
  JournalJob& job = it->second;
  // Each case parses its whole record before touching the job, so a
  // record that fails to parse leaves the recovered state as it was.
  switch (type) {
    case JournalRecordType::kAttempt:
      (void)r.u32();  // attempt ordinal (diagnostic)
      r.expect_end();
      job.crash_attempts += 1;
      return;
    case JournalRecordType::kComplete: {
      // The body after the type byte is a kJobResult payload; its first
      // field is the id read above.
      Reader body(payload.substr(1));
      JobResultReply result;
      get(body, result);
      body.expect_end();
      job.completed = true;
      job.quarantined = false;
      job.result = std::move(result);
      return;
    }
    case JournalRecordType::kQuarantine: {
      std::string error = r.str();
      r.expect_end();
      job.quarantined = true;
      job.quarantine_error = std::move(error);
      return;
    }
    case JournalRecordType::kDrained:
      r.expect_end();
      job.crash_attempts = 0;
      return;
    case JournalRecordType::kAccept:  // handled above
      break;
  }
  throw JournalError("unknown record type");
}

}  // namespace

JournalRecovery replay_journal_bytes(std::string_view bytes,
                                     std::size_t& valid_size) {
  JournalRecovery out;
  if (bytes.size() < kHeaderSize) throw JournalError("missing header");
  Reader header(bytes);
  if (header.raw(sizeof kMagic) != std::string_view(kMagic, sizeof kMagic)) {
    throw JournalError("bad magic");
  }
  const std::uint32_t version = header.u32();
  if (version != kJournalVersion) {
    throw JournalError("unsupported version " + std::to_string(version));
  }

  std::size_t pos = kHeaderSize;
  valid_size = pos;
  while (pos < bytes.size()) {
    // A record needs len + payload + crc; anything shorter is a torn
    // append from a crash mid-write — truncate there.
    if (bytes.size() - pos < 8) {
      out.notes.push_back("torn tail: truncated length/crc at offset " +
                          std::to_string(pos));
      break;
    }
    Reader record(bytes.substr(pos));
    const std::uint32_t len = record.u32();
    if (len > kMaxRecord || bytes.size() - pos - 8 < len) {
      out.notes.push_back("torn tail: incomplete record at offset " +
                          std::to_string(pos));
      break;
    }
    const std::string_view payload = record.raw(len);
    if (record.u32() != crc32(payload)) {
      out.notes.push_back("corrupt record (CRC mismatch) at offset " +
                          std::to_string(pos) + "; tail dropped");
      break;
    }
    try {
      apply_record(out, payload);
    } catch (const JournalError& e) {
      out.notes.push_back(std::string("unreplayable record at offset ") +
                          std::to_string(pos) + ": " + e.what() +
                          "; tail dropped");
      break;
    }
    pos += 8 + len;
    valid_size = pos;
  }
  return out;
}

JobJournal::~JobJournal() { close(); }

void JobJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

JournalRecovery JobJournal::open(const std::string& path) {
  close();
  path_ = path;

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      bytes = ss.str();
    }
  }

  JournalRecovery recovery;
  std::size_t valid_size = 0;
  if (bytes.empty()) {
    // Fresh journal: write the header durably before accepting anything.
    const std::string header = journal_header().take();
    write_file_durable(path, header);
    fsync_parent_dir(path);
    valid_size = header.size();
  } else {
    recovery = replay_journal_bytes(bytes, valid_size);
    if (valid_size < bytes.size()) {
      // Torn/corrupt tail: truncate so future appends extend a clean
      // prefix instead of burying garbage mid-file.
      if (::truncate(path.c_str(), static_cast<off_t>(valid_size)) != 0) {
        throw JournalError("cannot truncate torn tail of " + path + ": " +
                           std::strerror(errno));
      }
    }
  }

  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    throw JournalError("cannot open for append: " + path + ": " +
                       std::strerror(errno));
  }
  return recovery;
}

void JobJournal::append_record(JournalRecordType type,
                               const std::string& payload) {
  if (fd_ < 0) throw JournalError("append on closed journal");
  // fail → TransientFault (caller retries with the deterministic backoff
  // schedule), kill → simulated crash, corrupt → flip a CRC byte so the
  // record is detectably bad on replay and the torn-tail discipline
  // drops it. Result appends pass an additional, independently armable
  // site so the torture harness can target exactly the complete path.
  bool corrupt = failpoint::inject(fp_journal_write);
  if (type == JournalRecordType::kComplete) {
    if (failpoint::inject(fp_result_write)) corrupt = true;
  }

  ByteWriter w;
  frame_record(w, payload);
  std::string rec = w.take();
  if (corrupt) rec.back() = static_cast<char>(rec.back() ^ 0x5a);

  const char* p = rec.data();
  std::size_t left = rec.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw JournalError("append failed: " + path_ + ": " +
                         std::strerror(errno));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    throw JournalError("fsync failed: " + path_ + ": " + std::strerror(errno));
  }
}

void JobJournal::append_accept(std::uint64_t job_id, std::uint64_t fingerprint,
                               const JobOptions& options,
                               const std::string& system_text) {
  append_record(JournalRecordType::kAccept,
                encode_accept(job_id, fingerprint, options, system_text));
}

void JobJournal::append_attempt(std::uint64_t job_id, int attempt) {
  append_record(JournalRecordType::kAttempt, encode_attempt(job_id, attempt));
}

void JobJournal::append_complete(const JobResultReply& result) {
  append_record(JournalRecordType::kComplete, encode_complete(result));
}

void JobJournal::append_quarantine(std::uint64_t job_id,
                                   const std::string& error) {
  append_record(JournalRecordType::kQuarantine,
                encode_quarantine(job_id, error));
}

void JobJournal::append_drained(std::uint64_t job_id) {
  append_record(JournalRecordType::kDrained,
                start_record(JournalRecordType::kDrained, job_id).take());
}

void JobJournal::compact(const JournalRecovery& state,
                         const std::vector<std::uint64_t>& forget) {
  if (path_.empty()) throw JournalError("compact before open");

  ByteWriter image = journal_header();
  for (const auto& [id, job] : state.jobs) {
    bool skip = false;
    for (const std::uint64_t f : forget) skip = skip || f == id;
    if (skip) continue;
    frame_record(image, encode_accept(job.job_id, job.fingerprint,
                                      job.options, job.system_text));
    // Crash-attempt history survives compaction as a run of kAttempt
    // records, so a job one crash away from quarantine stays one away.
    for (int i = 0; i < job.crash_attempts; ++i)
      frame_record(image, encode_attempt(job.job_id, i + 1));
    if (job.completed) {
      frame_record(image, encode_complete(job.result));
    } else if (job.quarantined) {
      frame_record(image, encode_quarantine(job.job_id, job.quarantine_error));
    }
  }

  const std::string tmp = path_ + ".tmp";
  try {
    write_file_durable(tmp, image.take());
  } catch (const DurableIoError& e) {
    throw JournalError(e.what());
  }
  close();
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw JournalError("rename failed: " + path_ + ": " + std::strerror(errno));
  }
  fsync_parent_dir(path_);

  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND);
  if (fd_ < 0) {
    throw JournalError("cannot reopen after compaction: " + path_ + ": " +
                       std::strerror(errno));
  }
}

}  // namespace mmsyn
