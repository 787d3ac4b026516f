// Versioned, length-prefixed binary wire protocol of the synthesis job
// server (DESIGN.md §15).
//
// Every message travels as one *frame* over a unix-domain stream socket:
//
//   u32  magic "MMWP"
//   u16  protocol version (kWireVersion)
//   u16  message type (MessageType)
//   u32  payload size in bytes
//   ...  payload (the message record's fields(), in order; see
//        encode_payload / decode_payload)
//   u32  CRC-32 of the payload
//
// All integers little-endian; strings are u32-length-prefixed byte runs
// (common/byte_codec.hpp).
// The trailing CRC plus the explicit size reject truncation and bit rot
// the same way the checkpoint container does; the version gates format
// evolution — a server receiving a newer (or corrupt) frame answers with
// a typed kReject instead of guessing.
//
// The request/reply vocabulary is deliberately small: kSubmit admits one
// job (system text + options) and returns kSubmitOk or a typed kReject
// (kQueueFull is the backpressure signal); kWait blocks until the named
// job completes and returns kJobResult; kStats returns the server
// counters. Clients reconnect per operation, so a server restart between
// submit and wait is invisible — job ids are durable (journaled).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "common/byte_codec.hpp"

namespace mmsyn {

/// Framing/protocol failure: truncated frame, bad magic, CRC mismatch,
/// version skew, or a connection that died mid-frame.
class WireError : public std::runtime_error {
public:
  explicit WireError(const std::string& message)
      : std::runtime_error("wire: " + message) {}
};

// v2: JobOptions gained power_backend (the --power registry choice).
inline constexpr std::uint16_t kWireVersion = 2;

enum class MessageType : std::uint16_t {
  kSubmit = 1,     ///< client -> server: JobOptions + system text
  kSubmitOk = 2,   ///< server -> client: job id (+ cached flag)
  kReject = 3,     ///< server -> client: typed rejection
  kWait = 4,       ///< client -> server: block until job id completes
  kJobResult = 5,  ///< server -> client: outcome + report
  kStats = 6,      ///< client -> server: counter snapshot request
  kStatsReply = 7, ///< server -> client: counter snapshot
};

/// Why a request was refused. kQueueFull is the admission backpressure
/// signal (the bounded queue is at capacity — resubmit later); the rest
/// are terminal for the request that triggered them.
enum class RejectCode : std::uint16_t {
  kQueueFull = 1,   ///< bounded admission queue at capacity
  kParseError = 2,  ///< the submitted system text does not parse
  kDraining = 3,    ///< server is draining; job journaled or resubmit
  kUnknownJob = 4,  ///< kWait for an id the journal has never accepted
  kBadRequest = 5,  ///< malformed/unsupported frame
};

/// Terminal outcome of an accepted job.
enum class JobOutcome : std::uint8_t {
  kOk = 0,               ///< ran to convergence; full result
  kBudgetExhausted = 1,  ///< per-job wall-clock budget expired (or the
                         ///< watchdog cancelled a hung job); the report
                         ///< carries the partial fine-DVS result
  kCancelled = 2,        ///< cooperatively cancelled for another reason
  kQuarantined = 3,      ///< failed deterministically twice (poisoned
                         ///< model); the report carries the error
};

/// Synthesis options of one job — the wire subset of the CLI flags.
/// Every field defaults to the synthesize_file default, so a job
/// submitted with defaults is byte-identical to the bare CLI run.
struct JobOptions {
  std::uint64_t seed = 1;
  std::int32_t population = 64;
  std::int32_t generations = 600;
  /// Fitness-evaluation threads *inside* this job (0 = all cores). The
  /// result is identical for any value; server concurrency comes from
  /// worker slots, so 1 is the sensible default.
  std::int32_t threads = 1;
  /// Backend names resolved through pipeline/backends (empty = default).
  std::string dvs_backend;
  std::string scheduler_backend;
  /// Power-model backend resolved through power/backends (empty =
  /// "paper"). Folded into the job fingerprint, so a thermal or dpm-idle
  /// result can never be served from a paper cache entry.
  std::string power_backend;
  bool consider_probabilities = true;
  /// Per-job wall-clock budget in seconds; 0 = the server default.
  /// NOTE: budgeted jobs stop at a wall-clock-dependent generation, so
  /// their (partial) results are excluded from the cross-job cache.
  double time_budget = 0.0;
  /// Report shape (timing is always excluded server-side so stored
  /// reports are byte-identical across runs and restarts).
  bool report_gantt = true;
  bool report_voltages = false;

  /// Wire layout, shared by the kSubmit payload and the journal's
  /// kAccept record (server/journal.cpp).
  template <class Self>
  static auto fields(Self& o) {
    return std::tie(o.seed, o.population, o.generations, o.threads,
                    o.dvs_backend, o.scheduler_backend, o.power_backend,
                    o.consider_probabilities, o.time_budget, o.report_gantt,
                    o.report_voltages);
  }

  friend bool operator==(const JobOptions&, const JobOptions&) = default;
};

/// Cache/identity key of a submission: FNV-1a over the system text and
/// every option field but `threads` (strings length-prefixed, doubles by
/// bit pattern), listed by hand because of that one exclusion.
/// Two submissions with equal fingerprints produce byte-identical
/// reports, which is what lets the result cache serve repeats without
/// re-synthesis.
[[nodiscard]] std::uint64_t job_fingerprint(std::string_view system_text,
                                            const JobOptions& options);

// Each message record lists its fields once, in payload order;
// encode_payload / decode_payload below walk that list.

struct SubmitRequest {
  JobOptions options;
  std::string system_text;

  template <class Self>
  static auto fields(Self& s) {
    return std::tie(s.options, s.system_text);
  }
};

struct SubmitReply {
  std::uint64_t job_id = 0;
  /// The result cache already held this fingerprint; the job is born
  /// completed and kWait returns immediately.
  bool cached = false;

  template <class Self>
  static auto fields(Self& s) {
    return std::tie(s.job_id, s.cached);
  }
};

struct RejectReply {
  RejectCode code = RejectCode::kBadRequest;
  std::string message;

  template <class Self>
  static auto fields(Self& s) {
    return std::tie(s.code, s.message);
  }
};

struct WaitRequest {
  std::uint64_t job_id = 0;

  template <class Self>
  static auto fields(Self& s) {
    return std::tie(s.job_id);
  }
};

struct JobResultReply {
  std::uint64_t job_id = 0;
  JobOutcome outcome = JobOutcome::kOk;
  bool feasible = false;
  double avg_power_true = 0.0;
  /// The full implementation report (kQuarantined: the error message).
  std::string report;

  /// Also the body of the journal's kComplete record.
  template <class Self>
  static auto fields(Self& s) {
    return std::tie(s.job_id, s.outcome, s.feasible, s.avg_power_true,
                    s.report);
  }
};

struct StatsReply {
  std::uint64_t accepted = 0;     ///< jobs admitted (journaled), ever
  std::uint64_t completed = 0;    ///< jobs finished with a result
  std::uint64_t quarantined = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::uint64_t queue_full_rejections = 0;
  std::uint64_t retries = 0;           ///< transient-fault re-runs
  std::uint64_t watchdog_cancels = 0;
  std::uint64_t recovered_pending = 0; ///< jobs re-enqueued at startup
  std::uint64_t queued = 0;            ///< current queue depth
  std::uint64_t running = 0;           ///< jobs in a worker right now

  template <class Self>
  static auto fields(Self& s) {
    return std::tie(s.accepted, s.completed, s.quarantined, s.cache_hits,
                    s.cache_lookups, s.queue_full_rejections, s.retries,
                    s.watchdog_cancels, s.recovered_pending, s.queued,
                    s.running);
  }
};

/// In-process outcome of a submit (shared by the wire client and the
/// server's direct API so tests and the daemon see one shape).
struct SubmitOutcome {
  bool accepted = false;
  SubmitReply ok;      // valid when accepted
  RejectReply reject;  // valid when !accepted
};

/// In-process outcome of a wait.
struct WaitOutcome {
  bool ok = false;
  JobResultReply result;  // valid when ok
  RejectReply reject;     // valid when !ok
};

// ---- payload serialization ------------------------------------------------

/// The payload of one message: its record's fields(), in order.
template <class T>
[[nodiscard]] std::string encode_payload(const T& message) {
  ByteWriter w;
  put(w, message);
  return w.take();
}

/// Parses a payload written by encode_payload<T>; a truncated payload or
/// trailing bytes throw WireError.
template <class T>
[[nodiscard]] T decode_payload(std::string_view payload) {
  ByteReader<WireError> r(payload);
  T message;
  get(r, message);
  r.expect_end();
  return message;
}

// ---- framing over a connected socket --------------------------------------

struct Frame {
  MessageType type{};
  std::string payload;
};

/// Writes one frame; throws WireError on I/O failure.
void send_frame(int fd, MessageType type, std::string_view payload);

/// Reads one frame. Returns false on a clean EOF at a frame boundary
/// (peer closed); throws WireError on mid-frame EOF, bad magic, version
/// skew, oversized payloads, or CRC mismatch.
[[nodiscard]] bool recv_frame(int fd, Frame& frame);

}  // namespace mmsyn
