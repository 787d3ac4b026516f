#include "server/wire.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/checksum.hpp"

namespace mmsyn {
namespace {

constexpr std::uint32_t kFrameMagic = 0x4d4d5750u;  // "MMWP" (LE bytes PWMM)

/// Frames larger than this are rejected before allocation: no legitimate
/// message (system text + report) comes close, and the cap keeps a
/// corrupt length field from driving a multi-gigabyte allocation.
constexpr std::uint32_t kMaxPayload = 64u << 20;

using Reader = ByteReader<WireError>;

/// write(2) loop tolerating EINTR; throws WireError on hard failure.
void write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::write(fd, p, n);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("send failed: ") + std::strerror(errno));
    }
    p += k;
    n -= static_cast<std::size_t>(k);
  }
}

/// read(2) loop. Returns false on EOF before the first byte (clean close
/// when `eof_ok`); throws on mid-buffer EOF or hard error.
bool read_all(int fd, char* p, std::size_t n, bool eof_ok) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t k = ::read(fd, p + got, n - got);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("recv failed: ") + std::strerror(errno));
    }
    if (k == 0) {
      if (got == 0 && eof_ok) return false;
      throw WireError("connection closed mid-frame");
    }
    got += static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

std::uint64_t job_fingerprint(std::string_view system_text,
                              const JobOptions& options) {
  Fnv1a64 h;
  h.add_bytes(system_text.data(), system_text.size());
  h.add(system_text.size());
  h.add(options.seed);
  h.add(options.population);
  h.add(options.generations);
  // threads deliberately excluded: results are thread-count invariant,
  // and folding it in would defeat the cache across --threads settings.
  h.add(options.dvs_backend.size());
  h.add_bytes(options.dvs_backend.data(), options.dvs_backend.size());
  h.add(options.scheduler_backend.size());
  h.add_bytes(options.scheduler_backend.data(),
              options.scheduler_backend.size());
  h.add(options.power_backend.size());
  h.add_bytes(options.power_backend.data(), options.power_backend.size());
  h.add(options.consider_probabilities);
  h.add(options.time_budget);
  h.add(options.report_gantt);
  h.add(options.report_voltages);
  return h.digest();
}

void send_frame(int fd, MessageType type, std::string_view payload) {
  if (payload.size() > kMaxPayload) throw WireError("payload too large");
  // One coalesced buffer per frame: header and trailer are small next to
  // the payload, and a single write keeps concurrent frames on a shared
  // fd impossible to interleave (each connection is single-threaded
  // anyway).
  ByteWriter w;
  w.u32(kFrameMagic);
  w.u16(kWireVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));
  const std::string frame = w.take();
  write_all(fd, frame.data(), frame.size());
}

bool recv_frame(int fd, Frame& frame) {
  char header[12];
  if (!read_all(fd, header, sizeof header, /*eof_ok=*/true)) return false;
  Reader r(std::string_view(header, sizeof header));
  if (r.u32() != kFrameMagic) throw WireError("bad frame magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("unsupported protocol version " + std::to_string(version));
  }
  frame.type = static_cast<MessageType>(r.u16());
  const std::uint32_t size = r.u32();
  if (size > kMaxPayload) throw WireError("payload too large");

  frame.payload.resize(size);
  if (size > 0) read_all(fd, frame.payload.data(), size, /*eof_ok=*/false);

  char crc_bytes[4];
  read_all(fd, crc_bytes, sizeof crc_bytes, /*eof_ok=*/false);
  Reader cr(std::string_view(crc_bytes, sizeof crc_bytes));
  if (cr.u32() != crc32(frame.payload)) throw WireError("payload CRC mismatch");
  return true;
}

}  // namespace mmsyn
