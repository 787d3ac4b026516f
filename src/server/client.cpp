#include "server/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace mmsyn {
namespace {

/// RAII close so every early exit (exception out of recv_frame included)
/// releases the descriptor.
struct FdGuard {
  int fd;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

int ServeClient::connect_fd() const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    throw WireError("socket path too long: " + socket_path_);
  }
  std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof(addr.sun_path) - 1);

  // ~2s of bounded, fixed-step retry: enough to ride out a server
  // restart, short enough that "server is down" fails fast.
  constexpr int kAttempts = 40;
  for (int attempt = 1;; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw WireError(std::string("socket: ") + std::strerror(errno));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return fd;
    }
    const int saved_errno = errno;
    ::close(fd);
    if (attempt >= kAttempts) {
      throw WireError("cannot connect to " + socket_path_ + ": " +
                      std::strerror(saved_errno));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

SubmitOutcome ServeClient::submit(const SubmitRequest& request) {
  FdGuard fd{connect_fd()};
  send_frame(fd.fd, MessageType::kSubmit, encode_payload(request));
  Frame frame;
  if (!recv_frame(fd.fd, frame)) {
    throw WireError("connection closed before submit reply");
  }
  SubmitOutcome out;
  if (frame.type == MessageType::kSubmitOk) {
    out.accepted = true;
    out.ok = decode_payload<SubmitReply>(frame.payload);
  } else if (frame.type == MessageType::kReject) {
    out.reject = decode_payload<RejectReply>(frame.payload);
  } else {
    throw WireError("unexpected submit reply type");
  }
  return out;
}

WaitOutcome ServeClient::wait(std::uint64_t job_id) {
  FdGuard fd{connect_fd()};
  WaitRequest request{job_id};
  send_frame(fd.fd, MessageType::kWait, encode_payload(request));
  Frame frame;
  if (!recv_frame(fd.fd, frame)) {
    throw WireError("connection closed before wait reply");
  }
  WaitOutcome out;
  if (frame.type == MessageType::kJobResult) {
    out.ok = true;
    out.result = decode_payload<JobResultReply>(frame.payload);
  } else if (frame.type == MessageType::kReject) {
    out.reject = decode_payload<RejectReply>(frame.payload);
  } else {
    throw WireError("unexpected wait reply type");
  }
  return out;
}

StatsReply ServeClient::stats() {
  FdGuard fd{connect_fd()};
  send_frame(fd.fd, MessageType::kStats, {});
  Frame frame;
  if (!recv_frame(fd.fd, frame)) {
    throw WireError("connection closed before stats reply");
  }
  if (frame.type != MessageType::kStatsReply) {
    throw WireError("unexpected stats reply type");
  }
  return decode_payload<StatsReply>(frame.payload);
}

}  // namespace mmsyn
