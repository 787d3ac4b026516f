// Wire-protocol tests: payload round trips, framing over a real socket
// pair, and the rejection of corrupt/skewed/truncated frames.
#include "server/wire.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "../support/bytes.hpp"

namespace mmsyn {
namespace {

/// Connected AF_UNIX socket pair with RAII cleanup.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

JobOptions sample_options() {
  JobOptions o;
  o.seed = 42;
  o.population = 48;
  o.generations = 250;
  o.threads = 4;
  o.dvs_backend = "pv-dvs";
  o.scheduler_backend = "bottom-level";
  o.consider_probabilities = false;
  o.time_budget = 1.5;
  o.report_gantt = false;
  o.report_voltages = true;
  return o;
}

TEST(Wire, SubmitRoundTrip) {
  SubmitRequest request;
  request.options = sample_options();
  request.system_text = "system x\npe CPU kind=GPP\n";
  const SubmitRequest back =
      decode_payload<SubmitRequest>(encode_payload(request));
  EXPECT_EQ(back.options, request.options);
  EXPECT_EQ(back.system_text, request.system_text);
}

// Wire v2 bytes of one kSubmit payload, recorded from an earlier build:
// a client and a server of different builds must agree on every byte.
TEST(Wire, SubmitEncodingMatchesRecordedBytes) {
  SubmitRequest request;
  request.options = sample_options();
  request.options.power_backend = "thermal";
  request.system_text = "system x\n";
  EXPECT_EQ(to_hex(encode_payload(request)),
            "2a0000000000000030000000fa000000040000000600000070762d6476730c00"
            "0000626f74746f6d2d6c6576656c07000000746865726d616c00000000000000"
            "f83f00010900000073797374656d20780a");
}

TEST(Wire, ReplyRoundTrips) {
  const SubmitReply submit =
      decode_payload<SubmitReply>(encode_payload(SubmitReply{77, true}));
  EXPECT_EQ(submit.job_id, 77u);
  EXPECT_TRUE(submit.cached);

  const RejectReply reject = decode_payload<RejectReply>(
      encode_payload(RejectReply{RejectCode::kQueueFull, "full"}));
  EXPECT_EQ(reject.code, RejectCode::kQueueFull);
  EXPECT_EQ(reject.message, "full");

  JobResultReply result;
  result.job_id = 9;
  result.outcome = JobOutcome::kBudgetExhausted;
  result.feasible = true;
  result.avg_power_true = 0.1234567890123;
  result.report = std::string(10000, 'r');
  const JobResultReply back =
      decode_payload<JobResultReply>(encode_payload(result));
  EXPECT_EQ(back.job_id, result.job_id);
  EXPECT_EQ(back.outcome, result.outcome);
  EXPECT_EQ(back.feasible, result.feasible);
  EXPECT_DOUBLE_EQ(back.avg_power_true, result.avg_power_true);
  EXPECT_EQ(back.report, result.report);

  const StatsReply stats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const StatsReply sback = decode_payload<StatsReply>(encode_payload(stats));
  EXPECT_EQ(sback.accepted, 1u);
  EXPECT_EQ(sback.running, 11u);
  EXPECT_EQ(sback.recovered_pending, 9u);
}

// Wire v2 bytes of every other payload, recorded from an earlier build
// like the kSubmit one above.
TEST(Wire, ReplyAndWaitEncodingsMatchRecordedBytes) {
  EXPECT_EQ(to_hex(encode_payload(SubmitReply{77, true})),
            "4d0000000000000001");
  const RejectReply reject{RejectCode::kQueueFull, "full"};
  EXPECT_EQ(to_hex(encode_payload(reject)), "01000400000066756c6c");
  EXPECT_EQ(to_hex(encode_payload(WaitRequest{123})), "7b00000000000000");
  JobResultReply result;
  result.job_id = 9;
  result.outcome = JobOutcome::kBudgetExhausted;
  result.feasible = false;  // a byte unlike the outcome's
  result.avg_power_true = 0.1234567890123;
  result.report = "partial\n";
  EXPECT_EQ(to_hex(encode_payload(result)),
            "0900000000000000010084e94637dd9abf3f080000007061727469616c0a");
  const StatsReply stats{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_EQ(to_hex(encode_payload(stats)),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "0500000000000000060000000000000007000000000000000800000000000000"
            "09000000000000000a000000000000000b00000000000000");
}

TEST(Wire, TruncatedPayloadThrows) {
  const std::string payload = encode_payload(WaitRequest{123});
  EXPECT_THROW(
      (void)decode_payload<WaitRequest>(payload.substr(0, payload.size() - 1)),
      WireError);
  EXPECT_THROW((void)decode_payload<WaitRequest>(payload + "x"), WireError);
}

TEST(Wire, FramesOverSocketPair) {
  SocketPair s;
  send_frame(s.a, MessageType::kWait, encode_payload(WaitRequest{5}));
  send_frame(s.a, MessageType::kStats, {});
  Frame frame;
  ASSERT_TRUE(recv_frame(s.b, frame));
  EXPECT_EQ(frame.type, MessageType::kWait);
  EXPECT_EQ(decode_payload<WaitRequest>(frame.payload).job_id, 5u);
  ASSERT_TRUE(recv_frame(s.b, frame));
  EXPECT_EQ(frame.type, MessageType::kStats);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(Wire, CleanEofReturnsFalse) {
  SocketPair s;
  ::close(s.a);
  s.a = -1;
  Frame frame;
  EXPECT_FALSE(recv_frame(s.b, frame));
}

TEST(Wire, MidFrameEofThrows) {
  SocketPair s;
  // Send a frame, deliver only its first half, then hang up.
  SocketPair capture;
  send_frame(capture.a, MessageType::kWait, encode_payload(WaitRequest{5}));
  char buf[64];
  const ssize_t n = ::read(capture.b, buf, sizeof buf);
  ASSERT_GT(n, 8);
  ASSERT_EQ(::write(s.a, buf, static_cast<std::size_t>(n / 2)),
            static_cast<ssize_t>(n / 2));
  ::close(s.a);
  s.a = -1;
  Frame frame;
  EXPECT_THROW((void)recv_frame(s.b, frame), WireError);
}

TEST(Wire, CorruptPayloadFailsCrc) {
  SocketPair capture;
  send_frame(capture.a, MessageType::kWait, encode_payload(WaitRequest{5}));
  char buf[64];
  const ssize_t n = ::read(capture.b, buf, sizeof buf);
  ASSERT_GT(n, 13);
  buf[13] ^= 0x01;  // flip one payload bit (header is 12 bytes)
  SocketPair s;
  ASSERT_EQ(::write(s.a, buf, static_cast<std::size_t>(n)),
            static_cast<ssize_t>(n));
  Frame frame;
  EXPECT_THROW((void)recv_frame(s.b, frame), WireError);
}

TEST(Wire, VersionSkewThrows) {
  SocketPair capture;
  send_frame(capture.a, MessageType::kWait, encode_payload(WaitRequest{5}));
  char buf[64];
  const ssize_t n = ::read(capture.b, buf, sizeof buf);
  ASSERT_GT(n, 12);
  buf[4] = 99;  // version field (little-endian u16 at offset 4)
  SocketPair s;
  ASSERT_EQ(::write(s.a, buf, static_cast<std::size_t>(n)),
            static_cast<ssize_t>(n));
  Frame frame;
  EXPECT_THROW((void)recv_frame(s.b, frame), WireError);
}

TEST(Wire, BadMagicThrows) {
  SocketPair s;
  const char junk[16] = {'n', 'o', 'p', 'e'};
  ASSERT_EQ(::write(s.a, junk, sizeof junk), static_cast<ssize_t>(sizeof junk));
  Frame frame;
  EXPECT_THROW((void)recv_frame(s.b, frame), WireError);
}

TEST(Wire, FingerprintIdentityAndSensitivity) {
  const JobOptions base = sample_options();
  const std::string text = "system x\n";
  const std::uint64_t fp = job_fingerprint(text, base);
  EXPECT_EQ(job_fingerprint(text, base), fp);  // deterministic

  JobOptions changed = base;
  changed.seed += 1;
  EXPECT_NE(job_fingerprint(text, changed), fp);
  changed = base;
  changed.consider_probabilities = !changed.consider_probabilities;
  EXPECT_NE(job_fingerprint(text, changed), fp);
  changed = base;
  changed.dvs_backend = "none";
  EXPECT_NE(job_fingerprint(text, changed), fp);
  EXPECT_NE(job_fingerprint(text + " ", base), fp);
}

TEST(Wire, FingerprintIgnoresThreadCount) {
  // Results are thread-count invariant, so the cache key must be too —
  // otherwise --threads 1 and --threads 16 submissions of identical work
  // would miss each other.
  JobOptions a = sample_options();
  JobOptions b = a;
  b.threads = 16;
  EXPECT_EQ(job_fingerprint("system x\n", a), job_fingerprint("system x\n", b));
}

}  // namespace
}  // namespace mmsyn
