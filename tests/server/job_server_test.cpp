// JobServer tests over the in-process API: typed admission control,
// cache behaviour, quarantine isolation, budget typing, transient
// retries and kill-equivalent restart recovery.
#include "server/job_server.hpp"

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "../support/bytes.hpp"
#include "common/failpoint.hpp"
#include "model/io.hpp"
#include "tgff/suites.hpp"

namespace mmsyn {
namespace {

/// Fresh scratch state directory per test.
std::string scratch_dir(const char* name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "mmsyn_server_" + name;
  std::remove((dir + "/jobs.wal").c_str());
  std::remove((dir + "/jobs.wal.tmp").c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

std::string small_system_text() { return system_to_string(make_mul(5)); }

/// A system that parses but fails System::validate(): every `impl` line
/// is stripped, so each task type has no implementation on any PE. This
/// is the admission-vs-execution seam: admission only parses, so the
/// poison is accepted and must be caught (and quarantined) by its job.
std::string poison_system_text() {
  std::istringstream in(small_system_text());
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("impl ", 0) != 0) out << line << "\n";
  }
  return out.str();
}

JobOptions fast_options(std::uint64_t seed) {
  JobOptions o;
  o.seed = seed;
  o.population = 16;
  o.generations = 30;
  o.report_gantt = false;  // keep stored reports small in tests
  return o;
}

ServerOptions base_options(const std::string& state_dir) {
  ServerOptions o;
  o.state_dir = state_dir;
  o.workers = 2;
  o.queue_limit = 16;
  return o;
}

TEST(JobServer, QueueFullIsTypedRejection) {
  const std::string dir = scratch_dir("queuefull");
  ServerOptions options = base_options(dir);
  options.workers = 0;  // admission-only: nothing drains the queue
  options.queue_limit = 2;
  JobServer server(std::move(options));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(1);
  EXPECT_TRUE(server.submit(request).accepted);
  request.options.seed = 2;
  EXPECT_TRUE(server.submit(request).accepted);
  request.options.seed = 3;
  const SubmitOutcome third = server.submit(request);
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reject.code, RejectCode::kQueueFull);

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.queued, 2u);
  EXPECT_EQ(stats.queue_full_rejections, 1u);
}

TEST(JobServer, ParseErrorIsTypedRejection) {
  const std::string dir = scratch_dir("parse");
  JobServer server(base_options(dir));
  server.start();
  SubmitRequest request;
  request.system_text = "this is not a system\n";
  const SubmitOutcome out = server.submit(request);
  EXPECT_FALSE(out.accepted);
  EXPECT_EQ(out.reject.code, RejectCode::kParseError);
  EXPECT_EQ(server.stats().accepted, 0u);
}

TEST(JobServer, WaitUnknownJobIsTyped) {
  const std::string dir = scratch_dir("unknown");
  JobServer server(base_options(dir));
  server.start();
  const WaitOutcome out = server.wait(999);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.reject.code, RejectCode::kUnknownJob);
}

TEST(JobServer, ResultCacheServesRepeatsByteIdentically) {
  const std::string dir = scratch_dir("cache");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(4);
  const SubmitOutcome first = server.submit(request);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(first.ok.cached);
  const WaitOutcome first_result = server.wait(first.ok.job_id);
  ASSERT_TRUE(first_result.ok);
  EXPECT_EQ(first_result.result.outcome, JobOutcome::kOk);
  EXPECT_FALSE(first_result.result.report.empty());

  // Identical submission: served from cache, byte-identical report.
  // A different thread count must hit the same entry (results are
  // thread-count invariant and the fingerprint excludes it).
  request.options.threads = 4;
  const SubmitOutcome second = server.submit(request);
  ASSERT_TRUE(second.accepted);
  EXPECT_TRUE(second.ok.cached);
  EXPECT_NE(second.ok.job_id, first.ok.job_id);
  const WaitOutcome second_result = server.wait(second.ok.job_id);
  ASSERT_TRUE(second_result.ok);
  EXPECT_EQ(second_result.result.report, first_result.result.report);

  // A different seed is different work: cache miss.
  request.options = fast_options(5);
  const SubmitOutcome third = server.submit(request);
  ASSERT_TRUE(third.accepted);
  EXPECT_FALSE(third.ok.cached);

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_lookups, 3u);
}

TEST(JobServer, PoisonJobIsQuarantinedWithoutAffectingOthers) {
  const std::string dir = scratch_dir("poison");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest poison;
  poison.system_text = poison_system_text();
  poison.options = fast_options(6);
  const SubmitOutcome poison_submit = server.submit(poison);
  ASSERT_TRUE(poison_submit.accepted);  // parseable => admitted

  // A valid system with an empty population: admitted, then refused by
  // the GA's option validation on every attempt.
  SubmitRequest empty_population;
  empty_population.system_text = small_system_text();
  empty_population.options = fast_options(8);
  empty_population.options.population = 0;
  const SubmitOutcome empty_submit = server.submit(empty_population);
  ASSERT_TRUE(empty_submit.accepted);

  SubmitRequest healthy;
  healthy.system_text = small_system_text();
  healthy.options = fast_options(7);
  const SubmitOutcome healthy_submit = server.submit(healthy);
  ASSERT_TRUE(healthy_submit.accepted);

  const WaitOutcome poison_result = server.wait(poison_submit.ok.job_id);
  ASSERT_TRUE(poison_result.ok);
  EXPECT_EQ(poison_result.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(poison_result.result.report.find("invalid system"),
            std::string::npos);

  const WaitOutcome empty_result = server.wait(empty_submit.ok.job_id);
  ASSERT_TRUE(empty_result.ok);
  EXPECT_EQ(empty_result.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(empty_result.result.report.find("--population"),
            std::string::npos);

  // The healthy job is untouched by its neighbours' quarantine.
  const WaitOutcome healthy_result = server.wait(healthy_submit.ok.job_id);
  ASSERT_TRUE(healthy_result.ok);
  EXPECT_EQ(healthy_result.result.outcome, JobOutcome::kOk);
  EXPECT_FALSE(healthy_result.result.report.empty());

  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(JobServer, BudgetExhaustionIsTypedAndCarriesPartialResult) {
  const std::string dir = scratch_dir("budget");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest request;
  request.system_text = system_to_string(make_mul(8));
  request.options = fast_options(8);
  request.options.generations = 1'000'000;  // budget must stop it
  // Tiny enough that the budget check fires long before the GA could
  // plausibly converge (stagnation needs 70+ generations).
  request.options.time_budget = 0.001;
  const SubmitOutcome submitted = server.submit(request);
  ASSERT_TRUE(submitted.accepted);
  const WaitOutcome out = server.wait(submitted.ok.job_id);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kBudgetExhausted);
  // The partial result still carries a full priced report.
  EXPECT_FALSE(out.result.report.empty());
  EXPECT_GT(out.result.avg_power_true, 0.0);

  // Budget-limited (wall-clock-dependent) results must never be cached.
  const SubmitOutcome again = server.submit(request);
  ASSERT_TRUE(again.accepted);
  EXPECT_FALSE(again.ok.cached);
  // Avoid leaving the duplicate running during teardown churn.
  (void)server.wait(again.ok.job_id);
}

TEST(JobServer, TransientFaultRetriesDeterministically) {
  const std::string dir = scratch_dir("transient");
  failpoint::arm("job.spawn=fail@1");
  JobServer server(base_options(dir));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(9);
  const SubmitOutcome submitted = server.submit(request);
  ASSERT_TRUE(submitted.accepted);
  const WaitOutcome out = server.wait(submitted.ok.job_id);
  failpoint::disarm();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kOk);
  EXPECT_EQ(server.stats().retries, 1u);
}

TEST(JobServer, PersistentTransientFaultQuarantines) {
  const std::string dir = scratch_dir("transient_exhaust");
  failpoint::arm("job.spawn=fail");  // every attempt
  ServerOptions options = base_options(dir);
  options.max_transient_retries = 2;
  JobServer server(std::move(options));
  server.start();

  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(10);
  const SubmitOutcome submitted = server.submit(request);
  ASSERT_TRUE(submitted.accepted);
  const WaitOutcome out = server.wait(submitted.ok.job_id);
  failpoint::disarm();
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kQuarantined);
  EXPECT_EQ(server.stats().retries, 3u);  // initial + 2 retries all failed
}

TEST(JobServer, RestartRecoversPendingJobsAndResults) {
  const std::string dir = scratch_dir("restart");
  SubmitRequest a, b;
  a.system_text = small_system_text();
  a.options = fast_options(11);
  b.system_text = small_system_text();
  b.options = fast_options(12);

  std::uint64_t id_a = 0;
  std::uint64_t id_b = 0;
  std::string report_a;
  {
    // Phase 1: admission-only server — jobs are journaled but never run
    // (the deterministic stand-in for "killed before the work finished").
    ServerOptions options = base_options(dir);
    options.workers = 0;
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome sa = server.submit(a);
    const SubmitOutcome sb = server.submit(b);
    ASSERT_TRUE(sa.accepted);
    ASSERT_TRUE(sb.accepted);
    id_a = sa.ok.job_id;
    id_b = sb.ok.job_id;
    server.drain_and_stop();
  }
  {
    // Phase 2: restart with workers — both jobs recovered and completed.
    JobServer server(base_options(dir));
    server.start();
    EXPECT_EQ(server.stats().recovered_pending, 2u);
    const WaitOutcome ra = server.wait(id_a);
    const WaitOutcome rb = server.wait(id_b);
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    EXPECT_EQ(ra.result.outcome, JobOutcome::kOk);
    EXPECT_EQ(rb.result.outcome, JobOutcome::kOk);
    report_a = ra.result.report;
    server.drain_and_stop();
  }
  {
    // Phase 3: restart again — completed results survive, same ids, same
    // bytes, and the cache is rebuilt from the journal (an identical
    // submission is a hit without any worker involvement).
    ServerOptions options = base_options(dir);
    options.workers = 0;
    JobServer server(std::move(options));
    server.start();
    const WaitOutcome ra = server.wait(id_a);
    ASSERT_TRUE(ra.ok);
    EXPECT_EQ(ra.result.report, report_a);
    const SubmitOutcome resubmit = server.submit(a);
    ASSERT_TRUE(resubmit.accepted);
    EXPECT_TRUE(resubmit.ok.cached);
  }
}

TEST(JobServer, CrashLoopingJobIsQuarantinedAtRecovery) {
  const std::string dir = scratch_dir("crashloop");
  SubmitRequest request;
  request.system_text = small_system_text();
  request.options = fast_options(13);

  std::uint64_t id = 0;
  {
    ServerOptions options = base_options(dir);
    options.workers = 0;
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_TRUE(submitted.accepted);
    id = submitted.ok.job_id;
    server.drain_and_stop();
  }
  {
    // Forge the crash history: two attempts that never reached a
    // terminal record — the journal shape `kill -9` leaves behind.
    JobJournal journal;
    (void)journal.open(dir + "/jobs.wal");
    journal.append_attempt(id, 1);
    journal.append_attempt(id, 2);
  }
  JobServer server(base_options(dir));
  server.start();
  const WaitOutcome out = server.wait(id);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.result.outcome, JobOutcome::kQuarantined);
  EXPECT_NE(out.result.report.find("crash"), std::string::npos);
  EXPECT_EQ(server.stats().quarantined, 1u);
  EXPECT_EQ(server.stats().recovered_pending, 0u);
}

// Journal v2 bytes of the WAL a start compacts, recorded from an earlier
// build. The replayed state holds one completed, one crash-quarantined,
// one pending and one quarantined job.
TEST(JobServer, StartupCompactionMatchesRecordedBytes) {
  const std::string dir = scratch_dir("compact_pin");
  const JobOptions options = fast_options(21);
  {
    JobJournal journal;
    (void)journal.open(dir + "/jobs.wal");
    journal.append_accept(1, 0x11, options, "system a\n");
    journal.append_attempt(1, 1);
    JobResultReply result;
    result.job_id = 1;
    result.feasible = true;
    result.avg_power_true = 0.25;
    result.report = "report a\n";
    journal.append_complete(result);
    journal.append_accept(2, 0x22, options, "system b\n");
    journal.append_attempt(2, 1);
    journal.append_attempt(2, 2);
    journal.append_accept(3, 0x33, options, "system c\n");
    journal.append_attempt(3, 1);
    journal.append_accept(4, 0x44, options, "system d\n");
    journal.append_quarantine(4, "poisoned");
  }
  ServerOptions server_options = base_options(dir);
  server_options.workers = 0;
  JobServer server(std::move(server_options));
  server.start();
  EXPECT_EQ(to_hex(read_file(dir + "/jobs.wal")),
            "4d4d53594e57414c020000004900000001010000000000000011000000000000"
            "001500000000000000100000001e000000010000000000000000000000000000"
            "0001000000000000000000000900000073797374656d20610a439a2e000d0000"
            "0002010000000000000001000000c3d8314c2000000003010000000000000000"
            "01000000000000d03f090000007265706f727420610a7466b6e3490000000102"
            "0000000000000022000000000000001500000000000000100000001e00000001"
            "0000000000000000000000000000000100000000000000000000090000007379"
            "7374656d20620ae55180310d00000002020000000000000001000000330aaf3b"
            "0d00000002020000000000000002000000dda51a294100000004020000000000"
            "00003400000071756172616e74696e6564206174207265636f766572793a2032"
            "20617474656d70747320656e64656420696e20612063726173687f357da64900"
            "000001030000000000000033000000000000001500000000000000100000001e"
            "0000000100000000000000000000000000000001000000000000000000000900"
            "000073797374656d20630ab8eaca970d00000002030000000000000001000000"
            "5c460aa049000000010400000000000000440000000000000015000000000000"
            "00100000001e0000000100000000000000000000000000000001000000000000"
            "000000000900000073797374656d20640aa9c6dd521500000004040000000000"
            "000008000000706f69736f6e65645a0e6228");
  const StatsReply stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.recovered_pending, 1u);
}

TEST(JobServer, DrainLeavesRunningJobResumable) {
  const std::string dir = scratch_dir("drain");
  SubmitRequest request;
  request.system_text = system_to_string(make_mul(8));
  request.options = fast_options(14);
  // Heavy enough that convergence cannot beat the drain: stagnation
  // needs 70+ generations of a 96-genome population on an 8-mode system.
  request.options.population = 96;
  request.options.generations = 1'000'000;
  request.options.time_budget = 30.0;  // far beyond the test's patience

  std::uint64_t id = 0;
  {
    ServerOptions options = base_options(dir);
    options.workers = 1;
    options.checkpoint_every = 1;  // checkpoint density for a short test
    JobServer server(std::move(options));
    server.start();
    const SubmitOutcome submitted = server.submit(request);
    ASSERT_TRUE(submitted.accepted);
    id = submitted.ok.job_id;
    // Let it run a little so the drain interrupts mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    server.drain_and_stop();
    // Post-drain, the job is neither completed nor lost.
    const WaitOutcome blocked = server.wait(id);
    EXPECT_FALSE(blocked.ok);
    EXPECT_EQ(blocked.reject.code, RejectCode::kDraining);
  }
  // The restarted server re-runs it; the drain was deliberate, so the
  // crash-attempt counter must NOT have advanced toward quarantine.
  ServerOptions options = base_options(dir);
  options.workers = 1;
  JobServer server(std::move(options));
  server.start();
  EXPECT_EQ(server.stats().recovered_pending, 1u);
  EXPECT_EQ(server.stats().quarantined, 0u);
  // Rather than wait 30s for the budget, drain again — the job must
  // still be resumable, and the deliberate stop must not look like a
  // crash to the quarantine counter.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server.drain_and_stop();
  JobJournal journal;
  const JournalRecovery recovery = journal.open(dir + "/jobs.wal");
  EXPECT_EQ(recovery.jobs.at(id).crash_attempts, 0);
  EXPECT_FALSE(recovery.jobs.at(id).completed);
}

}  // namespace
}  // namespace mmsyn
