// WAL journal tests: replay, torn-tail truncation, corruption stops,
// crash-attempt counting, drain resets and compaction.
#include "server/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "../support/bytes.hpp"

namespace mmsyn {
namespace {

std::string scratch_path(const char* name) {
  const std::string path =
      std::string(::testing::TempDir()) + "mmsyn_journal_" + name + ".wal";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

JobOptions sample_options() {
  JobOptions o;
  o.seed = 5;
  o.population = 16;
  o.generations = 40;
  o.time_budget = 2.5;
  return o;
}

TEST(Journal, FreshFileReplaysEmpty) {
  const std::string path = scratch_path("fresh");
  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  EXPECT_TRUE(recovery.jobs.empty());
  EXPECT_EQ(recovery.next_job_id, 1u);
  EXPECT_TRUE(recovery.notes.empty());
  EXPECT_TRUE(journal.is_open());
}

TEST(Journal, AppendAndReplayFullLifecycle) {
  const std::string path = scratch_path("lifecycle");
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(1, 0xabc, sample_options(), "system a\n");
    journal.append_accept(2, 0xdef, sample_options(), "system b\n");
    journal.append_attempt(1, 1);
    JobResultReply result;
    result.job_id = 1;
    result.outcome = JobOutcome::kOk;
    result.feasible = true;
    result.avg_power_true = 0.125;
    result.report = "the report\n";
    journal.append_complete(result);
    journal.append_attempt(2, 1);
    journal.append_quarantine(2, "boom");
  }
  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  ASSERT_EQ(recovery.jobs.size(), 2u);
  EXPECT_EQ(recovery.next_job_id, 3u);

  const JournalJob& one = recovery.jobs.at(1);
  EXPECT_TRUE(one.completed);
  EXPECT_FALSE(one.quarantined);
  EXPECT_EQ(one.fingerprint, 0xabcu);
  EXPECT_EQ(one.system_text, "system a\n");
  EXPECT_EQ(one.options.time_budget, 2.5);
  EXPECT_EQ(one.result.report, "the report\n");
  EXPECT_TRUE(one.result.feasible);
  EXPECT_DOUBLE_EQ(one.result.avg_power_true, 0.125);

  const JournalJob& two = recovery.jobs.at(2);
  EXPECT_FALSE(two.completed);
  EXPECT_TRUE(two.quarantined);
  EXPECT_EQ(two.quarantine_error, "boom");
}

// Journal v2 bytes of a fresh file holding one kAccept record, recorded
// from an earlier build: a state dir written by one build must replay in
// the next.
TEST(Journal, AcceptRecordMatchesRecordedBytes) {
  const std::string path = scratch_path("pinned");
  JobOptions options = sample_options();
  options.dvs_backend = "pv-dvs";
  options.power_backend = "dpm-idle";
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(7, 0x0123456789abcdefull, options, "system a\n");
  }
  EXPECT_EQ(to_hex(read_file(path)),
            "4d4d53594e57414c0200000057000000010700000000000000efcdab89674523"
            "0105000000000000001000000028000000010000000600000070762d64767300"
            "0000000800000064706d2d69646c650100000000000004400100090000007379"
            "7374656d20610aa2c344c7");
}

// Journal v2 bytes of a WAL holding one record of each type, recorded
// from an earlier build, and the state its replay rebuilds.
TEST(Journal, EveryRecordTypeMatchesRecordedBytes) {
  const std::string path = scratch_path("every_type");
  JobResultReply result;
  result.job_id = 3;
  result.outcome = JobOutcome::kCancelled;
  result.feasible = true;
  result.avg_power_true = 0.375;
  result.report = "rep\n";
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(3, 0xfeed, sample_options(), "system c\n");
    journal.append_attempt(3, 1);
    journal.append_drained(3);
    journal.append_complete(result);
    journal.append_quarantine(3, "boom");
  }
  EXPECT_EQ(to_hex(read_file(path)),
            "4d4d53594e57414c0200000049000000010300000000000000edfe0000000000"
            "0005000000000000001000000028000000010000000000000000000000000000"
            "0001000000000000044001000900000073797374656d20630aed34e5280d0000"
            "00020300000000000000010000005c460aa00900000005030000000000000002"
            "5611221b0000000303000000000000000201000000000000d83f040000007265"
            "700a380d0fa01100000004030000000000000004000000626f6f6d62b5a714");

  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  EXPECT_TRUE(recovery.notes.empty());
  EXPECT_EQ(recovery.next_job_id, 4u);
  ASSERT_EQ(recovery.jobs.size(), 1u);
  const JournalJob& job = recovery.jobs.at(3);
  EXPECT_EQ(job.fingerprint, 0xfeedu);
  EXPECT_EQ(job.options, sample_options());
  EXPECT_EQ(job.system_text, "system c\n");
  EXPECT_EQ(job.crash_attempts, 0);
  EXPECT_TRUE(job.completed);
  EXPECT_EQ(job.result.job_id, 3u);
  EXPECT_EQ(job.result.outcome, JobOutcome::kCancelled);
  EXPECT_TRUE(job.result.feasible);
  EXPECT_EQ(job.result.avg_power_true, 0.375);
  EXPECT_EQ(job.result.report, "rep\n");
  EXPECT_TRUE(job.quarantined);
  EXPECT_EQ(job.quarantine_error, "boom");
}

TEST(Journal, CrashAttemptsCountDanglingAttempts) {
  const std::string path = scratch_path("attempts");
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(1, 1, sample_options(), "x");
    journal.append_attempt(1, 1);   // crash
    journal.append_attempt(1, 2);   // crash again
  }
  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  EXPECT_EQ(recovery.jobs.at(1).crash_attempts, 2);
  EXPECT_FALSE(recovery.jobs.at(1).completed);
}

TEST(Journal, DrainedResetsCrashAttempts) {
  const std::string path = scratch_path("drained");
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(1, 1, sample_options(), "x");
    journal.append_attempt(1, 1);
    journal.append_drained(1);  // deliberate interruption, not a crash
  }
  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  EXPECT_EQ(recovery.jobs.at(1).crash_attempts, 0);
}

TEST(Journal, TornTailIsTruncatedAndAppendable) {
  const std::string path = scratch_path("torn");
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(1, 1, sample_options(), "x");
    journal.append_accept(2, 2, sample_options(), "y");
  }
  // Simulate a crash mid-append: chop bytes off the last record.
  std::string bytes = read_file(path);
  write_file(path, bytes.substr(0, bytes.size() - 7));

  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  EXPECT_EQ(recovery.jobs.size(), 1u);  // job 2's record was torn
  EXPECT_TRUE(recovery.jobs.contains(1));
  ASSERT_FALSE(recovery.notes.empty());

  // The torn region was physically truncated, so new appends extend a
  // clean prefix.
  journal.append_accept(3, 3, sample_options(), "z");
  journal.close();
  JobJournal reopened;
  const JournalRecovery after = reopened.open(path);
  EXPECT_EQ(after.jobs.size(), 2u);
  EXPECT_TRUE(after.jobs.contains(3));
  EXPECT_TRUE(after.notes.empty());
}

TEST(Journal, CorruptRecordDropsTail) {
  const std::string path = scratch_path("corrupt");
  {
    JobJournal journal;
    (void)journal.open(path);
    journal.append_accept(1, 1, sample_options(), "x");
    journal.append_accept(2, 2, sample_options(), "y");
    journal.append_accept(3, 3, sample_options(), "z");
  }
  std::string bytes = read_file(path);
  // Flip a bit inside the *second* record's payload (the records are
  // equal-sized; pick an offset safely inside the middle one).
  const std::size_t record = (bytes.size() - 12) / 3;
  bytes[12 + record + record / 2] ^= 0x40;
  write_file(path, bytes);

  JobJournal journal;
  const JournalRecovery recovery = journal.open(path);
  // Replay keeps the clean prefix (job 1) and drops everything from the
  // corrupt record on — job 3 is gone even though its bytes were fine:
  // order is what the WAL means.
  EXPECT_EQ(recovery.jobs.size(), 1u);
  EXPECT_TRUE(recovery.jobs.contains(1));
  ASSERT_FALSE(recovery.notes.empty());
}

TEST(Journal, BadHeaderThrows) {
  const std::string path = scratch_path("badheader");
  write_file(path, "WRONGMAGIC........");
  JobJournal journal;
  EXPECT_THROW((void)journal.open(path), JournalError);
}

TEST(Journal, CompactionPreservesLiveState) {
  const std::string path = scratch_path("compact");
  JobJournal journal;
  (void)journal.open(path);
  journal.append_accept(1, 1, sample_options(), "x");
  journal.append_attempt(1, 1);
  JobResultReply result;
  result.job_id = 1;
  result.outcome = JobOutcome::kOk;
  result.report = "rep";
  journal.append_complete(result);
  journal.append_accept(2, 2, sample_options(), "y");
  journal.append_attempt(2, 1);  // pending with one crash attempt
  journal.append_accept(3, 3, sample_options(), "z");
  journal.append_quarantine(3, "bad");
  const std::size_t before = read_file(path).size();

  journal.close();
  JobJournal replayer;
  JournalRecovery state = replayer.open(path);
  state.jobs.at(1).crash_attempts = 0;  // completed: history irrelevant
  replayer.compact(state);

  // Re-replay after compaction: identical live state, and the journal is
  // still appendable.
  replayer.append_accept(4, 4, sample_options(), "w");
  replayer.close();
  JobJournal reopened;
  const JournalRecovery after = reopened.open(path);
  EXPECT_EQ(after.jobs.size(), 4u);
  EXPECT_TRUE(after.jobs.at(1).completed);
  EXPECT_EQ(after.jobs.at(1).result.report, "rep");
  EXPECT_EQ(after.jobs.at(2).crash_attempts, 1);
  EXPECT_FALSE(after.jobs.at(2).completed);
  EXPECT_TRUE(after.jobs.at(3).quarantined);
  EXPECT_EQ(after.jobs.at(3).quarantine_error, "bad");
  EXPECT_TRUE(after.jobs.contains(4));
  EXPECT_EQ(after.next_job_id, 5u);
  (void)before;
}

TEST(Journal, CompactionForgetsRequestedJobs) {
  const std::string path = scratch_path("forget");
  JobJournal journal;
  (void)journal.open(path);
  journal.append_accept(1, 1, sample_options(), "x");
  journal.append_accept(2, 2, sample_options(), "y");
  journal.close();

  JobJournal replayer;
  JournalRecovery state = replayer.open(path);
  replayer.compact(state, /*forget=*/{1});
  replayer.close();

  JobJournal reopened;
  const JournalRecovery after = reopened.open(path);
  EXPECT_EQ(after.jobs.size(), 1u);
  EXPECT_TRUE(after.jobs.contains(2));
  // next_job_id still reflects the replayed high-water mark of ids seen.
  EXPECT_EQ(after.next_job_id, 3u);
}

}  // namespace
}  // namespace mmsyn
