// Crash-safe campaigns: cooperative cancellation (CancelToken, deadlines,
// the global SIGINT flag), the RETSCAN_FAILPOINTS injection harness, the
// checkpoint journal's format/validation/torn-write tolerance, and the
// headline contract — a campaign killed mid-run (really killed, SIGKILL via
// fork) and resumed from its journal produces a CampaignResult bit-identical
// to an uninterrupted run, at every thread count and schedule.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "parallel/campaign_runner.hpp"
#include "retscan/retscan.hpp"
#include "util/cancel.hpp"
#include "util/failpoint.hpp"
#include "util/journal.hpp"

using namespace retscan;

namespace {

/// Scoped RETSCAN_FAILPOINTS override. Saves whatever the environment
/// already arms (the resilience CI job runs the whole suite with
/// journal.flush=shortwrite@2 exported), installs `spec` (empty = disarm),
/// and restores the prior arming on destruction — so tests that assert
/// exact journal contents are deterministic without hiding the env arming
/// from the rest of the binary.
class FailpointGuard {
 public:
  explicit FailpointGuard(const char* spec) {
    const char* prior = std::getenv("RETSCAN_FAILPOINTS");
    had_prior_ = prior != nullptr;
    if (had_prior_) {
      prior_ = prior;
    }
    if (spec == nullptr || spec[0] == '\0') {
      ::unsetenv("RETSCAN_FAILPOINTS");
    } else {
      ::setenv("RETSCAN_FAILPOINTS", spec, 1);
    }
    failpoints_refresh();
  }
  ~FailpointGuard() {
    if (had_prior_) {
      ::setenv("RETSCAN_FAILPOINTS", prior_.c_str(), 1);
    } else {
      ::unsetenv("RETSCAN_FAILPOINTS");
    }
    failpoints_refresh();
  }
  FailpointGuard(const FailpointGuard&) = delete;
  FailpointGuard& operator=(const FailpointGuard&) = delete;

 private:
  bool had_prior_ = false;
  std::string prior_;
};

/// Journal path in the test's working directory, removed on scope exit.
class ScopedJournalPath {
 public:
  explicit ScopedJournalPath(std::string path) : path_(std::move(path)) {
    std::remove(path_.c_str());
  }
  ~ScopedJournalPath() { std::remove(path_.c_str()); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

ValidationConfig behavioral_config() {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 32};
  config.chain_count = 80;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 77;
  return config;
}

ValidationConfig structural_config(Schedule schedule) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 5;
  config.schedule = schedule;
  return config;
}

constexpr std::uint64_t kFingerprint = 0x5EEDFACE12345678ull;

JournalRecord make_record(std::uint64_t shard_index) {
  JournalRecord record;
  record.shard_index = shard_index;
  for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
    record.stats[i] = shard_index * 100 + i;
  }
  for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
    record.telemetry[i] = shard_index * 1000 + i;
  }
  return record;
}

}  // namespace

// --- CancelToken -----------------------------------------------------------

TEST(CancelToken, ReportsRequestAndDeadline) {
  reset_global_cancel();
  CancelToken token;
  EXPECT_EQ(token.why(), CancelReason::None);
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.check());

  token.request_cancel();
  EXPECT_EQ(token.why(), CancelReason::User);
  try {
    token.check();
    FAIL() << "check() did not throw";
  } catch (const Cancelled& cancelled) {
    EXPECT_EQ(cancelled.reason(), CancelReason::User);
  }

  // A zero-millisecond deadline has always already elapsed.
  CancelToken deadline;
  deadline.set_deadline_ms(0);
  EXPECT_EQ(deadline.why(), CancelReason::Deadline);
  EXPECT_THROW(deadline.check(), Cancelled);

  // Copies share state; cancelling one cancels the other.
  CancelToken original;
  CancelToken copy = original;
  original.request_cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(CancelToken, ObservesGlobalFlag) {
  reset_global_cancel();
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  request_global_cancel();
  EXPECT_TRUE(global_cancel_requested());
  EXPECT_EQ(token.why(), CancelReason::User);
  reset_global_cancel();
  EXPECT_FALSE(token.cancelled());
}

// --- Failpoint harness -----------------------------------------------------

TEST(Failpoint, DisarmedIsFreeAndArmedActionsFire) {
  {
    FailpointGuard off("");
    EXPECT_FALSE(failpoints_enabled());
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
  }
  {
    // Default @1: one-shot on the first hit.
    FailpointGuard arm("test.site=throw");
    EXPECT_TRUE(failpoints_enabled());
    EXPECT_THROW(failpoint("test.site"), Error);
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
    EXPECT_EQ(failpoint("other.site"), FailAction::None);
  }
  {
    // @N is 1-based and one-shot.
    FailpointGuard arm("test.site=throw@3");
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
    EXPECT_THROW(failpoint("test.site"), Error);
    EXPECT_EQ(failpoint("test.site"), FailAction::None);
  }
  {
    FailpointGuard arm("test.site=throw@every");
    EXPECT_THROW(failpoint("test.site"), Error);
    EXPECT_THROW(failpoint("test.site"), Error);
  }
  {
    // shortwrite is delegated back to the caller; delay sleeps and moves on.
    FailpointGuard arm("io.site=shortwrite;slow.site=delay:1@every");
    EXPECT_EQ(failpoint("io.site"), FailAction::ShortWrite);
    EXPECT_EQ(failpoint("slow.site"), FailAction::None);
  }
  {
    // Malformed entries warn and are ignored; the valid entry still works.
    FailpointGuard arm("nonsense;x=;=throw;test.site=explode,test.site=throw");
    EXPECT_THROW(failpoint("test.site"), Error);
  }
  // refresh() resets hit counters.
  {
    FailpointGuard arm("test.site=throw");
    EXPECT_THROW(failpoint("test.site"), Error);
    failpoints_refresh();
    EXPECT_THROW(failpoint("test.site"), Error);
  }
}

// --- CampaignJournal -------------------------------------------------------

TEST(Journal, RoundTripsRecordsAcrossProcessRestart) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_roundtrip.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
    journal.append(make_record(2));
    EXPECT_TRUE(journal.find(0).has_value());
    EXPECT_FALSE(journal.find(1).has_value());
  }
  // Header survives: peek() sees the binding.
  const std::optional<CampaignJournal::Header> header =
      CampaignJournal::peek(path.str());
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->fingerprint, kFingerprint);
  EXPECT_EQ(header->seed, 42u);
  EXPECT_EQ(header->total, 1000u);
  EXPECT_EQ(header->shard_size, 256u);
  EXPECT_EQ(header->shard_count, 4u);

  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_EQ(resumed.resumed_count(), 2u);
  EXPECT_EQ(resumed.dropped_count(), 0u);
  for (const std::uint64_t shard : {0ull, 2ull}) {
    const std::optional<JournalRecord> record = resumed.find(shard);
    ASSERT_TRUE(record.has_value()) << "shard " << shard;
    const JournalRecord expected = make_record(shard);
    EXPECT_EQ(record->shard_index, expected.shard_index);
    for (std::size_t i = 0; i < JournalRecord::kStatsWords; ++i) {
      EXPECT_EQ(record->stats[i], expected.stats[i]);
    }
    for (std::size_t i = 0; i < JournalRecord::kTelemetryWords; ++i) {
      EXPECT_EQ(record->telemetry[i], expected.telemetry[i]);
    }
  }
  EXPECT_FALSE(resumed.find(1).has_value());
  EXPECT_FALSE(resumed.find(3).has_value());
}

TEST(Journal, ResumeRejectsForeignCampaigns) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_foreign.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
  }
  // Wrong fingerprint: different spec/design/version.
  try {
    CampaignJournal wrong(path.str(), kFingerprint + 1, 42,
                          CampaignJournal::Mode::Resume);
    FAIL() << "fingerprint mismatch accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("fingerprint"), std::string::npos);
  }
  // Wrong seed.
  EXPECT_THROW(CampaignJournal(path.str(), kFingerprint, 43,
                               CampaignJournal::Mode::Resume),
               Error);
  // Right campaign, wrong shard plan.
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  try {
    resumed.bind_plan(1000, 128, 8);
    FAIL() << "plan mismatch accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("shard"), std::string::npos);
  }
  // Truncate never validates — it discards.
  CampaignJournal fresh(path.str(), kFingerprint + 9, 9,
                        CampaignJournal::Mode::Truncate);
  fresh.bind_plan(10, 5, 2);
  EXPECT_EQ(fresh.resumed_count(), 0u);
}

TEST(Journal, TornTailIsDroppedAndIntactPrefixKept) {
  ScopedJournalPath path("test_durability_torn.journal");
  {
    // Third flush (the one that persists records 0..2) is cut short halfway
    // through its record region: record 0 survives, record 1 is torn,
    // record 2 never hits the disk.
    FailpointGuard arm("journal.flush=shortwrite@3");
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(0));
    journal.append(make_record(1));
    journal.append(make_record(2));
  }
  FailpointGuard off("");
  CampaignJournal resumed(path.str(), kFingerprint, 42,
                          CampaignJournal::Mode::Resume);
  resumed.bind_plan(1000, 256, 4);
  EXPECT_EQ(resumed.resumed_count(), 1u);
  EXPECT_EQ(resumed.dropped_count(), 1u);
  EXPECT_TRUE(resumed.find(0).has_value());
  EXPECT_FALSE(resumed.find(1).has_value());
  EXPECT_FALSE(resumed.find(2).has_value());
}

/// The header and record checksums are zlib's CRC32: a bitwise reference,
/// itself held to the CRC-32 check value, reproduces the stored words of a
/// written journal.
TEST(Journal, Crc32MatchesTheZlibCheckValue) {
  const auto reference_crc32 = [](const unsigned char* bytes, std::size_t size) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
      crc ^= bytes[i];
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
    }
    return crc ^ 0xFFFFFFFFu;
  };
  const auto stored_u32 = [](const unsigned char* bytes) {
    std::uint32_t value;
    std::memcpy(&value, bytes, sizeof value);
    return value;
  };
  ASSERT_EQ(reference_crc32(reinterpret_cast<const unsigned char*>("123456789"), 9),
            0xCBF43926u);

  ScopedJournalPath path("test_durability_crc.journal");
  {
    CampaignJournal journal(path.str(), kFingerprint, 42,
                            CampaignJournal::Mode::Truncate);
    journal.bind_plan(1000, 256, 4);
    journal.append(make_record(3));
  }
  std::ifstream in(path.str(), std::ios::binary);
  const std::vector<unsigned char> file{std::istreambuf_iterator<char>(in),
                                        std::istreambuf_iterator<char>()};
  constexpr std::size_t kHeader = 52;
  constexpr std::size_t kRecord = 124;
  ASSERT_EQ(file.size(), kHeader + kRecord);
  EXPECT_EQ(stored_u32(&file[kHeader - 4]), reference_crc32(file.data(), kHeader - 4));
  EXPECT_EQ(stored_u32(&file[kHeader + kRecord - 4]),
            reference_crc32(&file[kHeader], kRecord - 4));
}

/// Appends write only what the disk lacks: after a torn write the next
/// append supplies the missing tail too, and the first append after a
/// resume replaces a torn tail instead of writing past it.
TEST(Journal, AppendsHealTornWrites) {
  ScopedJournalPath path("test_durability_heal.journal");
  const auto file_size = [&] { return std::filesystem::file_size(path.str()); };
  constexpr std::uintmax_t kHeader = 52;
  constexpr std::uintmax_t kRecord = 124;
  const auto open = [&](CampaignJournal::Mode mode) {
    auto journal = std::make_unique<CampaignJournal>(path.str(), kFingerprint, 42, mode);
    journal->bind_plan(1000, 100, 10);
    return journal;
  };
  {
    // The second flush is cut to one of its two records; the third writes
    // the lost one along with its own.
    FailpointGuard arm("journal.flush=shortwrite@2");
    const auto journal = open(CampaignJournal::Mode::Truncate);
    journal->append(make_record(0));
    journal->append(make_record(1));
    EXPECT_EQ(file_size(), kHeader + kRecord);
    journal->append(make_record(2));
    EXPECT_EQ(file_size(), kHeader + 3 * kRecord);
  }
  {
    // Resumed, then cut mid-record (2.5 of 5 records) and abandoned, as a
    // crash would leave it.
    FailpointGuard arm("journal.flush=shortwrite@2");
    const auto journal = open(CampaignJournal::Mode::Resume);
    EXPECT_EQ(journal->resumed_count(), 3u);
    journal->append(make_record(3));
    journal->append(make_record(4));
    EXPECT_EQ(file_size(), kHeader + 2 * kRecord + kRecord / 2);
  }
  FailpointGuard off("");
  {
    const auto journal = open(CampaignJournal::Mode::Resume);
    EXPECT_EQ(journal->resumed_count(), 2u);
    EXPECT_EQ(journal->dropped_count(), 1u);
    for (const std::uint64_t shard : {2ull, 3ull, 4ull}) {
      journal->append(make_record(shard));  // the lost shards rerun
    }
    EXPECT_EQ(file_size(), kHeader + 5 * kRecord);
  }
  const auto journal = open(CampaignJournal::Mode::Resume);
  EXPECT_EQ(journal->resumed_count(), 5u);
  EXPECT_EQ(journal->dropped_count(), 0u);
  for (std::uint64_t shard = 0; shard < 5; ++shard) {
    ASSERT_TRUE(journal->find(shard).has_value()) << "shard " << shard;
    EXPECT_EQ(journal->find(shard)->stats[0], make_record(shard).stats[0]);
  }
}

// --- Campaign-layer cancellation, deadlines, resume -------------------------

TEST(DurableCampaign, PreCancelledTokenYieldsCancelledStatus) {
  FailpointGuard off("");
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
  CancelToken cancel;
  cancel.request_cancel();
  parallel::RunControls controls;
  controls.cancel = &cancel;
  const parallel::CampaignReport report =
      runner.run_fast(behavioral_config(), 1024, 128, controls);
  EXPECT_EQ(report.status, CampaignStatus::Cancelled);
  EXPECT_EQ(report.shards_completed, 0u);
  EXPECT_EQ(report.stats.sequences, 0u);
}

TEST(DurableCampaign, ExpiredDeadlineYieldsTimeoutStatus) {
  FailpointGuard off("");
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
  CancelToken deadline;
  deadline.set_deadline_ms(0);
  parallel::RunControls controls;
  controls.cancel = &deadline;
  const parallel::CampaignReport report =
      runner.run_fast(behavioral_config(), 1024, 128, controls);
  EXPECT_EQ(report.status, CampaignStatus::Timeout);
  EXPECT_EQ(report.shards_completed, 0u);
}

TEST(DurableCampaign, ThrowInterruptedCampaignResumesBitIdentically) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_throw_resume.journal");
  const ValidationConfig config = behavioral_config();

  parallel::CampaignReport baseline;
  {
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
    baseline = runner.run_fast(config, 2048, 256);
  }
  ASSERT_EQ(baseline.status, CampaignStatus::Complete);

  {
    FailpointGuard arm("shard.run=throw@3");
    CampaignJournal journal(path.str(), kFingerprint, config.seed,
                            CampaignJournal::Mode::Truncate);
    parallel::RunControls controls;
    controls.journal = &journal;
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
    EXPECT_THROW(runner.run_fast(config, 2048, 256, controls), Error);
  }

  CampaignJournal journal(path.str(), kFingerprint, config.seed,
                          CampaignJournal::Mode::Resume);
  EXPECT_GE(journal.resumed_count(), 1u);
  parallel::RunControls controls;
  controls.journal = &journal;
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
  const parallel::CampaignReport resumed =
      runner.run_fast(config, 2048, 256, controls);
  EXPECT_EQ(resumed.status, CampaignStatus::Complete);
  EXPECT_GE(resumed.shards_resumed, 1u);
  EXPECT_TRUE(resumed.stats == baseline.stats);
  EXPECT_TRUE(resumed.telemetry == baseline.telemetry);
}

// --- The headline: SIGKILL mid-campaign, resume, bit-identical --------------

namespace {

/// Fork a child that runs the campaign with a checkpoint journal and a
/// `shard.run=kill@N` failpoint armed — the child dies by real SIGKILL with
/// the journal holding whatever shards completed. Returns once the parent
/// has reaped it and asserted the death was the SIGKILL.
template <typename RunCampaign>
void run_killed_child(const std::string& journal_path, std::uint64_t seed,
                      const char* kill_spec, const RunCampaign& run_campaign) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: arm the kill, run with a fresh journal, die mid-campaign. If
    // the failpoint never fires, exit with a sentinel the parent rejects.
    ::setenv("RETSCAN_FAILPOINTS", kill_spec, 1);
    failpoints_refresh();
    try {
      CampaignJournal journal(journal_path, kFingerprint, seed,
                              CampaignJournal::Mode::Truncate);
      parallel::RunControls controls;
      controls.journal = &journal;
      run_campaign(controls);
    } catch (...) {
    }
    ::_exit(42);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child was not killed (exit status " << status << ")";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

}  // namespace

TEST(CrashRecovery, KilledBehavioralCampaignResumesBitIdentically) {
  FailpointGuard off("");
  const ValidationConfig config = behavioral_config();
  constexpr std::size_t kSequences = 2048;
  constexpr std::size_t kShard = 256;

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    parallel::CampaignReport baseline;
    {
      parallel::CampaignRunner runner(
          parallel::CampaignOptions{.threads = threads});
      baseline = runner.run_fast(config, kSequences, kShard);
    }

    ScopedJournalPath path("test_durability_kill_" + std::to_string(threads) +
                           ".journal");
    run_killed_child(path.str(), config.seed, "shard.run=kill@3",
                     [&](const parallel::RunControls& controls) {
                       parallel::CampaignRunner runner(
                           parallel::CampaignOptions{.threads = threads});
                       runner.run_fast(config, kSequences, kShard, controls);
                     });

    CampaignJournal journal(path.str(), kFingerprint, config.seed,
                            CampaignJournal::Mode::Resume);
    if (threads == 1) {
      // Serial child: shard hits are sequential, so exactly two shards
      // completed (and were durably journaled) before the third was killed.
      EXPECT_EQ(journal.resumed_count(), 2u);
    }
    parallel::RunControls controls;
    controls.journal = &journal;
    parallel::CampaignRunner runner(
        parallel::CampaignOptions{.threads = threads});
    const parallel::CampaignReport resumed =
        runner.run_fast(config, kSequences, kShard, controls);
    EXPECT_EQ(resumed.status, CampaignStatus::Complete);
    EXPECT_EQ(resumed.shards_completed, baseline.shards_completed);
    EXPECT_EQ(resumed.shards_resumed, journal.resumed_count());
    EXPECT_TRUE(resumed.stats == baseline.stats);
    EXPECT_TRUE(resumed.telemetry == baseline.telemetry);
  }
}

TEST(CrashRecovery, KilledStructuralCampaignResumesUnderBothSchedules) {
  FailpointGuard off("");
  constexpr std::size_t kSequences = 128;
  constexpr std::size_t kShard = 64;

  for (const Schedule schedule : {Schedule::Sweep, Schedule::Event}) {
    SCOPED_TRACE(to_string(schedule));
    const ValidationConfig config = structural_config(schedule);
    parallel::CampaignReport baseline;
    {
      parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 1});
      baseline = runner.run_structural_packed(config, kSequences, kShard);
    }

    ScopedJournalPath path(std::string("test_durability_kill_structural_") +
                           to_string(schedule) + ".journal");
    run_killed_child(path.str(), config.seed, "shard.run=kill@2",
                     [&](const parallel::RunControls& controls) {
                       parallel::CampaignRunner runner(
                           parallel::CampaignOptions{.threads = 1});
                       runner.run_structural_packed(config, kSequences, kShard,
                                                    controls);
                     });

    CampaignJournal journal(path.str(), kFingerprint, config.seed,
                            CampaignJournal::Mode::Resume);
    EXPECT_EQ(journal.resumed_count(), 1u);
    parallel::RunControls controls;
    controls.journal = &journal;
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = 2});
    const parallel::CampaignReport resumed =
        runner.run_structural_packed(config, kSequences, kShard, controls);
    EXPECT_EQ(resumed.status, CampaignStatus::Complete);
    EXPECT_TRUE(resumed.stats == baseline.stats);
    // The schedule telemetry (event vs full sweeps, instruction counts) is
    // part of the result — resumed shards must carry the journaled counters,
    // not zeros or recomputed ones.
    EXPECT_TRUE(resumed.telemetry == baseline.telemetry);
  }
}

// --- API-level checkpoint/resume through CampaignSpec -----------------------

TEST(ApiDurability, CheckpointThenResumeReproducesCleanRun) {
  FailpointGuard off("");
  ScopedJournalPath path("test_durability_api.journal");
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  Session session(FifoSpec{32, 32}, protection);

  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.seed = 2024;
  spec.sequences = 4096;
  spec.shard_size = 512;

  const CampaignResult clean = run(session, spec);
  ASSERT_EQ(clean.status, CampaignStatus::Complete);
  EXPECT_TRUE(clean.passed());

  spec.checkpoint = path.str();
  const CampaignResult checkpointed = run(session, spec);
  EXPECT_EQ(checkpointed.status, CampaignStatus::Complete);
  EXPECT_EQ(checkpointed.shards_resumed, 0u);
  EXPECT_TRUE(checkpointed.validation == clean.validation);

  // Resume with every shard journaled: nothing reruns, same statistics.
  spec.resume = true;
  const CampaignResult resumed = run(session, spec);
  EXPECT_EQ(resumed.status, CampaignStatus::Complete);
  EXPECT_EQ(resumed.shards_resumed, resumed.shard_count);
  EXPECT_TRUE(resumed.validation == clean.validation);
  EXPECT_TRUE(resumed.passed());
}

TEST(ApiDurability, DeadlineYieldsTimeoutResultThatDoesNotPass) {
  // One thread, every shard delayed 20 ms: the first shard outlives the
  // 1 ms budget however fast the behavioral kernel is, so the rest skip.
  FailpointGuard slow("shard.run=delay:20@every");
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  Session session(FifoSpec{32, 32}, protection);

  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.seed = 2024;
  spec.threads = 1;
  spec.sequences = 65536;
  spec.deadline_ms = 1;

  const CampaignResult result = run(session, spec);
  EXPECT_EQ(result.status, CampaignStatus::Timeout);
  EXPECT_LT(result.shards_completed, result.shard_count);
  EXPECT_FALSE(result.passed());
}
