// The retscan public API: Session/CampaignSpec routing must reproduce the
// engine-level entry points (testbenches, campaign runner, fault simulator,
// scan deliveries) bit-identically for the same seed (the facade is a
// router, not a reimplementation), spec validation must reject unrunnable
// campaigns with actionable messages, and the spec-file parser + runtime
// env helpers must parse strictly.
//
// This TU deliberately includes ONLY the public include/retscan/ surface —
// it doubles as a compile test that the public headers are self-contained.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "retscan/retscan.hpp"
#include "retscan/serve.hpp"

using namespace retscan;

namespace {

/// The paper's Section IV geometry (behavioral tier: no synthesis cost).
Session paper_session() {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 80;
  return Session(FifoSpec{32, 32}, protection);
}

ValidationConfig paper_config(std::uint64_t seed, InjectionMode mode) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 32};
  config.chain_count = 80;
  config.kind = CodeKind::HammingPlusCrc;
  config.hamming_r = 3;
  config.mode = mode;
  config.seed = seed;
  return config;
}

/// Small gate-level geometry (the 32-word x 2-bit FIFO slice the benches use).
Session gate_session() {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.hamming_r = 3;
  protection.chain_count = 8;
  protection.test_width = 4;
  return Session(FifoSpec{32, 2}, protection);
}

ValidationConfig gate_config(std::uint64_t seed, InjectionMode mode) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.kind = CodeKind::HammingPlusCrc;
  config.hamming_r = 3;
  config.mode = mode;
  config.seed = seed;
  return config;
}

std::string error_message(const std::function<void()>& action) {
  try {
    action();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

}  // namespace

// --- Session-routed campaigns vs legacy entry points ------------------------

TEST(ApiValidation, BehavioralPooledMatchesCampaignRunner) {
  const std::size_t sequences = 20000;
  Session session = paper_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.mode = InjectionMode::MultipleBurst;
  spec.burst_size = 4;
  spec.burst_spread = 1;
  spec.seed = 99;
  spec.sequences = sequences;
  const CampaignResult result = session.run(spec);

  parallel::CampaignRunner runner;
  ValidationConfig config = paper_config(99, InjectionMode::MultipleBurst);
  config.burst_size = 4;
  config.burst_spread = 1;
  const parallel::CampaignReport legacy = runner.run_fast(config, sequences);
  EXPECT_EQ(result.validation, legacy.stats);
  EXPECT_EQ(result.shard_count, legacy.shard_count);
  EXPECT_EQ(result.threads, legacy.threads);
}

TEST(ApiValidation, ThreadCountInvariance) {
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.seed = 11;
  spec.sequences = 12000;
  spec.shard_size = 2048;
  Session session = paper_session();
  const CampaignResult pooled = session.run(spec);
  spec.threads = 1;
  const CampaignResult serial = session.run(spec);
  EXPECT_EQ(pooled.validation, serial.validation);
  EXPECT_EQ(serial.threads, 1u);
}

TEST(ApiValidation, StructuralPooledMatchesCampaignRunner) {
  const std::uint64_t seed = 7;
  Session session = gate_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.tier = ValidationTier::Structural;
  spec.seed = seed;
  spec.sequences = 128;
  spec.shard_size = 64;
  const CampaignResult pooled = session.run(spec);
  parallel::CampaignRunner runner;
  const parallel::CampaignReport legacy = runner.run_structural_packed(
      gate_config(seed, InjectionMode::SingleRandom), 128, 64);
  EXPECT_EQ(pooled.validation, legacy.stats);
  EXPECT_EQ(pooled.shard_count, 2u);
  EXPECT_TRUE(pooled.passed());
}

// The settle schedule must never change campaign statistics — only how the
// gate-level settles are computed. Structural campaigns run Auto; the
// engine-level control (ValidationConfig::schedule) forces Sweep and Event
// on the pooled structural runner, which must agree with the campaign
// counter-for-counter at one thread and several, with telemetry that
// reflects the schedule actually run.
TEST(ApiValidation, ScheduleIsStatisticsInvariant) {
  Session session = gate_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.tier = ValidationTier::Structural;
  spec.seed = 23;
  spec.sequences = 128;
  spec.shard_size = 64;
  const CampaignResult campaign = session.run(spec);
  ASSERT_EQ(campaign.schedule, Schedule::Auto);

  ValidationConfig config = gate_config(23, InjectionMode::SingleRandom);
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = threads});
    config.schedule = Schedule::Sweep;
    const parallel::CampaignReport sweep = runner.run_structural_packed(config, 128, 64);
    EXPECT_EQ(sweep.stats, campaign.validation);
    EXPECT_GT(sweep.telemetry.full_sweeps, 0u);
    EXPECT_EQ(sweep.telemetry.event_sweeps, 0u);
    EXPECT_DOUBLE_EQ(sweep.telemetry.avg_dirty_fraction(), 1.0);

    config.schedule = Schedule::Event;
    const parallel::CampaignReport event = runner.run_structural_packed(config, 128, 64);
    EXPECT_EQ(event.stats, campaign.validation);
    EXPECT_GT(event.telemetry.event_sweeps, 0u);
    EXPECT_LT(event.telemetry.avg_dirty_fraction(), 1.0);

    // Auto is what the campaign ran: same counters, same telemetry.
    config.schedule = Schedule::Auto;
    const parallel::CampaignReport probed = runner.run_structural_packed(config, 128, 64);
    EXPECT_EQ(probed.stats, campaign.validation);
    EXPECT_EQ(probed.telemetry, campaign.activity);
  }
}

// CampaignResult::schedule reports the schedule the route ran: Auto for
// structural validation, Sweep everywhere else. serve's summary_digest
// hashes this text, so the report is part of the contract.
TEST(ApiValidation, ScheduleReportFollowsTheRoute) {
  const auto expect_schedule = [](Session& session, const CampaignSpec& spec,
                                  Schedule want) {
    const CampaignResult result = session.run(spec);
    EXPECT_EQ(result.schedule, want) << to_string(spec.kind) << "/" << to_string(spec.tier);
    EXPECT_EQ(serve::summarize(result, spec).schedule, to_string(want));
  };

  Session gate = gate_session();
  CampaignSpec validation;
  validation.kind = CampaignKind::Validation;
  validation.sequences = 128;
  expect_schedule(gate, validation, Schedule::Sweep);  // behavioral tier
  CampaignSpec rush = validation;
  rush.mode = InjectionMode::RushModel;
  expect_schedule(gate, rush, Schedule::Sweep);

  validation.tier = ValidationTier::Structural;
  expect_schedule(gate, validation, Schedule::Auto);

  CampaignSpec coverage;
  coverage.atpg.random_patterns = 64;
  coverage.atpg.run_podem = false;
  for (const CampaignKind kind : {CampaignKind::FaultCoverage, CampaignKind::ScanTest,
                                  CampaignKind::TransitionDelay, CampaignKind::Bridging}) {
    coverage.kind = kind;
    expect_schedule(gate, coverage, Schedule::Sweep);
  }

  CampaignSpec sequential;
  sequential.kind = CampaignKind::SequentialCoverage;
  sequential.sequences = 4;
  sequential.cycles = 4;
  expect_schedule(gate, sequential, Schedule::Sweep);
}

TEST(ApiInjection, RushModelMatchesLegacyRunner) {
  RushParameters rush;
  rush.resistance_ohm = 0.2;
  CorruptionParameters corruption;
  corruption.vulnerability = 0.02;

  Session session = paper_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::Validation;
  spec.mode = InjectionMode::RushModel;
  spec.seed = 201;
  spec.sequences = 8000;
  spec.rush = rush;
  spec.corruption = corruption;
  const CampaignResult result = session.run(spec);

  ValidationConfig config = paper_config(201, InjectionMode::RushModel);
  config.rush = rush;
  config.corruption = corruption;
  parallel::CampaignRunner runner;
  EXPECT_EQ(result.validation, runner.run_fast(config, 8000).stats);
  EXPECT_GT(result.validation.sequences_with_errors, 0u);
  EXPECT_TRUE(result.passed());
}

TEST(ApiFaultCoverage, MatchesLegacyAtpgPlusFaultSim) {
  Session session = gate_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::FaultCoverage;
  spec.seed = 5;
  spec.atpg.random_patterns = 256;
  spec.atpg.max_backtracks = 200;
  const CampaignResult result = session.run(spec);

  // Legacy flow: hand-built frame with the same capture constraints.
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 8;
  protection.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), protection);
  CombinationalFrame frame(design.netlist());
  for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                           "sig_capture", "sig_compare", "test_mode"}) {
    frame.constrain(name, false);
  }
  const auto faults = collapse_faults(design.netlist(), enumerate_faults(design.netlist()));
  AtpgOptions options;
  options.random_patterns = 256;
  options.max_backtracks = 200;
  options.seed = 5;
  const AtpgResult atpg = run_atpg(frame, faults, options);

  EXPECT_EQ(result.atpg.patterns, atpg.patterns);
  EXPECT_EQ(result.atpg.detected_random, atpg.detected_random);
  EXPECT_EQ(result.atpg.detected_podem, atpg.detected_podem);
  EXPECT_EQ(result.atpg.untestable, atpg.untestable);

  const FaultSimResult serial = fault_simulate(frame, faults, atpg.patterns);
  EXPECT_EQ(result.faults.detected, serial.detected);
  EXPECT_EQ(result.faults.detected_by, serial.detected_by);
  EXPECT_GT(result.atpg.coverage(), 0.9);
  EXPECT_TRUE(result.passed());
}

TEST(ApiScanTest, PooledDeliveryMatchesScalarAndPackedDeliveries) {
  Session session = gate_session();
  AtpgOptions options;
  options.random_patterns = 128;
  options.max_backtracks = 100;
  const AtpgResult atpg = session.run_atpg(options);
  ASSERT_GT(atpg.patterns.size(), 0u);

  CombinationalFrame& frame = session.frame();
  const ProtectedDesign& design = session.design();

  // The session's pooled delivery vs the scalar oracle and the packed
  // delivery, both driven directly through the design's test-mode ports.
  const ScanPorts ports = ScanPorts::test_mode_of(design);
  RetentionSession direct_session(design);
  const ScanTestResult reference =
      deliver_scan_test(direct_session.sim(), ports, frame, atpg.patterns);
  EXPECT_TRUE(reference.all_passed());

  const ScanTestResult pooled =
      session.run_scan_test(atpg.patterns, {.patterns_per_shard = 128});
  EXPECT_EQ(pooled.patterns_applied, reference.patterns_applied);
  EXPECT_EQ(pooled.mismatches, reference.mismatches);
  const ScanTestResult direct_pooled =
      deliver_scan_test_packed(ports, frame, atpg.patterns, &session.pool(), 128);
  EXPECT_EQ(pooled.patterns_applied, direct_pooled.patterns_applied);
  EXPECT_EQ(pooled.mismatches, direct_pooled.mismatches);
  const ScanTestResult direct_inline =
      deliver_scan_test_packed(ports, frame, atpg.patterns, nullptr);
  EXPECT_EQ(pooled.patterns_applied, direct_inline.patterns_applied);
  EXPECT_EQ(pooled.mismatches, direct_inline.mismatches);
}

TEST(ApiScanTest, CampaignKindRunsAtpgAndDelivery) {
  Session session = gate_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::ScanTest;
  spec.seed = 1;
  spec.atpg.random_patterns = 128;
  spec.atpg.max_backtracks = 100;
  const CampaignResult result = session.run(spec);
  EXPECT_EQ(result.scan_test.patterns_applied, result.atpg.patterns.size());
  EXPECT_EQ(result.scan_test.mismatches, 0u);
  EXPECT_TRUE(result.passed());

  // The uniform threads knob applies to scan-test campaigns too: the
  // delivery runs on a pool of spec.threads workers, with identical results.
  spec.threads = 2;
  const CampaignResult two_threads = session.run(spec);
  EXPECT_EQ(two_threads.threads, 2u);
  EXPECT_EQ(two_threads.scan_test.patterns_applied,
            result.scan_test.patterns_applied);
  EXPECT_EQ(two_threads.scan_test.mismatches, result.scan_test.mismatches);
}

/// shard_size cuts scan-test deliveries into whole 64-lane batches: the
/// shard plan follows it, the delivery verdict does not.
TEST(ApiScanTest, ShardSizeSetsTheDeliveryShards) {
  Session session = gate_session();
  CampaignSpec spec;
  spec.kind = CampaignKind::ScanTest;
  spec.atpg.random_patterns = 2048;
  spec.atpg.run_podem = false;
  const CampaignResult by_default = session.run(spec);
  const std::size_t patterns = by_default.atpg.patterns.size();
  ASSERT_GT(patterns, 64u);  // more than one shard at 64 patterns each
  EXPECT_EQ(by_default.shard_count, (patterns + 255) / 256);

  // 100 floors to one 64-lane batch per shard.
  for (const auto& [shard_size, per_shard] :
       {std::pair<std::size_t, std::size_t>{64, 64}, {100, 64}, {128, 128}}) {
    spec.shard_size = shard_size;
    const CampaignResult sharded = session.run(spec);
    EXPECT_EQ(sharded.shard_count, (patterns + per_shard - 1) / per_shard) << shard_size;
    EXPECT_EQ(sharded.scan_test.patterns_applied, by_default.scan_test.patterns_applied);
    EXPECT_EQ(sharded.scan_test.mismatches, by_default.scan_test.mismatches);
  }
}

// --- spec validation --------------------------------------------------------

TEST(ApiValidate, RejectsUnrunnableSpecs) {
  Session session = paper_session();

  CampaignSpec zero;
  zero.kind = CampaignKind::Validation;
  zero.sequences = 0;
  EXPECT_NE(error_message([&] { validate(zero, session); }).find("sequences must be > 0"),
            std::string::npos);

  CampaignSpec bad_shard;
  bad_shard.kind = CampaignKind::Validation;
  bad_shard.tier = ValidationTier::Structural;
  bad_shard.sequences = 100;
  bad_shard.shard_size = 100;  // not a multiple of 64
  EXPECT_NE(error_message([&] { validate(bad_shard, session); })
                .find("multiple of the 64-lane"),
            std::string::npos);

  // Protection features the Fig. 8 testbenches cannot model are rejected
  // instead of silently running on a reduced architecture.
  ProtectionConfig secded_protection;
  secded_protection.kind = CodeKind::HammingPlusCrc;
  secded_protection.chain_count = 80;
  secded_protection.secded = true;
  Session secded_session(FifoSpec{32, 32}, secded_protection);
  CampaignSpec secded_campaign;
  secded_campaign.kind = CampaignKind::Validation;
  secded_campaign.sequences = 10;
  EXPECT_NE(error_message([&] { validate(secded_campaign, secded_session); })
                .find("SEC-DED"),
            std::string::npos);

  // Whole 64-lane batches are a valid structural shard size.
  CampaignSpec structural_shard = bad_shard;
  structural_shard.shard_size = 1024;
  EXPECT_NO_THROW(validate(structural_shard, session));

  CampaignSpec no_patterns;
  no_patterns.kind = CampaignKind::FaultCoverage;
  no_patterns.atpg.random_patterns = 0;
  no_patterns.atpg.run_podem = false;
  EXPECT_NE(error_message([&] { validate(no_patterns, session); })
                .find("empty pattern set"),
            std::string::npos);

  // Geometries the testbenches or protection synthesis cannot build fail
  // here, naming the key, not at an internal check mid-run.
  const auto expect_rejected = [](const CampaignSpec& spec, const Session& on,
                                  const std::vector<std::string>& needles) {
    const std::string why = error_message([&] { validate(spec, on); });
    for (const std::string& needle : needles) {
      EXPECT_NE(why.find(needle), std::string::npos)
          << to_string(spec.kind) << "/" << to_string(spec.tier) << ": " << why;
    }
  };
  CampaignSpec behavioral;
  behavioral.kind = CampaignKind::Validation;
  behavioral.sequences = 64;
  CampaignSpec structural = behavioral;
  structural.tier = ValidationTier::Structural;
  CampaignSpec fault_coverage;
  fault_coverage.kind = CampaignKind::FaultCoverage;
  fault_coverage.atpg.random_patterns = 16;
  CampaignSpec scan_test = fault_coverage;
  scan_test.kind = CampaignKind::ScanTest;

  ProtectionConfig wide_k;  // r = 4 gives k = 11, which does not divide 80
  wide_k.kind = CodeKind::HammingCorrect;
  wide_k.hamming_r = 4;
  wide_k.chain_count = 80;
  const Session wide_k_session(FifoSpec{32, 32}, wide_k);
  for (const CampaignSpec& spec : {behavioral, structural, fault_coverage, scan_test}) {
    expect_rejected(spec, wide_k_session, {"protection.chain_count = 80", "k = 11"});
  }
  wide_k.secded = true;
  expect_rejected(fault_coverage, Session(FifoSpec{32, 32}, wide_k),
                  {"protection.chain_count = 80", "k = 11"});

  ProtectionConfig narrow_test;
  narrow_test.chain_count = 4;
  narrow_test.test_width = 3;
  const Session narrow_test_session(FifoSpec{32, 2}, narrow_test);
  for (const CampaignSpec& spec : {fault_coverage, scan_test}) {
    expect_rejected(spec, narrow_test_session, {"protection.test_width = 3"});
  }
  // Neither validation tier synthesizes the session's test concatenation:
  // the behavioral tier builds no design, the structural one its own at 4.
  EXPECT_NO_THROW(validate(behavioral, narrow_test_session));
  EXPECT_NO_THROW(validate(structural, narrow_test_session));

  ProtectionConfig crc_ten;  // CRC only: no Hamming monitors to synthesize
  crc_ten.kind = CodeKind::CrcDetect;
  crc_ten.chain_count = 10;
  crc_ten.test_width = 5;
  const Session crc_ten_session(FifoSpec{32, 2}, crc_ten);
  EXPECT_NO_THROW(validate(fault_coverage, crc_ten_session));
  // ...but the behavioral tier lays every kind out in Hamming words, and the
  // structural one synthesizes at test width 4.
  expect_rejected(behavioral, crc_ten_session, {"protection.chain_count = 10", "k = 4"});
  expect_rejected(structural, crc_ten_session,
                  {"protection.chain_count = 10", "structural tier's test width 4"});

  ProtectionConfig r_one;
  r_one.chain_count = 4;
  r_one.hamming_r = 1;
  expect_rejected(behavioral, Session(FifoSpec{32, 2}, r_one), {"protection.hamming_r = 1"});

  // A generated controller owns se/retain: the structural tier would test
  // its own controller-less design instead, and a scan-test delivery would
  // never reach the chains. The behavioral tier and fault simulation stay.
  ProtectionConfig controlled;
  controlled.kind = CodeKind::HammingPlusCrc;
  controlled.chain_count = 8;
  controlled.hardware_controller = true;
  Session controlled_session(FifoSpec{32, 2}, controlled);
  for (const CampaignSpec& spec : {structural, scan_test}) {
    expect_rejected(spec, controlled_session,
                    {"protection.hardware_controller", "HardwareRetentionSession"});
  }
  EXPECT_NO_THROW(validate(behavioral, controlled_session));
  EXPECT_NO_THROW(validate(fault_coverage, controlled_session));
  const std::string why = error_message([&] { controlled_session.run_scan_test({}); });
  EXPECT_NE(why.find("protection.hardware_controller"), std::string::npos) << why;

  // Netlist-backed sessions cannot run validation campaigns...
  ProtectionConfig protection;
  protection.chain_count = 4;
  Session counter(make_counter(16), protection);
  CampaignSpec validation;
  validation.kind = CampaignKind::Validation;
  validation.sequences = 10;
  EXPECT_NE(error_message([&] { validate(validation, counter); })
                .find("golden FIFO model"),
            std::string::npos);
  // ...but fault-coverage kinds are fine.
  CampaignSpec coverage;
  coverage.kind = CampaignKind::FaultCoverage;
  coverage.atpg.random_patterns = 64;
  coverage.atpg.run_podem = false;
  EXPECT_NO_THROW(validate(coverage, counter));
}

TEST(ApiValidate, RejectsBadDurabilitySpecs) {
  Session session = paper_session();

  CampaignSpec base;
  base.kind = CampaignKind::Validation;
  base.sequences = 64;

  // A zero deadline would expire before any work happens.
  CampaignSpec zero_deadline = base;
  zero_deadline.deadline_ms = 0;
  EXPECT_NE(error_message([&] { validate(zero_deadline, session); })
                .find("deadline_ms = 0"),
            std::string::npos);

  // Resume without a journal path has nothing to resume from.
  CampaignSpec resume_only = base;
  resume_only.resume = true;
  EXPECT_NE(error_message([&] { validate(resume_only, session); })
                .find("no journal"),
            std::string::npos);

  // Durability rides the sharded validation runner only.
  CampaignSpec coverage = base;
  coverage.kind = CampaignKind::FaultCoverage;
  coverage.atpg.random_patterns = 16;
  coverage.checkpoint = "coverage.journal";
  EXPECT_NE(error_message([&] { validate(coverage, session); })
                .find("sharded validation"),
            std::string::npos);

  // Checkpoint path problems are caught before any work runs.
  CampaignSpec dir_path = base;
  dir_path.checkpoint = ".";
  EXPECT_NE(error_message([&] { validate(dir_path, session); })
                .find("is a directory"),
            std::string::npos);

  CampaignSpec missing_dir = base;
  missing_dir.checkpoint = "/no/such/directory/campaign.journal";
  EXPECT_NE(error_message([&] { validate(missing_dir, session); })
                .find("does not exist"),
            std::string::npos);

  CampaignSpec file_parent = base;
  file_parent.checkpoint = "/etc/passwd/campaign.journal";
  EXPECT_NE(error_message([&] { validate(file_parent, session); })
                .find("does not exist"),
            std::string::npos);

  // A journal written by a different campaign (here: a foreign fingerprint)
  // is rejected on resume instead of silently merged.
  const std::string path = "test_api_foreign.journal";
  std::remove(path.c_str());
  {
    CampaignJournal foreign(path, 0xDEADBEEFu, base.seed,
                            CampaignJournal::Mode::Truncate);
    foreign.bind_plan(64, 64, 1);
    foreign.append(JournalRecord{});
  }
  CampaignSpec resume = base;
  resume.checkpoint = path;
  resume.resume = true;
  EXPECT_NE(error_message([&] { validate(resume, session); })
                .find("different campaign"),
            std::string::npos);
  // Same journal, same spec, different seed: also foreign.
  std::remove(path.c_str());
  {
    CampaignJournal mine(path, campaign_fingerprint(resume, session),
                         base.seed + 1, CampaignJournal::Mode::Truncate);
    mine.bind_plan(64, 64, 1);
    mine.append(JournalRecord{});
  }
  EXPECT_NE(error_message([&] { validate(resume, session); })
                .find("different campaign"),
            std::string::npos);
  // Matching fingerprint and seed: accepted.
  std::remove(path.c_str());
  {
    CampaignJournal mine(path, campaign_fingerprint(resume, session),
                         base.seed, CampaignJournal::Mode::Truncate);
    mine.bind_plan(64, 64, 1);
    mine.append(JournalRecord{});
  }
  EXPECT_NO_THROW(validate(resume, session));
  std::remove(path.c_str());
}

TEST(ApiSpecFile, ParsesDurabilityKeys) {
  const SpecFile file = parse_spec_text(R"(
campaign.checkpoint = run.journal
campaign.resume = true
campaign.deadline_ms = 5000
)");
  EXPECT_EQ(file.campaign.checkpoint, "run.journal");
  EXPECT_TRUE(file.campaign.resume);
  ASSERT_TRUE(file.campaign.deadline_ms.has_value());
  EXPECT_EQ(*file.campaign.deadline_ms, 5000u);

  // Bare shorthands, matching the CLI flag names.
  const SpecFile bare = parse_spec_text(
      "checkpoint = ck.journal\nresume = false\ndeadline_ms = 9\n");
  EXPECT_EQ(bare.campaign.checkpoint, "ck.journal");
  EXPECT_FALSE(bare.campaign.resume);
  EXPECT_EQ(*bare.campaign.deadline_ms, 9u);

  // Defaults: durability off.
  const SpecFile none = parse_spec_text("fifo.depth = 32\n");
  EXPECT_TRUE(none.campaign.checkpoint.empty());
  EXPECT_FALSE(none.campaign.resume);
  EXPECT_FALSE(none.campaign.deadline_ms.has_value());

  EXPECT_NE(error_message([] { parse_spec_text("campaign.resume = maybe\n"); })
                .find("not a boolean"),
            std::string::npos);
  EXPECT_NE(
      error_message([] { parse_spec_text("campaign.deadline_ms = -4\n"); })
          .find("not a non-negative integer"),
      std::string::npos);
}

TEST(ApiSession, ConstructionRejectsBadGeometry) {
  ProtectionConfig zero_chains;
  zero_chains.chain_count = 0;
  EXPECT_THROW(Session(FifoSpec{32, 2}, zero_chains), Error);

  ProtectionConfig indivisible;
  indivisible.chain_count = 7;  // 80 flops % 7 != 0
  EXPECT_NE(error_message([&] { Session session(FifoSpec{32, 2}, indivisible); })
                .find("equal scan chains"),
            std::string::npos);

  // FIFO geometries make_fifo refuses. The behavioral tier counts their
  // flops without building them, so the count itself must refuse them and
  // name the offending key, for `run` as for the testbench.
  const struct {
    const char* spec;
    const char* names;
  } fifos[] = {
      {"fifo.depth = 3\nfifo.width = 4\nprotection.kind = hamming+crc\n"
       "protection.hamming_r = 2\nprotection.chain_count = 19\n",
       "fifo.depth"},
      {"fifo.depth = 32\nfifo.width = 0\nprotection.chain_count = 4\n", "fifo.width"},
      // depth * width wraps to 0 in 64 bits.
      {"fifo.depth = 9223372036854775808\nfifo.width = 2\nprotection.hamming_r = 2\n"
       "protection.chain_count = 10\n",
       "fifo.depth x fifo.width"},
  };
  for (const auto& fifo : fifos) {
    const SpecFile file =
        parse_spec_text(std::string(fifo.spec) + "campaign.sequences = 1000\n");
    EXPECT_NE(error_message([&] {
                Session session = make_session(file);
                run(session, file.campaign);
              }).find(fifo.names),
              std::string::npos)
        << fifo.spec;
    ValidationConfig config;
    config.fifo = file.fifo;
    config.chain_count = file.protection.chain_count;
    config.kind = file.protection.kind;
    config.hamming_r = file.protection.hamming_r;
    EXPECT_NE(error_message([&] { FastTestbench bench(config); }).find(fifo.names),
              std::string::npos)
        << fifo.spec;
  }
}

TEST(ApiSession, RunScanTestRejectsBadPatternsAndOptions) {
  Session session = gate_session();
  EXPECT_THROW(session.run_scan_test({BitVec(3)}, {}), Error);
  ScanTestOptions bad_shard;
  bad_shard.patterns_per_shard = 0;
  EXPECT_THROW(session.run_scan_test({}, bad_shard), Error);
}

// --- spec files -------------------------------------------------------------

TEST(ApiSpecFile, ParsesFullSpec) {
  const SpecFile file = parse_spec_text(R"(
# the paper's validation campaign
fifo.depth = 32
fifo.width = 32
protection.kind = hamming+crc
protection.hamming_r = 3
protection.chain_count = 80

campaign.kind = validation
campaign.seed = 2024        # campaign master seed
campaign.sequences = 200000
campaign.mode = multiple-burst
campaign.burst_size = 4
campaign.burst_spread = 1
)");
  EXPECT_EQ(file.fifo.depth, 32u);
  EXPECT_EQ(file.fifo.width, 32u);
  EXPECT_EQ(file.protection.kind, CodeKind::HammingPlusCrc);
  EXPECT_EQ(file.protection.chain_count, 80u);
  EXPECT_EQ(file.campaign.kind, CampaignKind::Validation);
  EXPECT_EQ(file.campaign.seed, 2024u);
  EXPECT_EQ(file.campaign.sequences, 200000u);
  EXPECT_EQ(file.campaign.mode, InjectionMode::MultipleBurst);
  EXPECT_EQ(file.campaign.burst_size, 4u);

  // The settle schedule is not a spec key: a spec that sets one fails
  // loudly instead of running under a schedule it did not ask for.
  for (const char* text : {"campaign.schedule = event\n", "schedule = sweep\n"}) {
    EXPECT_NE(error_message([&] { parse_spec_text(text); }).find("unknown key"),
              std::string::npos)
        << text;
  }
  // Nor are the CRC block width and the flop-to-chain map: the protection
  // architecture is the paper's (one CCITT CRC-16 block, blocked chains).
  for (const char* text :
       {"protection.crc_group_width = 4\n", "protection.assignment = interleaved\n"}) {
    EXPECT_NE(error_message([&] { parse_spec_text(text); }).find("spec line 1: unknown key"),
              std::string::npos)
        << text;
  }
}

TEST(ApiSpecFile, ErrorsNameTheLine) {
  EXPECT_NE(error_message([] { parse_spec_text("fifo.depth = 32\nbogus.key = 1\n"); })
                .find("spec line 2"),
            std::string::npos);
  EXPECT_NE(error_message([] { parse_spec_text("fifo.depth == 32"); })
                .find("not a non-negative integer"),
            std::string::npos);
  // Negative values must not wrap through stoull into huge geometries.
  EXPECT_NE(error_message([] { parse_spec_text("fifo.depth = -1"); })
                .find("not a non-negative integer"),
            std::string::npos);
  // Values past a narrow field's range must not silently truncate.
  EXPECT_NE(error_message([] { parse_spec_text("campaign.threads = 4294967298"); })
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(error_message([] { parse_spec_text("protection.hamming_r = 999"); })
                .find("out of range"),
            std::string::npos);
  EXPECT_NE(error_message([] { parse_spec_text("fifo.depth\n"); })
                .find("expected 'key = value'"),
            std::string::npos);
  EXPECT_NE(error_message([] { parse_spec_text("campaign.mode = sideways\n"); })
                .find("sideways"),
            std::string::npos);
  EXPECT_NE(error_message([] { parse_spec_text("campaign.atpg.run_podem = maybe\n"); })
                .find("not a boolean"),
            std::string::npos);
  EXPECT_NE(error_message([] { (void)load_spec_file("/nonexistent/x.spec"); })
                .find("cannot open"),
            std::string::npos);
}

TEST(ApiSpecFile, ParseU64IsStrict) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~std::uint64_t{0});
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("+1").has_value());
  EXPECT_FALSE(parse_u64("10abc").has_value());
  EXPECT_FALSE(parse_u64(" 10").has_value());
  EXPECT_FALSE(parse_u64("99999999999999999999").has_value());  // overflow
}

/// Every value of the three spec enums round-trips, and a bad value's spec
/// error names its line and lists exactly the accepted spellings.
TEST(ApiSpecFile, EnumRoundTrips) {
  const auto check = []<typename Enum>(const std::string& key,
                                       std::initializer_list<Enum> values) {
    std::string spellings;
    for (const Enum value : values) {
      Enum out{};
      EXPECT_TRUE(from_string(to_string(value), out)) << to_string(value);
      EXPECT_EQ(out, value) << to_string(value);
      spellings += (spellings.empty() ? "" : ", ") + std::string(to_string(value));
    }
    Enum out{};
    EXPECT_FALSE(from_string("warp-drive", out));
    const std::string spec = "fifo.depth = 32\n" + key + " = warp-drive\n";
    EXPECT_EQ(error_message([&] { parse_spec_text(spec); }),
              "spec line 2: 'warp-drive' is not one of: " + spellings);
  };
  check("campaign.kind",
        {CampaignKind::Validation, CampaignKind::FaultCoverage, CampaignKind::ScanTest,
         CampaignKind::TransitionDelay, CampaignKind::Bridging,
         CampaignKind::SequentialCoverage});
  check("campaign.tier", {ValidationTier::Behavioral, ValidationTier::Structural});
  check("campaign.mode", {InjectionMode::None, InjectionMode::SingleRandom,
                          InjectionMode::MultipleBurst, InjectionMode::RushModel});
}

/// Spellings that could not change a result are spec errors naming their
/// line: 11.0 removed the `campaign.backend` key with every value it took
/// (5.0 had already removed `packed`, 10.0 `auto`; `reference` re-ran an
/// oracle), and 10.0 the `injection` kind (a validation campaign with
/// mode = rush-model).
TEST(ApiSpecFile, BackendKeyAndInjectionKindAreSpecErrors) {
  for (const char* backend : {"auto", "packed", "reference", "packed-parallel"}) {
    EXPECT_EQ(error_message([&] {
                parse_spec_text("campaign.backend = " + std::string(backend) + "\n");
              }),
              "spec line 1: unknown key 'campaign.backend' (see docs/spec-reference.md "
              "for the key reference)")
        << backend;
  }
  EXPECT_EQ(error_message([] { parse_spec_text("campaign.kind = injection\n"); }),
            "spec line 1: 'injection' is not one of: validation, fault-coverage, "
            "scan-test, transition-delay, bridging, sequential-coverage");
}

// --- runtime config ---------------------------------------------------------

TEST(ApiRuntime, ParsesAndRejectsEnvOverrides) {
  // The provenance block labels the thread count with the source the parse
  // chose: a rejected RETSCAN_THREADS falls back to (and reads) hardware.
  const auto provenance = [] {
    std::ostringstream out;
    print_build_info(out);
    return out.str();
  };
  const auto threads_line = [](unsigned threads, const char* source) {
    return "threads:  " + std::to_string(threads) + " (" + source + ")\n";
  };

  ::setenv("RETSCAN_THREADS", "3", 1);
  ::setenv("RETSCAN_SEQUENCES", "12345", 1);
  RuntimeConfig config = runtime_config_refresh();
  EXPECT_EQ(config.threads, 3u);
  EXPECT_NE(provenance().find(threads_line(3, "RETSCAN_THREADS")), std::string::npos)
      << provenance();
  EXPECT_NE(provenance().find("lanes:    4 x 64 = 256 per block ("), std::string::npos)
      << provenance();
  ASSERT_TRUE(config.sequences.has_value());
  EXPECT_EQ(*config.sequences, 12345u);
  EXPECT_EQ(runtime_threads(), 3u);
  EXPECT_EQ(runtime_sequences(10), 12345u);

  ::setenv("RETSCAN_THREADS", "0", 1);
  ::setenv("RETSCAN_SEQUENCES", "12x", 1);
  // runtime_config() is a cache — environment edits are invisible until the
  // next refresh (one getenv round per process, not per engine).
  EXPECT_EQ(runtime_config().threads, 3u);
  config = runtime_config_refresh();
  // Invalid override → the resolved hardware default (always >= 1).
  EXPECT_EQ(config.threads, runtime_threads());
  EXPECT_GE(config.threads, 1u);
  EXPECT_FALSE(config.sequences.has_value());
  EXPECT_EQ(runtime_sequences(10), 10u);
  EXPECT_GE(runtime_threads(), 1u);
  EXPECT_NE(provenance().find(threads_line(config.threads, "hardware")),
            std::string::npos)
      << provenance();

  ::setenv("RETSCAN_THREADS", "5000", 1);  // over the 4096 cap → hardware default
  EXPECT_EQ(runtime_config_refresh().threads, runtime_threads());
  EXPECT_NE(provenance().find(threads_line(runtime_threads(), "hardware")),
            std::string::npos)
      << provenance();

  // RETSCAN_THREADS=1 is the explicit serial opt-out.
  ::setenv("RETSCAN_THREADS", "1", 1);
  EXPECT_EQ(runtime_config_refresh().threads, 1u);

  ::unsetenv("RETSCAN_THREADS");
  ::unsetenv("RETSCAN_SEQUENCES");
  config = runtime_config_refresh();
  // Unset → threads defaults to hardware concurrency, never 0.
  EXPECT_EQ(config.threads, runtime_threads());
  EXPECT_GE(config.threads, 1u);
  EXPECT_FALSE(config.sequences.has_value());
  EXPECT_EQ(runtime_sequences(42), 42u);
  EXPECT_NE(provenance().find(threads_line(config.threads, "hardware")),
            std::string::npos)
      << provenance();
}

TEST(ApiVersion, ConstantsAgree) {
  EXPECT_STREQ(version_string(), RETSCAN_VERSION_STRING);
  EXPECT_EQ(RETSCAN_VERSION_NUMBER,
            kVersionMajor * 10000 + kVersionMinor * 100 + kVersionPatch);
  EXPECT_EQ(kVersionMajor, 11);
}
