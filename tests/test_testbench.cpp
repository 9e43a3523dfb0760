#include "testbench/harness.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>

namespace retscan {

void PrintTo(const ValidationStats& s, std::ostream* os) {
  *os << "{sequences " << s.sequences << ", injected " << s.errors_injected
      << ", with-errors " << s.sequences_with_errors << ", detected " << s.detected
      << ", corrected " << s.corrected << ", flagged " << s.flagged_uncorrectable
      << ", mismatches " << s.comparator_mismatches << ", silent "
      << s.silent_corruptions << "}";
}

void PrintTo(const SequenceOutcome& o, std::ostream* os) {
  *os << "{detected " << o.detected << ", recheck_clean " << o.recheck_clean
      << ", matches " << o.matches << "}";
}

namespace {

/// Small configuration usable by both tiers: 80-flop FIFO, 8 chains of 10.
ValidationConfig small_config(InjectionMode mode) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = mode;
  config.seed = 99;
  return config;
}

TEST(FastTestbench, NoInjectionMeansNoEvents) {
  FastTestbench tb(small_config(InjectionMode::None));
  const ValidationStats stats = tb.run(500);
  EXPECT_EQ(stats.sequences, 500u);
  EXPECT_EQ(stats.errors_injected, 0u);
  EXPECT_EQ(stats.detected, 0u);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

/// Experiment 1 (Section IV): every single injected error is detected and
/// corrected; the comparator never sees a difference after correction.
TEST(FastTestbench, AllSingleErrorsCorrected) {
  FastTestbench tb(small_config(InjectionMode::SingleRandom));
  const ValidationStats stats = tb.run(5000);
  EXPECT_EQ(stats.sequences_with_errors, 5000u);
  EXPECT_EQ(stats.detected, 5000u);
  EXPECT_EQ(stats.corrected, 5000u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.correction_rate(), 1.0);
}

/// Experiment 2: clustered bursts are always detected but essentially never
/// fully corrected by the Hamming arm.
TEST(FastTestbench, BurstsDetectedNotCorrected) {
  ValidationConfig config = small_config(InjectionMode::MultipleBurst);
  config.burst_size = 4;
  config.burst_spread = 1;
  FastTestbench tb(config);
  const ValidationStats stats = tb.run(2000);
  EXPECT_EQ(stats.sequences_with_errors, 2000u);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  // Tight bursts overwhelm SEC words; correction rate collapses.
  EXPECT_LT(stats.correction_rate(), 0.5);
  EXPECT_GT(stats.flagged_uncorrectable, 0u);
}

TEST(FastTestbench, PaperScaleGeometryRuns) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 32};  // the real 1040-flop case study
  config.chain_count = 80;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 7;
  FastTestbench tb(config);
  EXPECT_EQ(tb.chain_length(), 13u);
  const ValidationStats stats = tb.run(2000);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.correction_rate(), 1.0);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

TEST(FastTestbench, RushModelProducesPlausibleCampaign) {
  ValidationConfig config = small_config(InjectionMode::RushModel);
  config.rush.resistance_ohm = 0.05;  // ringing wake-up
  config.corruption.vulnerability = 0.02;
  FastTestbench tb(config);
  const ValidationStats stats = tb.run(2000);
  EXPECT_GT(stats.errors_injected, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);  // monitoring never misses
  // Some sequences have single upsets (corrected), some have bursts.
  EXPECT_GT(stats.corrected, 0u);
}

TEST(FastTestbench, CrcOnlyDetectsEverythingCorrectsNothing) {
  ValidationConfig config = small_config(InjectionMode::SingleRandom);
  config.kind = CodeKind::CrcDetect;
  FastTestbench tb(config);
  const ValidationStats stats = tb.run(2000);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.comparator_mismatches, 2000u);  // nothing was repaired
  EXPECT_EQ(stats.silent_corruptions, 0u);        // but everything was flagged
}

/// The structural testbench (gate-level FIFO_A + behavioral FIFO_B) agrees
/// with the fast tier on the headline result.
TEST(StructuralTestbench, SingleErrorsAllCorrectedAtGateLevel) {
  StructuralTestbench tb(small_config(InjectionMode::SingleRandom));
  const ValidationStats stats = tb.run(25);
  EXPECT_EQ(stats.sequences_with_errors, 25u);
  EXPECT_EQ(stats.detected, 25u);
  EXPECT_EQ(stats.corrected, 25u);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

TEST(StructuralTestbench, BurstsFlaggedAtGateLevel) {
  ValidationConfig config = small_config(InjectionMode::MultipleBurst);
  config.burst_size = 4;
  config.burst_spread = 1;
  StructuralTestbench tb(config);
  const ValidationStats stats = tb.run(15);
  EXPECT_EQ(stats.detected, 15u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  EXPECT_LT(stats.correction_rate(), 0.75);
}

/// run()'s full counter block, pinned: every counter, including
/// flagged_uncorrectable (the FSM's ErrorFlagged verdict), which no other
/// scalar-path test reads. CRC-only flags every errored sequence; Hamming+CRC
/// bursts flag the ones its recheck leaves dirty.
TEST(StructuralTestbench, RunCountersArePinned) {
  ValidationConfig crc = small_config(InjectionMode::SingleRandom);
  crc.kind = CodeKind::CrcDetect;
  EXPECT_EQ(StructuralTestbench(crc).run(64),
            (ValidationStats{64, 64, 64, 64, 0, 64, 47, 0}));

  ValidationConfig bursts = small_config(InjectionMode::MultipleBurst);
  bursts.burst_size = 4;
  bursts.burst_spread = 1;
  EXPECT_EQ(StructuralTestbench(bursts).run(64),
            (ValidationStats{64, 256, 64, 64, 19, 45, 35, 0}));
}

TEST(StructuralTestbench, CleanCyclesNeverMismatch) {
  StructuralTestbench tb(small_config(InjectionMode::None));
  const ValidationStats stats = tb.run(10);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.detected, 0u);
}

// ---------------------------------------------------------------------------
// Syndrome-domain evaluation vs the data-full oracle.

/// Seeds per differential sweep: RETSCAN_FUZZ_SEEDS widens it (default 2).
std::uint64_t fuzz_seed_count() {
  if (const char* env = std::getenv("RETSCAN_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) {
      return static_cast<std::uint64_t>(parsed);
    }
  }
  return 2;
}

/// The 32x32 FIFO at five chain counts (Hamming r = 3/5/5/3/3) and the
/// 32x2 slice.
struct Geometry {
  FifoSpec fifo;
  std::size_t chains;
  unsigned r;
};
constexpr Geometry kGeometries[] = {
    {{32, 32}, 80, 3}, {{32, 32}, 52, 5}, {{32, 32}, 104, 5},
    {{32, 32}, 208, 3}, {{32, 32}, 16, 3}, {{32, 2}, 8, 3},
};
constexpr CodeKind kKinds[] = {CodeKind::CrcDetect, CodeKind::HammingCorrect,
                               CodeKind::HammingPlusCrc};

struct Injection {
  InjectionMode mode;
  std::size_t burst_size;
  std::size_t burst_spread;
};
constexpr Injection kInjections[] = {
    {InjectionMode::None, 0, 0},          {InjectionMode::SingleRandom, 0, 0},
    {InjectionMode::MultipleBurst, 4, 1}, {InjectionMode::MultipleBurst, 2, 2},
    {InjectionMode::MultipleBurst, 6, 2}, {InjectionMode::RushModel, 0, 0},
};

std::string describe(const ValidationConfig& c) {
  return "fifo " + std::to_string(c.fifo.depth) + "x" + std::to_string(c.fifo.width) +
         ", " + std::to_string(c.chain_count) + " chains, r=" +
         std::to_string(c.hamming_r) + ", kind " + std::to_string(static_cast<int>(c.kind)) +
         ", mode " + std::to_string(static_cast<int>(c.mode)) + " " +
         std::to_string(c.burst_size) + "/" + std::to_string(c.burst_spread) + ", seed " +
         std::to_string(c.seed);
}

std::string describe(const std::vector<ErrorLocation>& errors) {
  std::string out = "errors";
  for (const ErrorLocation& e : errors) {
    out += " (" + std::to_string(e.chain) + "," + std::to_string(e.position) + ")";
  }
  return out;
}

/// run() must reproduce run_reference() bit for bit: across two
/// consecutive runs (the streams carry over) and after a reseed.
TEST(SyndromeDifferential, RunMatchesRunReference) {
  constexpr std::size_t kSequences = 24;
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(); ++seed) {
    for (const Geometry& geometry : kGeometries) {
      for (const CodeKind kind : kKinds) {
        for (const Injection& injection : kInjections) {
          ValidationConfig config;
          config.fifo = geometry.fifo;
          config.chain_count = geometry.chains;
          config.hamming_r = geometry.r;
          config.kind = kind;
          config.mode = injection.mode;
          config.burst_size = injection.burst_size;
          config.burst_spread = injection.burst_spread;
          config.rush.resistance_ohm = 0.05;  // ringing wake-up: real upsets
          config.corruption.vulnerability = 0.02;
          config.seed = 100 + seed;
          SCOPED_TRACE(describe(config));
          FastTestbench fast(config);
          FastTestbench reference(config);
          EXPECT_EQ(fast.run(kSequences), reference.run_reference(kSequences));
          EXPECT_EQ(fast.run(kSequences), reference.run_reference(kSequences));
          fast.reseed(7919 * seed);
          reference.reseed(7919 * seed);
          EXPECT_EQ(fast.run(kSequences), reference.run_reference(kSequences));
        }
      }
    }
  }
}

/// Error sets the injector never draws, which pin what its patterns cannot:
///   * same-word doubles and triples, whose syndromes miscorrect a third
///     bit or alias a parity position (so the second pass matters);
///   * repeated locations, which cancel;
///   * x^16 + x^12 + x^5 + 1 laid along the scan-out stream, which the
///     CRC cannot see — the only case that tells the unit-signature layout
///     apart from a transposed one, since the injector's patterns are all
///     detected whatever the layout.
TEST(SyndromeDifferential, AgreesWithProtectorsOffTheInjectorSupport) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(); ++seed) {
    for (const Geometry& geometry : kGeometries) {
      const std::size_t chains = geometry.chains;
      const std::size_t length = geometry.fifo.flop_count() / chains;
      const std::size_t k = HammingCode(geometry.r).k();
      for (const CodeKind kind : kKinds) {
        const SequenceShape shape{kind, geometry.r, chains, length};
        SyndromeEvaluator fast(shape);
        DataFullEvaluator oracle(shape);
        Rng rng(seed * 31 + chains);
        std::size_t escalated = 0;     // flagged, and the recheck still flags
        std::size_t miscorrected = 0;  // recheck clean, but the data is wrong
        const auto check = [&](const std::vector<ErrorLocation>& errors) {
          std::vector<BitVec> data;
          for (std::size_t c = 0; c < chains; ++c) {
            data.push_back(rng.next_bits(length));
          }
          const SequenceOutcome expected = oracle.evaluate(data, errors);
          EXPECT_EQ(fast.evaluate(errors), expected)
              << describe(errors) << " on " << chains << "x" << length << " r="
              << geometry.r << " kind " << static_cast<int>(kind);
          escalated += expected.detected && !expected.recheck_clean;
          miscorrected += expected.recheck_clean && !expected.matches;
          return expected;
        };

        // Same-word doubles and triples at random words.
        for (int trial = 0; trial < 24; ++trial) {
          const std::size_t group = rng.next_below(chains / k);
          const std::size_t position = rng.next_below(length);
          for (const std::size_t count : {2u, 3u}) {
            std::vector<ErrorLocation> errors;
            for (const std::size_t bit : rng.sample_distinct(k, count)) {
              errors.push_back({group * k + bit, position});
            }
            check(errors);
          }
        }
        if (shape.hamming()) {
          EXPECT_GT(escalated, 0u) << "no parity-position alias exercised";
        }
        if (!shape.crc()) {  // with the CRC arm a miscorrection is flagged
          EXPECT_GT(miscorrected, 0u) << "no miscorrection exercised";
        }

        // Repeated locations cancel.
        const ErrorLocation a{rng.next_below(chains), rng.next_below(length)};
        const ErrorLocation b{(a.chain + 1) % chains, a.position};
        EXPECT_TRUE(check({a, a}).matches);
        check({a, b, a});

        // CRC-null pattern at stream offsets {0, 4, 11, 16}: within one
        // shift cycle when it fits, else across cycles.
        const std::size_t stream = chains * length;
        for (const std::size_t anchor :
             {std::size_t{0}, chains - 1, stream / 2 + 3, stream - 17}) {
          std::vector<ErrorLocation> errors;
          for (const std::size_t offset : {0u, 4u, 11u, 16u}) {
            const std::size_t bit = anchor + offset;
            errors.push_back({bit % chains, length - 1 - bit / chains});
          }
          const SequenceOutcome outcome = check(errors);
          if (kind == CodeKind::CrcDetect) {
            EXPECT_FALSE(outcome.detected) << describe(errors) << " is not CRC-null";
            EXPECT_FALSE(outcome.matches);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace retscan
