#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/lfsr.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.next_bool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NextBitsDensity) {
  Rng rng(6);
  const BitVec bits = rng.next_bits(10000);
  EXPECT_NEAR(static_cast<double>(bits.popcount()) / 10000.0, 0.5, 0.03);
}

TEST(Rng, NextBitsStreamIsPinned) {
  // Random patterns (and with them every ATPG pattern set) are next_bits
  // draws, so the bits it produces for a seed must never move. FNV-1a over
  // sizes 0..130, recorded when next_bits still wrote bit by bit.
  Rng rng(2026);
  Fnv1a h;
  for (std::size_t size = 0; size <= 130; ++size) {
    const BitVec bits = rng.next_bits(size);
    h.add(bits.size());
    for (const std::uint64_t word : bits.words()) {
      h.add(word);
    }
  }
  EXPECT_EQ(h.hash, 12957025754912521895ull);
}

TEST(Rng, SampleDistinctProperties) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_distinct(40, 10);
    EXPECT_EQ(sample.size(), 10u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (const auto v : sample) {
      EXPECT_LT(v, 40u);
    }
  }
  // Full population.
  const auto all = rng.sample_distinct(5, 5);
  EXPECT_EQ(std::set<std::size_t>(all.begin(), all.end()).size(), 5u);
  EXPECT_THROW(rng.sample_distinct(3, 4), Error);
}

TEST(Rng, DeriveStreamYieldsIndependentStreams) {
  // Deterministic in both arguments …
  EXPECT_EQ(Rng::derive_stream(42, 7), Rng::derive_stream(42, 7));
  // … distinct across dense stream indices (the parallel-shard pattern) …
  std::set<std::uint64_t> seeds;
  for (std::uint64_t stream = 0; stream < 10000; ++stream) {
    seeds.insert(Rng::derive_stream(1234, stream));
  }
  EXPECT_EQ(seeds.size(), 10000u);
  // … distinct across seeds for a fixed stream, and never a zero seed for
  // the all-zero input (an Lfsr downstream must not stall).
  EXPECT_NE(Rng::derive_stream(1, 0), Rng::derive_stream(2, 0));
  EXPECT_NE(Rng::derive_stream(0, 0), 0u);

  // Streams must not be shifted copies of each other: compare the first
  // outputs of adjacent-stream generators.
  Rng a(Rng::derive_stream(5, 0));
  Rng b(Rng::derive_stream(5, 1));
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Lfsr, RejectsBadConfig) {
  EXPECT_THROW(Lfsr(1, {0}), Error);
  EXPECT_THROW(Lfsr(4, {}), Error);
  EXPECT_THROW(Lfsr(4, {4}), Error);
  EXPECT_THROW(Lfsr(4, {3, 2}, 0), Error);  // dead state
}

class LfsrMaximalPeriod : public ::testing::TestWithParam<unsigned> {};

TEST_P(LfsrMaximalPeriod, PeriodIs2ToNMinus1) {
  const unsigned width = GetParam();
  Lfsr lfsr = Lfsr::maximal(width);
  EXPECT_EQ(lfsr.period(), (std::size_t{1} << width) - 1);
}

INSTANTIATE_TEST_SUITE_P(Widths, LfsrMaximalPeriod,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                                           13u, 14u, 15u, 16u));

TEST(Lfsr, NeverReachesZeroState) {
  Lfsr lfsr = Lfsr::maximal(8);
  for (int i = 0; i < 300; ++i) {
    lfsr.step();
    EXPECT_NE(lfsr.state(), 0u);
  }
}

TEST(Lfsr, BitsOutputsMatchSteps) {
  Lfsr a = Lfsr::maximal(12, 0x5a5);
  Lfsr b = Lfsr::maximal(12, 0x5a5);
  const BitVec bits = a.bits(64);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(bits.get(i), b.step());
  }
}

TEST(Lfsr, MaximalUnknownWidthThrows) {
  EXPECT_THROW(Lfsr::maximal(21), Error);
}

}  // namespace
}  // namespace retscan
