#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "inject/injector.hpp"
#include "power/corruption.hpp"
#include "power/pg_fsm.hpp"
#include "power/rush_current.hpp"
#include "util/error.hpp"

namespace retscan {
namespace {

TEST(ErrorInjector, SingleErrorsCoverTheFabric) {
  ErrorInjector injector(8, 13, 42);
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (int i = 0; i < 5000; ++i) {
    const ErrorLocation loc = injector.random_single();
    EXPECT_LT(loc.chain, 8u);
    EXPECT_LT(loc.position, 13u);
    seen.emplace(loc.chain, loc.position);
  }
  // LFSR-driven positions should reach (nearly) every flop.
  EXPECT_GE(seen.size(), 100u);
}

TEST(ErrorInjector, MultipleErrorsAreDistinct) {
  ErrorInjector injector(8, 13, 7);
  for (int trial = 0; trial < 100; ++trial) {
    const auto errors = injector.random_multiple(5);
    EXPECT_EQ(errors.size(), 5u);
    std::set<std::pair<std::size_t, std::size_t>> unique;
    for (const auto& e : errors) {
      unique.emplace(e.chain, e.position);
    }
    EXPECT_EQ(unique.size(), 5u);
  }
}

TEST(ErrorInjector, BurstIsClustered) {
  ErrorInjector injector(80, 13, 9);
  for (int trial = 0; trial < 50; ++trial) {
    const auto errors = injector.clustered_burst(4, 2);
    EXPECT_EQ(errors.size(), 4u);
    // All errors within a window of span 5 (mod wrap) of each other.
    for (const auto& e : errors) {
      const auto dc = (e.chain + 80 - errors[0].chain) % 80;
      EXPECT_TRUE(dc <= 4 || dc >= 76) << "chain spread too wide: " << dc;
    }
  }
}

TEST(ErrorInjector, RejectsOversizedRequests) {
  ErrorInjector injector(2, 3, 1);
  EXPECT_THROW(injector.random_multiple(7), Error);
  EXPECT_THROW(injector.clustered_burst(7), Error);
}

// Each draw is a pure function of the (row, column) LFSR states, so some
// requests that fit the fabric can never be met: the draws cycle first.
// Those calls throw, naming the count, window and fabric, instead of
// spinning forever.
TEST(ErrorInjector, UnreachableSetsThrowInsteadOfSpinning) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    // The whole 4x5 window of a 4x16 fabric.
    ErrorInjector full_window(4, 16, seed);
    try {
      full_window.clustered_burst(20, 2);
      ADD_FAILURE() << "seed " << seed << ": full-window burst returned";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("20 distinct locations in a 4x5 window "
                                               "of the 4x16"),
                std::string::npos)
          << error.what();
    }
    // A 4x4 fabric (a 2x6 FIFO on 4 chains) at the default burst 4 / spread
    // 2: both coordinates come from the row LFSR, which never yields four
    // distinct cells.
    ErrorInjector square(4, 4, seed);
    EXPECT_THROW(square.clustered_burst(4, 2), Error) << seed;
  }
}

// Every call that returns draws exactly the locations it always drew: a
// digest of bursts and scattered sets on three geometries.
TEST(ErrorInjector, ReturnedLocationsArePinned) {
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a 64
  const auto mix = [&](const std::vector<ErrorLocation>& errors) {
    for (const ErrorLocation& loc : errors) {
      for (const std::uint64_t v : {std::uint64_t{loc.chain}, std::uint64_t{loc.position}}) {
        digest = (digest ^ v) * 1099511628211ull;
      }
    }
  };
  ErrorInjector burst(80, 13, 9), scattered(8, 13, 7), narrow(4, 16, 3);
  for (int i = 0; i < 200; ++i) {
    mix(burst.clustered_burst(4, 2));
    mix(scattered.random_multiple(6));
    mix(narrow.clustered_burst(4, 2));
  }
  EXPECT_EQ(digest, 0x7d1f0a0169c06a37ull);
}

TEST(RushCurrent, UnderdampedDefaultsRingAndSettle) {
  const RushCurrentModel model{RushParameters{}};
  EXPECT_TRUE(model.underdamped());
  // Voltage starts at 0 and converges to Vdd.
  EXPECT_NEAR(model.domain_voltage(0.0), 0.0, 1e-9);
  EXPECT_NEAR(model.domain_voltage(10000.0), 1.2, 1e-3);
  // Underdamped response overshoots Vdd at some point.
  double peak_v = 0;
  for (int i = 1; i < 2000; ++i) {
    peak_v = std::max(peak_v, model.domain_voltage(i * 0.5));
  }
  EXPECT_GT(peak_v, 1.2);
  EXPECT_GT(model.peak_current(), 0.0);
  EXPECT_GT(model.peak_droop(), 0.0);
  EXPECT_GT(model.settle_time_ns(0.05), 0.0);
}

TEST(RushCurrent, StaggeringReducesPeakAndStretchesSettle) {
  RushParameters fast;
  RushParameters staged = fast;
  staged.stagger_stages = 4;
  const RushCurrentModel m1{fast};
  const RushCurrentModel m4{staged};
  EXPECT_NEAR(m4.peak_droop(), m1.peak_droop() / 4.0, 1e-9);
  EXPECT_NEAR(m4.peak_current(), m1.peak_current() / 4.0, 1e-9);
  EXPECT_GT(m4.settle_time_ns(), m1.settle_time_ns());
}

TEST(RushCurrent, MoreResistanceMoreDamping) {
  RushParameters soft;
  soft.resistance_ohm = 5.0;
  const RushCurrentModel damped{soft};
  RushParameters hard;
  hard.resistance_ohm = 0.1;
  const RushCurrentModel ringing{hard};
  EXPECT_GT(damped.damping_ratio(), ringing.damping_ratio());
  EXPECT_GT(ringing.peak_droop(), damped.peak_droop());
}

TEST(RushCurrent, RejectsBadParameters) {
  RushParameters bad;
  bad.capacitance_nf = 0.0;
  EXPECT_THROW(RushCurrentModel{bad}, Error);
  RushParameters zero_stage;
  zero_stage.stagger_stages = 0;
  EXPECT_THROW(RushCurrentModel{zero_stage}, Error);
}

TEST(Corruption, ProbabilityGrowsWithDroop) {
  RushParameters mild;
  mild.resistance_ohm = 4.0;  // heavily damped, small droop
  RushParameters severe;
  severe.resistance_ohm = 0.05;  // ringing, large droop
  const CorruptionParameters params;
  const CorruptionModel low(params, RushCurrentModel{mild});
  const CorruptionModel high(params, RushCurrentModel{severe});
  EXPECT_LT(low.upset_probability(), high.upset_probability());
  EXPECT_GE(low.upset_probability(), 0.0);
  EXPECT_LE(high.upset_probability(), params.vulnerability + 1e-12);
}

TEST(Corruption, StaggeredBaselineLowersUpsetRate) {
  RushParameters raw;
  raw.resistance_ohm = 0.2;
  RushParameters staged = raw;
  staged.stagger_stages = 8;
  const CorruptionParameters params;
  const CorruptionModel fast(params, RushCurrentModel{raw});
  const CorruptionModel slow(params, RushCurrentModel{staged});
  EXPECT_LT(slow.upset_probability(), fast.upset_probability());
}

TEST(Corruption, SampleCountTracksExpectation) {
  RushParameters severe;
  severe.resistance_ohm = 0.05;
  CorruptionParameters params;
  params.vulnerability = 0.05;
  const CorruptionModel model(params, RushCurrentModel{severe});
  Rng rng(21);
  double total = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    total += static_cast<double>(model.sample(80, 13, rng).size());
  }
  const double mean = total / trials;
  EXPECT_NEAR(mean, model.expected_upsets(1040), model.expected_upsets(1040) * 0.25 + 1.0);
}

TEST(Corruption, SampledLocationsDistinctAndInRange) {
  RushParameters severe;
  severe.resistance_ohm = 0.05;
  CorruptionParameters params;
  params.vulnerability = 0.03;
  const CorruptionModel model(params, RushCurrentModel{severe});
  Rng rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const auto errors = model.sample(16, 13, rng);
    std::set<std::pair<std::size_t, std::size_t>> unique;
    for (const auto& e : errors) {
      EXPECT_LT(e.chain, 16u);
      EXPECT_LT(e.position, 13u);
      unique.emplace(e.chain, e.position);
    }
    EXPECT_EQ(unique.size(), errors.size());
  }
}

TEST(PgFsm, ConventionalSkipsCoding) {
  PgControllerFsm fsm(PgControllerFsm::Flavor::Conventional);
  EXPECT_EQ(fsm.state(), PgState::Active);
  fsm.on_event(PgEvent::SleepRequest);
  EXPECT_EQ(fsm.state(), PgState::SleepEntry);  // no Encoding stop
  fsm.on_event(PgEvent::SequenceDone);
  EXPECT_EQ(fsm.state(), PgState::Sleep);
  fsm.on_event(PgEvent::WakeRequest);
  EXPECT_EQ(fsm.state(), PgState::WakeUp);
  fsm.on_event(PgEvent::SequenceDone);
  EXPECT_EQ(fsm.state(), PgState::Active);  // no Decoding stop
}

TEST(PgFsm, ProposedFullPathThroughCorrection) {
  PgControllerFsm fsm(PgControllerFsm::Flavor::Proposed);
  fsm.on_event(PgEvent::SleepRequest);
  EXPECT_EQ(fsm.state(), PgState::Encoding);
  fsm.on_event(PgEvent::SequenceDone);
  EXPECT_EQ(fsm.state(), PgState::SleepEntry);
  fsm.on_event(PgEvent::SequenceDone);
  EXPECT_EQ(fsm.state(), PgState::Sleep);
  fsm.on_event(PgEvent::WakeRequest);
  fsm.on_event(PgEvent::SequenceDone);
  EXPECT_EQ(fsm.state(), PgState::Decoding);
  fsm.on_event(PgEvent::ErrorsDetected);
  EXPECT_EQ(fsm.state(), PgState::Correcting);
  fsm.on_event(PgEvent::Corrected);
  EXPECT_EQ(fsm.state(), PgState::Active);
}

TEST(PgFsm, UncorrectableFlagsError) {
  PgControllerFsm fsm(PgControllerFsm::Flavor::Proposed);
  fsm.on_event(PgEvent::SleepRequest);
  fsm.on_event(PgEvent::SequenceDone);
  fsm.on_event(PgEvent::SequenceDone);
  fsm.on_event(PgEvent::WakeRequest);
  fsm.on_event(PgEvent::SequenceDone);
  fsm.on_event(PgEvent::Uncorrectable);
  EXPECT_EQ(fsm.state(), PgState::ErrorFlagged);
  // Terminal until reset.
  fsm.on_event(PgEvent::SleepRequest);
  EXPECT_EQ(fsm.state(), PgState::ErrorFlagged);
  fsm.reset();
  EXPECT_EQ(fsm.state(), PgState::Active);
}

TEST(PgFsm, IllegalEventsIgnored) {
  PgControllerFsm fsm(PgControllerFsm::Flavor::Proposed);
  fsm.on_event(PgEvent::WakeRequest);  // not asleep
  EXPECT_EQ(fsm.state(), PgState::Active);
  fsm.on_event(PgEvent::Corrected);
  EXPECT_EQ(fsm.state(), PgState::Active);
  EXPECT_EQ(fsm.history().size(), 1u);
}

TEST(PgFsm, HistoryRecordsPath) {
  PgControllerFsm fsm(PgControllerFsm::Flavor::Proposed);
  fsm.on_event(PgEvent::SleepRequest);
  fsm.on_event(PgEvent::SequenceDone);
  const auto& history = fsm.history();
  ASSERT_EQ(history.size(), 3u);
  EXPECT_EQ(history[0], PgState::Active);
  EXPECT_EQ(history[1], PgState::Encoding);
  EXPECT_EQ(history[2], PgState::SleepEntry);
  EXPECT_EQ(pg_state_name(history[1]), "encoding");
}

}  // namespace
}  // namespace retscan
