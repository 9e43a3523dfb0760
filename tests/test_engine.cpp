// Cross-checks of the bit-parallel SimEngine facades: PackedSim lane 0 must
// match the scalar Simulator bit-exactly over randomized netlists (including
// power cycles and retention corruption), lanes must be fully independent,
// and the packed campaign layers must agree with their scalar counterparts.
// Also covers the power-gating corner cases: RETAIN held across multiple
// power cycles, power_off on an already-off domain, and the activity-report
// guards.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/scan_test.hpp"
#include "circuits/fifo.hpp"
#include "circuits/generators.hpp"
#include "core/protected_design.hpp"
#include "netlist/netlist.hpp"
#include "scan/scan_insert.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "testbench/harness.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace retscan {
namespace {

/// Random layered netlist: gates over primary inputs, a rank of flops, more
/// gates over flop outputs, a second rank of flops, outputs. Some flops are
/// retention scan flops in the gated domain so that power cycles and
/// balloon-latch traffic are exercised.
struct RandomDesign {
  Netlist nl;
  std::vector<NetId> data_inputs;
  std::vector<CellId> rdffs;
};

RandomDesign random_design(Rng& rng) {
  RandomDesign d;
  Netlist& nl = d.nl;
  const NetId se = nl.add_input("se");
  const NetId retain = nl.add_input("retain");
  std::vector<NetId> pool;
  for (int i = 0; i < 4; ++i) {
    const NetId in = nl.add_input("a" + std::to_string(i));
    d.data_inputs.push_back(in);
    pool.push_back(in);
  }
  auto random_gate = [&]() {
    const NetId a = pool[rng.next_below(pool.size())];
    const NetId b = pool[rng.next_below(pool.size())];
    switch (rng.next_below(7)) {
      case 0: return nl.n_and(a, b);
      case 1: return nl.n_or(a, b);
      case 2: return nl.n_xor(a, b);
      case 3: return nl.n_nand(a, b);
      case 4: return nl.n_nor(a, b);
      case 5: return nl.n_not(a);
      default: return nl.n_mux(a, b, pool[rng.next_below(pool.size())]);
    }
  };
  for (int layer = 0; layer < 2; ++layer) {
    for (int g = 0; g < 12; ++g) {
      pool.push_back(random_gate());
    }
    NetId scan_prev = se;  // arbitrary existing net as the first SI
    for (int f = 0; f < 4; ++f) {
      const NetId q = nl.n_dff(pool[rng.next_below(pool.size())]);
      const CellId flop = nl.driver(q);
      if (rng.next_bool(0.5)) {
        nl.convert_flop(flop, CellType::Rdff, {scan_prev, se, retain});
        nl.set_domain(flop, 1);
        d.rdffs.push_back(flop);
        scan_prev = q;
      }
      pool.push_back(q);
    }
  }
  // A couple of combinational cells in the gated domain (isolation clamps).
  for (int g = 0; g < 4; ++g) {
    const NetId y = random_gate();
    nl.set_domain(nl.driver(y), 1);
    pool.push_back(y);
  }
  nl.add_output("y0", pool[pool.size() - 1]);
  nl.add_output("y1", nl.n_xor_tree({pool[4], pool[7], pool[pool.size() - 2]}));
  return d;
}

/// Lane 0 of a broadcast-stimulus PackedSim must match the scalar Simulator
/// net-for-net and cycle-for-cycle, through power cycles, retention upsets
/// and RETAIN traffic. (Zero power-off garbage on both sides: the scalar and
/// packed facades consume an Rng differently by design.)
TEST(PackedSim, Lane0MatchesScalarOnRandomizedCircuits) {
  Rng build_rng(1234);
  for (int trial = 0; trial < 5; ++trial) {
    RandomDesign d = random_design(build_rng);
    Simulator scalar(d.nl);
    PackedSim packed(d.nl);
    Rng stim(8000 + trial);
    scalar.set_input("se", false);
    packed.set_input_all("se", false);
    scalar.set_input("retain", false);
    packed.set_input_all("retain", false);

    auto compare_all = [&](int cycle) {
      for (NetId n = 0; n < d.nl.net_count(); ++n) {
        ASSERT_EQ(scalar.net_value(n), packed.net_value(n, 0))
            << "trial " << trial << " cycle " << cycle << " net " << n;
        ASSERT_EQ(scalar.net_value(n), packed.net_value(n, 17))
            << "broadcast lanes diverged, net " << n;
      }
      ASSERT_EQ(scalar.flop_states(), packed.flop_states(0));
    };

    for (int cycle = 0; cycle < 80; ++cycle) {
      for (const NetId in : d.data_inputs) {
        const bool v = stim.next_bool(0.5);
        scalar.set_input(in, v);
        packed.set_input_all(in, v);
      }
      scalar.step();
      packed.step();
      compare_all(cycle);

      if (cycle % 20 == 19 && !d.rdffs.empty()) {
        // Save, sleep, corrupt one balloon latch, wake, restore.
        scalar.set_input("retain", true);
        packed.set_input_all("retain", true);
        scalar.step();
        packed.step();
        scalar.power_off(1);
        packed.power_off(1);
        compare_all(cycle);
        const CellId victim = d.rdffs[stim.next_below(d.rdffs.size())];
        scalar.flip_retention(victim);
        packed.flip_retention(victim, kAllLanes);
        scalar.power_on(1);
        packed.power_on(1);
        scalar.set_input("retain", false);
        packed.set_input_all("retain", false);
        scalar.step();
        packed.step();
        compare_all(cycle);
      }
    }
  }
}

/// Each lane is a fully independent simulation: lane b of a per-lane-driven
/// PackedSim must match a dedicated scalar Simulator fed lane b's stimulus.
TEST(PackedSim, LanesAreIndependent) {
  const Netlist nl = make_shift_register(8);
  PackedSim packed(nl);
  std::vector<std::unique_ptr<Simulator>> scalars;
  for (std::size_t lane = 0; lane < PackedSim::lane_count(); ++lane) {
    scalars.push_back(std::make_unique<Simulator>(nl));
  }
  Rng rng(42);
  const NetId sin = nl.input_net("sin");
  const NetId sout = nl.output_net("sout");
  for (int cycle = 0; cycle < 40; ++cycle) {
    const LaneWord word = rng.next_u64();
    packed.set_input(sin, word);
    for (std::size_t lane = 0; lane < scalars.size(); ++lane) {
      scalars[lane]->set_input(sin, (word >> lane & 1u) != 0);
    }
    packed.step();
    LaneWord expected = 0;
    for (std::size_t lane = 0; lane < scalars.size(); ++lane) {
      scalars[lane]->step();
      expected |= LaneWord{scalars[lane]->net_value(sout)} << lane;
    }
    ASSERT_EQ(packed.net_lanes(sout), expected) << "cycle " << cycle;
  }
}

class RetainCornerFixture : public ::testing::Test {
 protected:
  RetainCornerFixture() {
    d_ = nl_.add_input("d");
    si_ = nl_.add_input("si");
    se_ = nl_.add_input("se");
    retain_ = nl_.add_input("retain");
    const NetId q = nl_.n_dff(d_);
    flop_ = nl_.driver(q);
    nl_.convert_flop(flop_, CellType::Rdff, {si_, se_, retain_});
    nl_.set_domain(flop_, 1);
    nl_.add_output("q", q);
    sim_ = std::make_unique<Simulator>(nl_);
    sim_->set_input("se", false);
    sim_->set_input("si", false);
    sim_->set_input("retain", false);
  }

  Netlist nl_;
  NetId d_, si_, se_, retain_;
  CellId flop_;
  std::unique_ptr<Simulator> sim_;
};

/// RETAIN held asserted across several power cycles: the balloon latch
/// samples exactly once (on the rising edge) and must not re-sample from the
/// garbage master during intermediate wake windows.
TEST_F(RetainCornerFixture, RetainHeldAcrossMultiplePowerCycles) {
  sim_->set_input("d", true);
  sim_->step();
  ASSERT_TRUE(sim_->output("q"));

  sim_->set_input("retain", true);
  sim_->step();  // save edge
  ASSERT_TRUE(sim_->retention_state(flop_));

  for (int cycle = 0; cycle < 3; ++cycle) {
    sim_->power_off(1);
    EXPECT_FALSE(sim_->output("q"));
    sim_->power_on(1);
    // Powered clocks with RETAIN still high: master holds (clock gated),
    // latch must not re-sample the zeroed master.
    sim_->step();
    sim_->step();
    EXPECT_TRUE(sim_->retention_state(flop_)) << "latch lost on cycle " << cycle;
  }

  sim_->set_input("retain", false);
  sim_->set_input("d", false);
  sim_->step();  // restore edge
  EXPECT_TRUE(sim_->output("q"));  // the value saved before the first cycle
}

/// power_off on an already-off domain is a no-op for the retention latches
/// and keeps the domain clamped; power_on still recovers.
TEST_F(RetainCornerFixture, PowerOffOnAlreadyOffDomain) {
  sim_->set_input("d", true);
  sim_->step();
  sim_->set_input("retain", true);
  sim_->step();
  sim_->power_off(1);
  ASSERT_FALSE(sim_->domain_powered(1));
  ASSERT_TRUE(sim_->retention_state(flop_));

  Rng rng(5);
  sim_->power_off(1, &rng);  // second cut while already asleep
  EXPECT_FALSE(sim_->domain_powered(1));
  EXPECT_FALSE(sim_->output("q"));                // still clamped
  EXPECT_TRUE(sim_->retention_state(flop_));     // balloon survives

  sim_->power_on(1);
  sim_->set_input("retain", false);
  sim_->step();
  EXPECT_TRUE(sim_->output("q"));  // restored despite the double cut
}

TEST(ActivityReport, AveragePowerGuards) {
  ActivityReport report;
  report.dynamic_energy_pj = 12.5;
  report.steps = 0;
  EXPECT_EQ(report.average_power_mw(10.0), 0.0);  // no steps: no inf/NaN
  report.steps = 10;
  EXPECT_EQ(report.average_power_mw(0.0), 0.0);   // degenerate clock
  EXPECT_EQ(report.average_power_mw(-1.0), 0.0);
  EXPECT_GT(report.average_power_mw(10.0), 0.0);
}

TEST(LaneHelpers, PackUnpackRoundTrip) {
  Rng rng(77);
  std::vector<BitVec> rows;
  for (int lane = 0; lane < 23; ++lane) {
    rows.push_back(rng.next_bits(57));
  }
  const std::vector<std::uint64_t> words = pack_lanes(rows);
  ASSERT_EQ(words.size(), 57u);
  const std::vector<BitVec> back = unpack_lanes(words, rows.size());
  for (std::size_t lane = 0; lane < rows.size(); ++lane) {
    EXPECT_EQ(back[lane], rows[lane]);
  }
}

/// The packed injection session must agree with the scalar RetentionSession
/// lane for lane: 64 different single upsets run in one packed sleep/wake
/// cycle, each checked against its own scalar cycle.
TEST(PackedRetentionSession, MatchesScalarPerLane) {
  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);
  const std::size_t l = design.chain_length();

  // 64 distinct upset sets: mostly singles, a few multi-bit bursts.
  ErrorInjector injector(config.chain_count, l, 3);
  std::vector<std::vector<ErrorLocation>> upsets(PackedSim::lane_count());
  for (std::size_t lane = 0; lane < upsets.size(); ++lane) {
    if (lane % 8 == 7) {
      upsets[lane] = injector.clustered_burst(3, 1);
    } else {
      upsets[lane] = {injector.random_single()};
    }
  }
  upsets[20].clear();  // one clean lane

  PackedRetentionSession packed(design);
  const auto outcome = packed.sleep_wake_cycle(upsets, nullptr);

  for (std::size_t lane = 0; lane < upsets.size(); ++lane) {
    RetentionSession scalar(design);
    const auto expected = scalar.sleep_wake_cycle(upsets[lane], nullptr);
    EXPECT_EQ((outcome.errors_detected >> lane & 1u) != 0, expected.errors_detected)
        << "lane " << lane;
    EXPECT_EQ((outcome.recheck_clean >> lane & 1u) != 0, expected.recheck_clean)
        << "lane " << lane;
  }
}

/// Doubles a pattern set so the packed paths exercise more than one
/// 64-lane batch.
std::vector<BitVec> doubled_patterns(const std::vector<BitVec>& patterns) {
  std::vector<BitVec> out = patterns;
  out.insert(out.end(), patterns.begin(), patterns.end());
  return out;
}

/// The packed delivery as one shard on a one-thread pool: one PackedSim
/// walks every batch. Shard sizes floor to whole 64-lane batches, so the
/// request rounds the pattern count up.
ScanTestResult deliver_packed_one_shard(const ScanPorts& ports,
                                        const CombinationalFrame& frame,
                                        const std::vector<BitVec>& patterns) {
  ThreadPool one(1);
  return deliver_scan_test_packed(ports, frame, patterns, one,
                                  patterns.size() + PackedSim::lane_count() - 1);
}

/// Packed parallel-pattern scan delivery agrees with the scalar tester path
/// on a full ATPG pattern set through the full-width chains of a plain
/// scanned design (in a ProtectedDesign the si ports are superseded by the
/// monitor feedback muxes, so full-width delivery only applies pre-monitor).
TEST(PackedScanTest, MatchesScalarFullWidthDelivery) {
  Netlist nl = make_fifo(FifoSpec{32, 2});
  ScanInsertionOptions sopt;
  sopt.chain_count = 8;
  sopt.style = ScanStyle::Retention;
  const ScanChains chains = insert_scan(nl, sopt);

  CombinationalFrame frame(nl);
  frame.constrain("se", false);
  frame.constrain("retain", false);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions options;
  options.random_patterns = 128;
  options.run_podem = false;
  const AtpgResult atpg = run_atpg(frame, faults, options);
  ASSERT_GT(atpg.patterns.size(), 0u);
  const std::vector<BitVec> patterns = doubled_patterns(atpg.patterns);
  ASSERT_GT(patterns.size(), 64u);

  const ScanPorts ports = ScanPorts::full_width(chains);
  Simulator scalar_sim(nl);
  const ScanTestResult scalar = deliver_scan_test(scalar_sim, ports, frame, patterns);
  const ScanTestResult packed = deliver_packed_one_shard(ports, frame, patterns);
  EXPECT_EQ(packed.patterns_applied, scalar.patterns_applied);
  EXPECT_EQ(packed.mismatches, scalar.mismatches);
  EXPECT_TRUE(scalar.all_passed());
  EXPECT_TRUE(packed.all_passed());
}

/// Same agreement through the narrow Fig. 5(b) test-mode concatenation of a
/// ProtectedDesign.
TEST(PackedScanTest, MatchesScalarTestModeDelivery) {
  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);

  CombinationalFrame frame(design.netlist());
  for (const char* name : {"se", "retain", "mon_en", "mon_decode", "mon_clear",
                           "sig_capture", "sig_compare", "test_mode"}) {
    frame.constrain(name, false);
  }
  const auto faults = collapse_faults(design.netlist(), enumerate_faults(design.netlist()));
  AtpgOptions options;
  options.random_patterns = 128;
  options.run_podem = false;
  const AtpgResult atpg = run_atpg(frame, faults, options);
  ASSERT_GT(atpg.patterns.size(), 0u);
  const std::vector<BitVec> patterns = doubled_patterns(atpg.patterns);
  ASSERT_GT(patterns.size(), 64u);

  const ScanPorts ports = ScanPorts::test_mode_of(design);
  RetentionSession session(design);
  const ScanTestResult scalar = deliver_scan_test(session.sim(), ports, frame, patterns);
  const ScanTestResult packed = deliver_packed_one_shard(ports, frame, patterns);
  EXPECT_EQ(packed.patterns_applied, scalar.patterns_applied);
  EXPECT_EQ(packed.mismatches, scalar.mismatches);
  EXPECT_TRUE(scalar.all_passed());
  EXPECT_TRUE(packed.all_passed());
}

/// The packed structural campaign reproduces the paper's invariants: every
/// single error detected and corrected, no silent corruption — including a
/// partial tail batch.
TEST(StructuralTestbench, PackedCampaignInvariants) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = InjectionMode::SingleRandom;
  config.seed = 99;
  StructuralTestbench tb(config);
  const ValidationStats stats = tb.run_packed(130);  // 64 + 64 + 2
  EXPECT_EQ(stats.sequences, 130u);
  EXPECT_EQ(stats.sequences_with_errors, 130u);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_DOUBLE_EQ(stats.correction_rate(), 1.0);
  EXPECT_EQ(stats.comparator_mismatches, 0u);
  EXPECT_EQ(stats.silent_corruptions, 0u);
}

TEST(StructuralTestbench, PackedBurstsDetectedNotSilent) {
  ValidationConfig config;
  config.fifo = FifoSpec{32, 2};
  config.chain_count = 8;
  config.mode = InjectionMode::MultipleBurst;
  config.burst_size = 4;
  config.burst_spread = 1;
  config.seed = 5;
  StructuralTestbench tb(config);
  const ValidationStats stats = tb.run_packed(64);
  EXPECT_DOUBLE_EQ(stats.detection_rate(), 1.0);
  EXPECT_EQ(stats.silent_corruptions, 0u);
  EXPECT_LT(stats.correction_rate(), 0.5);  // bursts defeat SEC correction
}

}  // namespace
}  // namespace retscan
