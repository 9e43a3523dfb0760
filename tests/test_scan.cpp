#include "scan/scan_insert.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include "circuits/fifo.hpp"
#include "circuits/generators.hpp"
#include "scan/scan_io.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

TEST(ScanInsert, ChainPartitioning) {
  Netlist nl = make_counter(12);
  ScanInsertionOptions options;
  options.chain_count = 3;
  const ScanChains chains = insert_scan(nl, options);
  EXPECT_EQ(chains.chain_count(), 3u);
  EXPECT_EQ(chains.length(), 4u);
  EXPECT_EQ(chains.flop_count(), 12u);
  // Every flop now has a scan variant.
  for (const CellId flop : nl.flops()) {
    EXPECT_EQ(nl.cell(flop).type, CellType::Rdff);
    EXPECT_EQ(nl.domain(flop), kGatedDomain);
  }
}

TEST(ScanInsert, LocateIsConsistent) {
  Netlist nl = make_counter(12);
  ScanInsertionOptions options;
  options.chain_count = 4;
  const ScanChains chains = insert_scan(nl, options);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t p = 0; p < 3; ++p) {
      const CellId flop = chains.at(c, p);
      const auto [cc, pp] = chains.locate(flop);
      EXPECT_EQ(cc, c);
      EXPECT_EQ(pp, p);
    }
  }
}

TEST(ScanInsert, InterleavedAssignment) {
  Netlist nl = make_counter(8);
  const auto flops_before = nl.flops();
  ScanInsertionOptions options;
  options.chain_count = 2;
  options.assignment = ChainAssignment::Interleaved;
  const ScanChains chains = insert_scan(nl, options);
  // Flop i lands in chain i % 2 at position i / 2.
  for (std::size_t i = 0; i < 8; ++i) {
    const auto [c, p] = chains.locate(flops_before[i]);
    EXPECT_EQ(c, i % 2);
    EXPECT_EQ(p, i / 2);
  }
}

TEST(ScanInsert, RejectsBadConfigs) {
  {
    Netlist nl = make_counter(10);
    ScanInsertionOptions options;
    options.chain_count = 4;  // 10 % 4 != 0
    EXPECT_THROW(insert_scan(nl, options), Error);
  }
  {
    Netlist nl = make_counter(4);
    ScanInsertionOptions options;
    options.chain_count = 5;  // more chains than flops
    EXPECT_THROW(insert_scan(nl, options), Error);
  }
  {
    Netlist nl = make_counter(4);
    ScanInsertionOptions options;
    options.chain_count = 2;
    insert_scan(nl, options);
    EXPECT_THROW(insert_scan(nl, options), Error);  // already scanned
  }
}

TEST(ScanInsert, ScanStyleUsesSdffWithoutRetain) {
  Netlist nl = make_counter(6);
  ScanInsertionOptions options;
  options.chain_count = 2;
  options.style = ScanStyle::Scan;
  const ScanChains chains = insert_scan(nl, options);
  EXPECT_EQ(chains.retain, kNullNet);
  for (const CellId flop : nl.flops()) {
    EXPECT_EQ(nl.cell(flop).type, CellType::Sdff);
  }
}

/// The DFT guarantee: with se=0 the scanned design behaves exactly like the
/// original. Compare a scanned counter against a pristine one cycle by
/// cycle.
TEST(ScanInsert, FunctionPreservedWhenScanDisabled) {
  Netlist plain = make_counter(8);
  Netlist scanned = make_counter(8);
  ScanInsertionOptions options;
  options.chain_count = 2;
  const ScanChains chains = insert_scan(scanned, options);
  Simulator sim_plain(plain);
  Simulator sim_scanned(scanned);
  sim_scanned.set_input(chains.se, false);
  sim_scanned.set_input(chains.retain, false);
  Rng rng(17);
  for (int cycle = 0; cycle < 200; ++cycle) {
    const bool en = rng.next_bool(0.7);
    sim_plain.set_input("en", en);
    sim_scanned.set_input("en", en);
    sim_plain.step();
    sim_scanned.step();
    for (int b = 0; b < 8; ++b) {
      const std::string port = "q" + std::to_string(b);
      ASSERT_EQ(sim_plain.output(port), sim_scanned.output(port))
          << "cycle " << cycle << " bit " << b;
    }
  }
}

class ScanIoFixture : public ::testing::Test {
 protected:
  ScanIoFixture() : nl_(make_counter(12)) {
    ScanInsertionOptions options;
    options.chain_count = 3;
    chains_ = insert_scan(nl_, options);
    sim_ = std::make_unique<Simulator>(nl_);
    sim_->set_input(chains_.retain, false);
    sim_->set_input("en", false);
  }

  Netlist nl_;
  ScanChains chains_;
  std::unique_ptr<Simulator> sim_;
};

TEST_F(ScanIoFixture, LoadThenSnapshotMatches) {
  Rng rng(23);
  std::vector<BitVec> data;
  for (int c = 0; c < 3; ++c) {
    data.push_back(rng.next_bits(4));
  }
  scan_load(*sim_, chains_, data);
  EXPECT_EQ(scan_snapshot(*sim_, chains_), data);
}

TEST_F(ScanIoFixture, LoadThenUnloadRoundTrip) {
  Rng rng(29);
  std::vector<BitVec> data;
  for (int c = 0; c < 3; ++c) {
    data.push_back(rng.next_bits(4));
  }
  scan_load(*sim_, chains_, data);
  const auto unloaded = scan_unload(*sim_, chains_);
  EXPECT_EQ(unloaded, data);
}

TEST_F(ScanIoFixture, UnloadWithRefillLeavesRefillBehind) {
  Rng rng(31);
  std::vector<BitVec> data, refill;
  for (int c = 0; c < 3; ++c) {
    data.push_back(rng.next_bits(4));
    refill.push_back(rng.next_bits(4));
  }
  scan_load(*sim_, chains_, data);
  const auto unloaded = scan_unload(*sim_, chains_, refill);
  EXPECT_EQ(unloaded, data);
  EXPECT_EQ(scan_snapshot(*sim_, chains_), refill);
}

TEST_F(ScanIoFixture, RestoreWritesDirectly) {
  Rng rng(37);
  std::vector<BitVec> data;
  for (int c = 0; c < 3; ++c) {
    data.push_back(rng.next_bits(4));
  }
  scan_restore(*sim_, chains_, data);
  EXPECT_EQ(scan_snapshot(*sim_, chains_), data);
}

TEST(ScanIo, FlattenUnflattenRoundTrip) {
  Rng rng(41);
  std::vector<BitVec> data;
  for (int c = 0; c < 5; ++c) {
    data.push_back(rng.next_bits(7));
  }
  const BitVec flat = flatten_chain_data(data);
  EXPECT_EQ(flat.size(), 35u);
  EXPECT_EQ(unflatten_chain_data(flat, 5), data);
  EXPECT_THROW(unflatten_chain_data(flat, 4), Error);
}

/// Circulating a chain for exactly l cycles returns every bit to its
/// original position — the property the paper's encode/decode passes rely
/// on. This is the loopback the monitor muxes implement; here we emulate it
/// through scan_shift_cycle.
TEST_F(ScanIoFixture, CirculationRoundTrip) {
  Rng rng(43);
  std::vector<BitVec> data;
  for (int c = 0; c < 3; ++c) {
    data.push_back(rng.next_bits(4));
  }
  scan_restore(*sim_, chains_, data);
  for (std::size_t t = 0; t < chains_.length(); ++t) {
    const BitVec so = scan_outs(*sim_, chains_);
    scan_shift_cycle(*sim_, chains_, so);  // feed so back into si
  }
  EXPECT_EQ(scan_snapshot(*sim_, chains_), data);
}

TEST(TestConcat, GroupsAreStrided) {
  const TestModeConfig config = make_test_concatenation(16, 4);
  ASSERT_EQ(config.groups.size(), 4u);
  // Fig. 5(b): group g = {g, g+4, g+8, g+12}.
  for (std::size_t g = 0; g < 4; ++g) {
    ASSERT_EQ(config.groups[g].size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(config.groups[g][i], g + 4 * i);
    }
  }
  EXPECT_EQ(config.concatenated_length(13), 52u);
}

TEST(TestConcat, RejectsIndivisible) {
  EXPECT_THROW(make_test_concatenation(10, 4), Error);
  EXPECT_THROW(make_test_concatenation(4, 0), Error);
  EXPECT_THROW(make_test_concatenation(4, 8), Error);
}

/// The paper's Section III speed-up example: 128 flops, 4 chains -> 32
/// encode cycles; 16 chains -> 8 cycles (4x speed-up).
TEST(ScanInsert, SectionThreeSpeedupExample) {
  Netlist nl4 = make_shift_register(128);
  ScanInsertionOptions four;
  four.chain_count = 4;
  EXPECT_EQ(insert_scan(nl4, four).length(), 32u);

  Netlist nl16 = make_shift_register(128);
  ScanInsertionOptions sixteen;
  sixteen.chain_count = 16;
  EXPECT_EQ(insert_scan(nl16, sixteen).length(), 8u);
}

}  // namespace
}  // namespace retscan
