// Tests for the supporting tool layer: VCD writer, netlist linter and the
// recovery cost analyzer.

#include <gtest/gtest.h>

#include <sstream>

#include "circuits/fifo.hpp"
#include "circuits/generators.hpp"
#include "core/protected_design.hpp"
#include "netlist/lint.hpp"
#include "power/recovery.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace retscan {
namespace {

TEST(Vcd, EmitsHeaderAndChangesOnly) {
  Netlist nl = make_counter(2);
  Simulator sim(nl);
  std::ostringstream oss;
  VcdWriter vcd(oss, sim, 10.0);
  EXPECT_TRUE(vcd.add_signal("en"));  // named input net
  vcd.add_signal(nl.output_net("q0"), "q0");
  vcd.add_signal(nl.output_net("q1"), "q1");
  EXPECT_FALSE(vcd.add_signal("nonexistent"));
  vcd.write_header("counter");
  sim.set_input("en", true);
  for (int i = 0; i < 4; ++i) {
    vcd.sample();
    sim.step();
  }
  const std::string out = oss.str();
  EXPECT_NE(out.find("$timescale 10000 ps $end"), std::string::npos);
  EXPECT_NE(out.find("$var wire 1 ! en $end"), std::string::npos);
  EXPECT_NE(out.find("q0 $end"), std::string::npos);
  EXPECT_NE(out.find("$enddefinitions"), std::string::npos);
  // q0 toggles every cycle: samples at t=0..3 -> timestamps 0,1,2,3.
  EXPECT_NE(out.find("#0"), std::string::npos);
  EXPECT_NE(out.find("#3"), std::string::npos);
  // q1 changes at t=2 only (counts 0,1,2,3 -> bit1: 0,0,1,1).
  const std::size_t q1_changes = [&] {
    std::size_t n = 0, pos = 0;
    while ((pos = out.find("\"", pos)) != std::string::npos) {
      ++n;
      ++pos;
    }
    return n;
  }();
  (void)q1_changes;  // identifier code assignment is an implementation detail
  EXPECT_THROW(vcd.add_signal("q0"), Error);  // after header
}

TEST(Vcd, SampleBeforeHeaderThrows) {
  Netlist nl = make_counter(2);
  Simulator sim(nl);
  std::ostringstream oss;
  VcdWriter vcd(oss, sim);
  EXPECT_THROW(vcd.sample(), Error);
}

TEST(Lint, CleanCircuitHasNoRealIssues) {
  Netlist nl = make_fifo(FifoSpec{4, 3});
  const auto issues = lint_netlist(nl);
  EXPECT_EQ(lint_count(issues, LintKind::UndrivenNet), 0u);
  EXPECT_EQ(lint_count(issues, LintKind::CombinationalLoop), 0u);
  EXPECT_EQ(lint_count(issues, LintKind::FloatingInput), 0u);
}

TEST(Lint, DetectsFloatingInputAndDanglingNet) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_input("unused");
  nl.n_not(a);  // output dangles
  nl.add_output("y", nl.n_buf(a));
  const auto issues = lint_netlist(nl);
  EXPECT_EQ(lint_count(issues, LintKind::FloatingInput), 1u);
  EXPECT_EQ(lint_count(issues, LintKind::DanglingNet), 1u);
  EXPECT_GE(lint_count(issues, LintKind::UnreachableCell), 1u);
}

TEST(Lint, DetectsCombinationalLoop) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId placeholder = nl.add_net();
  const CellId and_cell = nl.add_cell(CellType::And2, {a, placeholder});
  const NetId y = nl.n_not(nl.output_of(and_cell));
  nl.rewire_fanin(and_cell, 1, y);
  nl.add_output("y", y);
  const auto issues = lint_netlist(nl);
  EXPECT_EQ(lint_count(issues, LintKind::CombinationalLoop), 1u);
}

TEST(Lint, ProtectedDesignOnlyHasExpectedDanglers) {
  // The protected design intentionally leaves the original per-chain si
  // ports floating (rewired into mode muxes); nothing else may dangle.
  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);
  const auto issues = lint_netlist(design.netlist());
  EXPECT_EQ(lint_count(issues, LintKind::UndrivenNet), 0u);
  EXPECT_EQ(lint_count(issues, LintKind::CombinationalLoop), 0u);
  EXPECT_EQ(lint_count(issues, LintKind::FloatingInput), 8u);  // si0..si7
  EXPECT_EQ(lint_count(issues, LintKind::DanglingNet), 0u);
  EXPECT_EQ(lint_count(issues, LintKind::UnreachableCell), 0u);
}

TEST(Recovery, SoftwareIsSlowerButSmaller) {
  const RecoveryAnalyzer analyzer{SoftwareRecoveryParameters{}};
  // Representative numbers: l=13 chains, Hamming monitor 60k um^2 vs CRC
  // monitor 6k um^2, base 120k um^2, 1040 flops.
  const RecoveryCosts hw = analyzer.hardware_correction(13, 2.6, 60000.0, 120000.0);
  const RecoveryCosts sw = analyzer.software_recovery(1040, 13, 0.65, 6000.0, 120000.0);
  EXPECT_GT(sw.total_latency_ns, hw.total_latency_ns);
  EXPECT_LT(sw.area_overhead_percent, hw.area_overhead_percent);
  EXPECT_GT(sw.energy_nj, hw.energy_nj);  // CPU + SRAM traffic dominates
  EXPECT_DOUBLE_EQ(hw.total_latency_ns, 260.0);
  // Software detect pass has the same latency as hardware's.
  EXPECT_DOUBLE_EQ(sw.detect_latency_ns, 130.0);
}

TEST(Recovery, LatencyScalesWithIsrAndBus) {
  SoftwareRecoveryParameters fast;
  fast.isr_cycles = 100;
  fast.mem_bus_bits = 128;
  SoftwareRecoveryParameters slow;
  slow.isr_cycles = 1000;
  slow.mem_bus_bits = 8;
  const RecoveryAnalyzer a_fast{fast}, a_slow{slow};
  const RecoveryCosts f = a_fast.software_recovery(1040, 13, 0.65, 6000.0, 120000.0);
  const RecoveryCosts s = a_slow.software_recovery(1040, 13, 0.65, 6000.0, 120000.0);
  EXPECT_LT(f.total_latency_ns, s.total_latency_ns);
}

}  // namespace
}  // namespace retscan
