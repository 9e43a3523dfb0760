#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

#include <string>

#include "netlist/techlib.hpp"
#include "util/error.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

TEST(Netlist, AddNetAndName) {
  Netlist nl;
  const NetId a = nl.add_net("a");
  EXPECT_EQ(nl.find_net("a"), a);
  EXPECT_TRUE(nl.has_net("a"));
  EXPECT_FALSE(nl.has_net("b"));
  EXPECT_THROW(nl.add_net("a"), Error);  // duplicate
  EXPECT_THROW(nl.find_net("missing"), Error);
}

TEST(Netlist, AddCellChecksPinCount) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  EXPECT_THROW(nl.add_cell(CellType::And2, {a}), Error);
  EXPECT_THROW(nl.add_cell(CellType::Not, {a, a}), Error);
  EXPECT_NO_THROW(nl.add_cell(CellType::And2, {a, a}));
}

TEST(Netlist, DriverTracking) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.n_not(a);
  const CellId drv = nl.driver(b);
  EXPECT_EQ(nl.cell(drv).type, CellType::Not);
  EXPECT_EQ(nl.driver(a), nl.inputs()[0]);
}

TEST(Netlist, FanoutsTrackReaders) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.n_not(a);
  nl.n_buf(a);
  const auto& fo = nl.fanouts();
  EXPECT_EQ(fo[a].size(), 2u);
}

TEST(Netlist, PortBookkeeping) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.n_not(a);
  nl.add_output("y", b);
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.output_net("y"), b);
  EXPECT_THROW(nl.output_net("z"), Error);
  EXPECT_THROW(nl.add_output("y", b), Error);  // duplicate port
}

TEST(Netlist, CombinationalOrderRespectsDependencies) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId x = nl.n_and(a, b);
  const NetId y = nl.n_or(x, a);
  nl.add_output("y", y);
  const auto order = nl.combinational_order();
  ASSERT_EQ(order.size(), 3u);  // and, or, output
  // The AND must appear before the OR that reads it.
  std::size_t and_pos = 99, or_pos = 99;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (nl.cell(order[i]).type == CellType::And2) and_pos = i;
    if (nl.cell(order[i]).type == CellType::Or2) or_pos = i;
  }
  EXPECT_LT(and_pos, or_pos);
}

TEST(Netlist, CombinationalCycleDetected) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  // Build a cycle: x = AND(a, y), y = NOT(x) by rewiring.
  const NetId placeholder = nl.add_net();
  const CellId and_cell = nl.add_cell(CellType::And2, {a, placeholder});
  const NetId y = nl.n_not(nl.output_of(and_cell));
  nl.rewire_fanin(and_cell, 1, y);
  EXPECT_THROW(nl.combinational_order(), Error);
}

TEST(Netlist, FlopsBreakCycles) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  // q = DFF(XOR(q, a)) — a sequential loop must be legal.
  const NetId placeholder = nl.add_net();
  const CellId flop = nl.add_cell(CellType::Dff, {placeholder});
  const NetId x = nl.n_xor(nl.output_of(flop), a);
  nl.rewire_fanin(flop, 0, x);
  EXPECT_NO_THROW(nl.combinational_order());
  EXPECT_EQ(nl.flops().size(), 1u);
}

TEST(Netlist, ConvertFlopPreservesOutput) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId si = nl.add_input("si");
  const NetId se = nl.add_input("se");
  const NetId q = nl.n_dff(d, "ff");
  const CellId flop = nl.driver(q);
  nl.convert_flop(flop, CellType::Sdff, {si, se});
  EXPECT_EQ(nl.cell(flop).type, CellType::Sdff);
  EXPECT_EQ(nl.output_of(flop), q);
  EXPECT_EQ(nl.cell(flop).fanin.size(), 3u);
  // Cannot convert twice.
  EXPECT_THROW(nl.convert_flop(flop, CellType::Rdff, {si, se, se}), Error);
}

TEST(Netlist, ConvertFlopChecksPins) {
  Netlist nl;
  const NetId d = nl.add_input("d");
  const NetId q = nl.n_dff(d);
  EXPECT_THROW(nl.convert_flop(nl.driver(q), CellType::Sdff, {d}), Error);
  EXPECT_THROW(nl.convert_flop(nl.driver(q), CellType::And2, {d, d}), Error);
}

TEST(Netlist, XorTreeReducesAllInputs) {
  Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 5; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  const NetId y = nl.n_xor_tree(ins);
  nl.add_output("y", y);
  const auto hist = nl.type_histogram();
  EXPECT_EQ(hist.at(CellType::Xor2), 4u);  // n-1 gates
  EXPECT_THROW(nl.n_xor_tree({}), Error);
}

TEST(Netlist, TypeHistogram) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.n_and(a, a);
  nl.n_and(a, a);
  nl.n_not(a);
  const auto hist = nl.type_histogram();
  EXPECT_EQ(hist.at(CellType::And2), 2u);
  EXPECT_EQ(hist.at(CellType::Not), 1u);
  EXPECT_EQ(hist.at(CellType::Input), 1u);
}

TEST(Netlist, DomainAssignment) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q = nl.n_dff(a);
  const CellId flop = nl.driver(q);
  EXPECT_EQ(nl.domain(flop), kAlwaysOnDomain);
  nl.set_domain(flop, 3);
  EXPECT_EQ(nl.domain(flop), 3);
}

TEST(TechLibrary, AreaReportSeparatesSequential) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.n_dff(nl.n_and(a, a));
  const TechLibrary tech = TechLibrary::st120();
  const AreaReport report = tech.area(nl);
  EXPECT_EQ(report.flop_count, 1u);
  EXPECT_GT(report.sequential_um2, 0.0);
  EXPECT_GT(report.combinational_um2, 0.0);
  EXPECT_DOUBLE_EQ(report.total_um2, report.sequential_um2 + report.combinational_um2);
}

TEST(TechLibrary, RelativeCellCostsAreSane) {
  const TechLibrary tech = TechLibrary::st120();
  // Retention flop > scan flop > plain flop > latch > gates.
  EXPECT_GT(tech.physics(CellType::Rdff).area_um2, tech.physics(CellType::Sdff).area_um2);
  EXPECT_GT(tech.physics(CellType::Sdff).area_um2, tech.physics(CellType::Dff).area_um2);
  EXPECT_GT(tech.physics(CellType::Dff).area_um2, tech.physics(CellType::LatchL).area_um2);
  EXPECT_GT(tech.physics(CellType::LatchL).area_um2, tech.physics(CellType::Xor2).area_um2);
  // XOR costs more than NAND.
  EXPECT_GT(tech.physics(CellType::Xor2).area_um2, tech.physics(CellType::Nand2).area_um2);
  // Retention flop leaks less than a scan flop (high-Vt balloon).
  EXPECT_LT(tech.physics(CellType::Rdff).leakage_nw, tech.physics(CellType::Sdff).leakage_nw);
}

TEST(TechLibrary, LeakageByDomain) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId q1 = nl.n_dff(a);
  const NetId q2 = nl.n_dff(a);
  nl.set_domain(nl.driver(q2), 1);
  nl.add_output("q1", q1);
  const TechLibrary tech = TechLibrary::st120();
  EXPECT_GT(tech.leakage_nw(nl, kAlwaysOnDomain), 0.0);
  EXPECT_GT(tech.leakage_nw(nl, 1), 0.0);
}

TEST(Netlist, AddCellBoundEnforcesInvariants) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId fresh = nl.add_net();
  // Binding to an already driven net must fail.
  EXPECT_THROW(nl.add_cell_bound(CellType::Not, {a}, a), Error);
  // Output cells must not claim a net.
  EXPECT_THROW(nl.add_cell_bound(CellType::Output, {a}, fresh, "y"), Error);
  // Correct usage works and preserves the net id.
  const CellId inverter = nl.add_cell_bound(CellType::Not, {a}, fresh);
  EXPECT_EQ(nl.output_of(inverter), fresh);
  EXPECT_EQ(nl.driver(fresh), inverter);
}

/// netlist_structure_fingerprint hashes structure only: two parses of one
/// file agree, and different circuits differ.
TEST(StructureFingerprint, IsAPureFunctionOfStructure) {
  const auto load = [](const std::string& file) {
    return Netlist::from_verilog(std::string(RETSCAN_CIRCUITS_DIR) + "/" + file);
  };
  for (const char* file : {"c17.v", "s27.v", "mul880.v"}) {
    EXPECT_EQ(netlist_structure_fingerprint(load(file)),
              netlist_structure_fingerprint(load(file)))
        << file;
  }
  EXPECT_NE(netlist_structure_fingerprint(load("c17.v")),
            netlist_structure_fingerprint(load("s27.v")));
  EXPECT_NE(netlist_structure_fingerprint(load("s27.v")),
            netlist_structure_fingerprint(load("mul880.v")));
}

}  // namespace
}  // namespace retscan
