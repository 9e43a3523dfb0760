#include "netlist/verilog_reader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "netlist/lint.hpp"
#include "netlist/techlib.hpp"
#include "retscan/campaign.hpp"
#include "retscan/session.hpp"
#include "util/error.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

const char* kC17 = R"(
// c17 transcription (see bench/circuits/c17.v)
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand NAND2_1 (N10, N1, N3);
  nand NAND2_2 (N11, N3, N6);
  nand NAND2_3 (N16, N2, N11);
  nand NAND2_4 (N19, N11, N7);
  nand NAND2_5 (N22, N10, N16);
  nand NAND2_6 (N23, N16, N19);
endmodule
)";

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(VerilogReader, ParsesC17Structure) {
  const Netlist nl = read_verilog_text(kC17, "c17.v");
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.inputs().size(), 5u);
  EXPECT_EQ(nl.outputs().size(), 2u);
  const auto histogram = nl.type_histogram();
  EXPECT_EQ(histogram.at(CellType::Nand2), 6u);
  EXPECT_TRUE(nl.has_net("N10"));
  EXPECT_EQ(nl.cell(nl.driver(nl.find_net("N22"))).name, "NAND2_5");
  // Imports are structurally clean: c17 lints with zero issues.
  EXPECT_TRUE(lint_netlist(nl).empty());
}

TEST(VerilogReader, C17MatchesTruthTable) {
  const Netlist nl = read_verilog_text(kC17, "c17.v");
  CombinationalFrame frame(nl);
  ASSERT_EQ(frame.pattern_width(), 5u);
  ASSERT_EQ(frame.response_width(), 2u);
  for (unsigned v = 0; v < 32; ++v) {
    BitVec pattern(5);
    pattern.from_uint(0, 5, v);
    // pi_nets order == input declaration order: N1, N2, N3, N6, N7.
    const bool n1 = pattern.get(0), n2 = pattern.get(1), n3 = pattern.get(2);
    const bool n6 = pattern.get(3), n7 = pattern.get(4);
    const bool n10 = !(n1 && n3), n11 = !(n3 && n6);
    const bool n16 = !(n2 && n11), n19 = !(n11 && n7);
    const BitVec response = frame.good_response(pattern);
    EXPECT_EQ(response.get(0), !(n10 && n16)) << "N22 at input " << v;
    EXPECT_EQ(response.get(1), !(n16 && !(n11 && n7))) << "N23 at input " << v;
    (void)n19;
  }
}

TEST(VerilogReader, MultiInputPrimitivesUseReductionSemantics) {
  const Netlist nl = read_verilog_text(R"(
module gates (a, b, c, yand, ynand, yor, ynor, yxor, yxnor);
  input a, b, c;
  output yand, ynand, yor, ynor, yxor, yxnor;
  and  (yand, a, b, c);
  nand (ynand, a, b, c);
  or   (yor, a, b, c);
  nor  (ynor, a, b, c);
  xor  (yxor, a, b, c);
  xnor (yxnor, a, b, c);
endmodule
)");
  CombinationalFrame frame(nl);
  for (unsigned v = 0; v < 8; ++v) {
    BitVec pattern(3);
    pattern.from_uint(0, 3, v);
    const bool a = pattern.get(0), b = pattern.get(1), c = pattern.get(2);
    const BitVec r = frame.good_response(pattern);
    EXPECT_EQ(r.get(0), a && b && c);
    EXPECT_EQ(r.get(1), !(a && b && c));
    EXPECT_EQ(r.get(2), a || b || c);
    EXPECT_EQ(r.get(3), !(a || b || c));
    EXPECT_EQ(r.get(4), a ^ b ^ c);
    EXPECT_EQ(r.get(5), !(a ^ b ^ c));
  }
}

TEST(VerilogReader, TechlibLookupNormalization) {
  // Exact names win before drive-suffix stripping: MUX2 must not be
  // mangled to "MU" by treating its trailing 2 as a drive strength.
  EXPECT_EQ(techlib_cell("MUX2")->type, CellType::Mux2);
  EXPECT_EQ(techlib_cell("mux2")->type, CellType::Mux2);
  EXPECT_EQ(techlib_cell("MUX2X1")->type, CellType::Mux2);
  EXPECT_EQ(techlib_cell("mux2x4")->type, CellType::Mux2);
  EXPECT_EQ(techlib_cell("nand2")->type, CellType::Nand2);
  EXPECT_EQ(techlib_cell("NAND2X8")->type, CellType::Nand2);
  EXPECT_EQ(techlib_cell("inv")->type, CellType::Not);
  EXPECT_EQ(techlib_cell("dff")->type, CellType::Dff);
  EXPECT_EQ(techlib_cell("TIELO")->type, CellType::Const0);
  EXPECT_EQ(techlib_cell("frobnicator"), nullptr);
  EXPECT_EQ(techlib_cell("NAND2X"), nullptr);  // bare X is not a suffix
}

TEST(VerilogReader, TechlibCellsNamedPinsAndConstants) {
  const Netlist nl = read_verilog_text(R"(
module cells (a, b, s, y1, y2, y3, y4);
  input a, b, s;
  output y1, y2, y3, y4;
  wire t;
  NAND2X1 u1 (.A(a), .B(b), .Y(y1));
  invx4   u2 (.a(y1), .y(t));        // case-insensitive names and pins
  mux2    u3 (.S(s), .A(t), .B(a), .Y(y2));   // generic name whose real
                                              // spelling ends in X<digit>
  AND2X1  u4 (.A(a), .B(1'b1), .Y(y3));
  OR2X1   u5 (.A(b), .B(1'b0), .Y(y4));
endmodule
)");
  const auto histogram = nl.type_histogram();
  EXPECT_EQ(histogram.at(CellType::Nand2), 1u);
  EXPECT_EQ(histogram.at(CellType::Not), 1u);
  EXPECT_EQ(histogram.at(CellType::Mux2), 1u);
  EXPECT_EQ(histogram.at(CellType::Const1), 1u);
  EXPECT_EQ(histogram.at(CellType::Const0), 1u);
  CombinationalFrame frame(nl);
  for (unsigned v = 0; v < 8; ++v) {
    BitVec pattern(3);
    pattern.from_uint(0, 3, v);
    const bool a = pattern.get(0), b = pattern.get(1), s = pattern.get(2);
    const BitVec r = frame.good_response(pattern);
    EXPECT_EQ(r.get(0), !(a && b));
    EXPECT_EQ(r.get(1), s ? a : (a && b));  // mux: S ? B : A, A = !y1
    EXPECT_EQ(r.get(2), a);
    EXPECT_EQ(r.get(3), b);
  }
}

TEST(VerilogReader, DffCellsMakeSequentialNetlists) {
  const Netlist nl = read_verilog_text(R"(
module pipe (CK, d, q2);
  input CK, d;
  output q2;
  wire q1, n1;
  DFFX1 r1 (.CK(CK), .D(d), .Q(q1));
  not (n1, q1);
  dff r2 (.D(n1), .Q(q2));           // generic alias, no clock pin
endmodule
)");
  EXPECT_EQ(nl.flops().size(), 2u);
  CombinationalFrame frame(nl);
  // PIs (CK, d) + 2 PPIs; response: q2 PO + 2 PPOs (flop D captures).
  EXPECT_EQ(frame.pattern_width(), 4u);
  EXPECT_EQ(frame.response_width(), 3u);
}

TEST(VerilogReader, DiagnosticsCarryFileAndLine) {
  const auto expect_error = [](const std::string& source, const std::string& needle) {
    const std::string message =
        error_message([&] { read_verilog_text(source, "bad.v"); });
    EXPECT_NE(message.find("bad.v:"), std::string::npos) << message;
    EXPECT_NE(message.find(needle), std::string::npos) << message;
  };

  expect_error("module m (a);\n  input a;\n  assign a = 1'b0;\nendmodule\n",
               "assign cannot drive input port");
  expect_error("module m (a, y);\n  input a;\n  output [1:0] y;\n  assign y = a;\n"
               "endmodule\n", "width mismatch");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  assign y = a & ghost;\n"
               "endmodule\n", "undeclared net 'ghost'");
  expect_error("module m (a, b, y);\n  input a, b;\n  output y;\n  assign y = a + b;\n"
               "endmodule\n", "operator '+' is unsupported");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  wire p, q;\n"
               "  assign p = q & a;\n  assign q = p;\n  assign y = q;\nendmodule\n",
               "combinational cycle");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  assign y = a[2];\n"
               "endmodule\n", "scalar net");
  expect_error("module m (a, y);\n  input [3:0] a;\n  output y;\n  assign y = a[7];\n"
               "endmodule\n", "out of range");
  expect_error("module m (a, y);\n  input [3:0] a;\n  output y;\n"
               "  assign y = a == 2'b01;\nendmodule\n", "width mismatch");
  expect_error("module m (y);\n  output y;\n  assign y = 3;\nendmodule\n",
               "unsized literal");
  expect_error("module m (a, y);\n  input [3:0] a;\n  output [3:0] y;\n"
               "  assign y = a << a;\nendmodule\n", "shift amount must be a constant");
  expect_error("module m (a, y);\n  input [0:3] a;\n  output y;\n  assign y = a[0];\n"
               "endmodule\n", "ascending bit range");
  expect_error("module m (a, b, y);\n  input a, b;\n  output [1:0] y;\n"
               "  assign y = a ? {a, b} : b;\nendmodule\n", "width mismatch");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  frob u1 (y, a);\n"
               "endmodule\n", "unknown gate or cell 'frob'");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  buf (y, missing);\n"
               "endmodule\n", "undeclared net 'missing'");
  expect_error("module m (a, b, y);\n  input a, b;\n  output y;\n  buf (y, a);\n"
               "  buf (y, b);\nendmodule\n", "already driven");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  buf (a, y);\n"
               "endmodule\n", "cannot drive input port");
  expect_error("module m (a, y);\n  input a;\n  output y;\nendmodule\n",
               "never driven");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  wire w;\n"
               "  buf (y, w);\nendmodule\n", "read here but never driven");
  expect_error("module m (a, y);\n  input a;\n  output y;\n"
               "  NAND2X1 u1 (y, a, a);\nendmodule\n", "named pin connections");
  expect_error("module m (a, y);\n  input a;\n  output y;\n"
               "  NAND2X1 u1 (.A(a), .B(a), .Z(y));\nendmodule\n", "has no pin .Z");
  expect_error("module m (a, y);\n  input a;\n  output y;\n"
               "  NAND2X1 u1 (.A(a), .Y(y));\nendmodule\n", "unconnected");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  nand u1 (.A(a));\n"
               "endmodule\n", "positional connections");
  expect_error("module m (y, a);\n  input a;\n  output y;\n  wire x, y1;\n"
               "  and (y1, a, x);\n  and (x, a, y1);\n  buf (y, x);\nendmodule\n",
               "combinational cycle");
  expect_error("module m (input a);\nendmodule\n", "ANSI-style");
  expect_error("module m (a, y);\n  input a;\n  output y;\n  buf (y, a);\n"
               "endmodule\nmodule n ();\nendmodule\n", "multiple modules");
  expect_error("module m (a, y);\n  input a;\n  input a;\n  output y;\n"
               "  buf (y, a);\nendmodule\n", "declared twice");

  // The reported line number points at the offending token.
  const std::string message = error_message(
      [&] { read_verilog_text("module m (a, y);\n  input a;\n  output y;\n"
                              "  buf (y, zz);\nendmodule\n", "bad.v"); });
  EXPECT_NE(message.find("bad.v:4:"), std::string::npos) << message;
}

TEST(VerilogReader, FromVerilogNamesThePath) {
  namespace fs = std::filesystem;
  const fs::path path = fs::temp_directory_path() / "retscan_from_verilog_bad.v";
  EXPECT_NE(error_message([&] { Netlist::from_verilog(path.string()); })
                .find("cannot open Verilog file"),
            std::string::npos);
  {
    std::ofstream v(path);
    v << "module m (a, y);\n  input a;\n  output y;\n  buf (y, zz);\nendmodule\n";
  }
  const std::string message = error_message([&] { Netlist::from_verilog(path.string()); });
  EXPECT_NE(message.find(path.string() + ":4:"), std::string::npos) << message;
  fs::remove(path);
}

// --- expression synthesis ---------------------------------------------------

const char* kExprModule = R"(
module exprs (a, b, s, yand, yor, yxor, ynot, ymux, yshl, yshr, yeq, yne,
              ycat, chi, clo, yprec);
  input [3:0] a, b;
  input s;
  output [3:0] yand, yor, yxor, ynot, ymux, yshl, yshr;
  output yeq, yne, yprec;
  output [7:0] ycat;
  output [1:0] chi, clo;
  assign yand = a & b;
  assign yor  = a | b;
  assign yxor = a ^ b;
  assign ynot = ~a;
  assign ymux = s ? a : b;
  assign yeq  = a == b;
  assign yne  = a != 4'b0101;
  assign yshl = a << 1;
  assign yshr = a >> 2;
  assign ycat = {a, b};
  assign {chi, clo} = {a[1:0], b[3:2]};
  assign yprec = a[0] | b[0] & s;
endmodule
)";

TEST(VerilogReader, ExpressionAssignsMatchOracle) {
  const Netlist nl = read_verilog_text(kExprModule, "exprs.v");
  CombinationalFrame frame(nl);
  ASSERT_EQ(frame.pattern_width(), 9u);
  for (unsigned v = 0; v < 512; ++v) {
    BitVec pattern(9);
    pattern.from_uint(0, 9, v);
    // Inputs in declaration order, buses LSB-first: a[0..3], b[0..3], s.
    const unsigned a = v & 0xF;
    const unsigned b = (v >> 4) & 0xF;
    const bool s = ((v >> 8) & 1) != 0;
    const BitVec r = frame.good_response(pattern);
    std::size_t at = 0;
    const auto take = [&](std::size_t width) {
      unsigned value = 0;
      for (std::size_t i = 0; i < width; ++i) {
        value |= static_cast<unsigned>(r.get(at + i)) << i;
      }
      at += width;
      return value;
    };
    EXPECT_EQ(take(4), a & b);
    EXPECT_EQ(take(4), a | b);
    EXPECT_EQ(take(4), a ^ b);
    EXPECT_EQ(take(4), ~a & 0xFu);
    EXPECT_EQ(take(4), s ? a : b);
    EXPECT_EQ(take(4), (a << 1) & 0xFu);
    EXPECT_EQ(take(4), a >> 2);
    EXPECT_EQ(take(1), a == b ? 1u : 0u);
    EXPECT_EQ(take(1), a != 5u ? 1u : 0u);
    EXPECT_EQ(take(1), (a & 1u) | ((b & 1u) & (s ? 1u : 0u)));  // & binds tighter
    EXPECT_EQ(take(8), (a << 4) | b);              // {a, b}: b takes the low bits
    EXPECT_EQ(take(2), a & 3u);                    // chi = a[1:0]
    EXPECT_EQ(take(2), b >> 2);                    // clo = b[3:2]
    EXPECT_EQ(at, r.size());
  }
}

TEST(VerilogReader, BusBitSelectsConnectToInstances) {
  // Bus bits feed techlib cells and primitives directly, including flops.
  const Netlist nl = read_verilog_text(R"(
module mixed (d, q);
  input [1:0] d;
  output q;
  wire [1:0] qi;
  DFFX1 r0 (.D(d[0]), .Q(qi[0]));
  DFFX1 r1 (.D(d[1]), .Q(qi[1]));
  and (q, qi[0], qi[1]);
endmodule
)");
  EXPECT_EQ(nl.flops().size(), 2u);
  EXPECT_TRUE(lint_netlist(nl).empty());
}

TEST(VerilogReader, ExpressionCircuitsRoundTripWithIdenticalDigests) {
  // write_verilog output of a synthesized expression circuit re-parses to a
  // netlist with identical simulation and fault-coverage digests.
  const Netlist first = read_verilog_text(kExprModule, "exprs.v");
  std::ostringstream exported;
  write_verilog(exported, first);
  const Netlist second = read_verilog_text(exported.str(), "exprs_rt.v");
  EXPECT_EQ(first.type_histogram(), second.type_histogram());

  CombinationalFrame frame_a(first);
  CombinationalFrame frame_b(second);
  ASSERT_EQ(frame_a.pattern_width(), frame_b.pattern_width());
  ASSERT_EQ(frame_a.response_width(), frame_b.response_width());

  // Simulation digest: identical responses over a seeded pattern sweep.
  Rng rng(99);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 64; ++i) {
    patterns.push_back(frame_a.random_pattern(rng));
  }
  for (const BitVec& pattern : patterns) {
    EXPECT_EQ(frame_a.good_response(pattern), frame_b.good_response(pattern));
  }

  // Fault-coverage digest: identical detect counts on the same fault list.
  const std::vector<Fault> faults_a = enumerate_faults(first);
  const std::vector<Fault> faults_b = enumerate_faults(second);
  ASSERT_EQ(faults_a.size(), faults_b.size());
  const FaultSimResult cov_a = fault_simulate(frame_a, faults_a, patterns);
  const FaultSimResult cov_b = fault_simulate(frame_b, faults_b, patterns);
  EXPECT_EQ(cov_a.detected, cov_b.detected);
  EXPECT_EQ(cov_a.total_faults, cov_b.total_faults);
  EXPECT_EQ(cov_a.detected_by, cov_b.detected_by);

  // And the export is a fixed point from the first round-trip on.
  std::ostringstream exported_again;
  write_verilog(exported_again, second);
  const Netlist third = read_verilog_text(exported_again.str(), "exprs_rt2.v");
  std::ostringstream exported_third;
  write_verilog(exported_third, third);
  EXPECT_EQ(exported_again.str(), exported_third.str());
}

TEST(VerilogReader, VerilogRoundTripIsAFixedPoint) {
  const Netlist first = read_verilog_text(kC17, "c17.v");
  std::ostringstream exported;
  write_verilog(exported, first);
  const Netlist second = read_verilog_text(exported.str(), "c17rt.v");
  std::ostringstream exported_again;
  write_verilog(exported_again, second);
  EXPECT_EQ(exported.str(), exported_again.str());
  EXPECT_EQ(first.type_histogram(), second.type_histogram());

  // Simulation equivalence over every input combination.
  CombinationalFrame frame_a(first);
  CombinationalFrame frame_b(second);
  ASSERT_EQ(frame_a.pattern_width(), frame_b.pattern_width());
  for (unsigned v = 0; v < 32; ++v) {
    BitVec pattern(5);
    pattern.from_uint(0, 5, v);
    EXPECT_EQ(frame_a.good_response(pattern), frame_b.good_response(pattern));
  }
}

TEST(VerilogReader, ExportCoversEveryLibraryCell) {
  // A netlist touching every non-port cell type, including the flop
  // variants a protected design contains, survives export -> reparse.
  Netlist nl("allcells");
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId zero = nl.n_const(false);
  const NetId one = nl.n_const(true);
  const NetId mix = nl.n_mux(a, nl.n_xor(a, b), nl.n_xnor(a, zero));
  const NetId d = nl.n_or(nl.n_and(mix, one), nl.n_nor(a, nl.n_nand(a, b)));
  const NetId q = nl.n_dff(d, "state");
  const CellId sdff = nl.add_cell(CellType::Sdff, {q, a, b});
  const CellId rdff = nl.add_cell(CellType::Rdff, {nl.output_of(sdff), a, b, zero});
  const CellId latch = nl.add_cell(CellType::LatchL, {nl.output_of(rdff), b});
  const NetId y = nl.n_buf(nl.n_not(nl.output_of(latch)));
  // Name the port net so export takes the direct path (a port name that
  // differs from its source net would add a bridge BUFX1 on reparse).
  nl.set_net_name(y, "y");
  nl.add_output("y", y);

  std::ostringstream exported;
  write_verilog(exported, nl);
  const Netlist reparsed = read_verilog_text(exported.str(), "allcells.v");
  EXPECT_EQ(nl.type_histogram(), reparsed.type_histogram());
  std::ostringstream again;
  write_verilog(again, reparsed);
  EXPECT_EQ(exported.str(), again.str());
}

TEST(VerilogReader, VendoredBenchesLoadAndLintClean) {
  const std::string dir = std::string(RETSCAN_CIRCUITS_DIR) + "/";
  const struct {
    const char* file;
    std::size_t flops;
  } benches[] = {{"c17.v", 0}, {"add432.v", 0}, {"mul880.v", 0},
                 {"s27.v", 3}, {"ctrl344.v", 24}};
  for (const auto& bench : benches) {
    SCOPED_TRACE(bench.file);
    const Netlist nl = Netlist::from_verilog(dir + bench.file);
    EXPECT_EQ(nl.flops().size(), bench.flops);
    EXPECT_GT(nl.cell_count(), 0u);
    for (const LintIssue& issue : lint_netlist(nl)) {
      // Only the intentionally-unread clock ports may surface.
      EXPECT_EQ(issue.kind, LintKind::FloatingInput) << issue.message;
    }
    // Every vendored bench flows straight into the compiled core.
    EXPECT_GT(nl.compiled()->instrs().size(), 0u);
  }
}

TEST(VerilogSession, BareCombinationalImportRunsFaultCoverage) {
  const std::string path = std::string(RETSCAN_CIRCUITS_DIR) + "/c17.v";
  Session session = Session::from_verilog(path);
  EXPECT_FALSE(session.is_protected());
  EXPECT_FALSE(session.has_fifo());
  EXPECT_THROW(session.design(), Error);

  CampaignSpec spec;
  spec.kind = CampaignKind::FaultCoverage;
  spec.seed = 3;
  spec.atpg.random_patterns = 64;
  const CampaignResult result = session.run(spec);
  EXPECT_EQ(result.faults.detected, result.faults.total_faults);
  EXPECT_TRUE(result.passed());

  CampaignSpec scan_test;
  scan_test.kind = CampaignKind::ScanTest;
  scan_test.atpg.random_patterns = 16;
  EXPECT_NE(error_message([&] { validate(scan_test, session); }).find("scan fabric"),
            std::string::npos);
  CampaignSpec validation;
  validation.kind = CampaignKind::Validation;
  validation.sequences = 10;
  EXPECT_THROW(validate(validation, session), Error);
}

TEST(VerilogSession, ProtectedSequentialImportRunsCampaigns) {
  const std::string path = std::string(RETSCAN_CIRCUITS_DIR) + "/ctrl344.v";
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 4;
  Session session = Session::from_verilog(path, protection);
  EXPECT_TRUE(session.is_protected());
  EXPECT_EQ(session.chains().chain_count(), 4u);
  EXPECT_EQ(session.chains().length(), 6u);

  CampaignSpec coverage;
  coverage.kind = CampaignKind::FaultCoverage;
  coverage.seed = 7;
  coverage.atpg.random_patterns = 64;
  coverage.atpg.run_podem = false;
  const CampaignResult result = session.run(coverage);
  EXPECT_GT(result.atpg.coverage(), 0.5);

  CampaignSpec delivery;
  delivery.kind = CampaignKind::ScanTest;
  delivery.seed = 7;
  delivery.atpg.random_patterns = 32;
  delivery.atpg.run_podem = false;
  const CampaignResult scan = session.run(delivery);
  EXPECT_TRUE(scan.passed());
  EXPECT_EQ(scan.scan_test.mismatches, 0u);
}

TEST(VerilogSession, FromVerilogValidatesGeometry) {
  const std::string path = std::string(RETSCAN_CIRCUITS_DIR) + "/s27.v";
  ProtectionConfig indivisible;  // 3 flops % 4 chains != 0
  EXPECT_NE(error_message([&] {
              Session session = Session::from_verilog(path, indivisible);
            }).find("equal scan chains"),
            std::string::npos);
}

TEST(VerilogSpec, NetlistKeyBuildsSessions) {
  SpecFile parsed = parse_spec_text("netlist = some/file.v\n");
  EXPECT_EQ(parsed.netlist_file, "some/file.v");

  // Relative netlist paths resolve against the spec file's directory.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "retscan_verilog_spec";
  fs::create_directories(dir);
  {
    std::ofstream v(dir / "rt_c17.v");
    v << kC17;
    std::ofstream spec(dir / "rt.spec");
    spec << "netlist = rt_c17.v\n"
            "campaign.kind = fault-coverage\n"
            "campaign.seed = 3\n"
            "campaign.atpg.random_patterns = 32\n";
  }
  const SpecFile file = load_spec_file((dir / "rt.spec").string());
  EXPECT_EQ(file.netlist_file, (fs::path(dir) / "rt_c17.v").string());

  const Netlist base = spec_base_netlist(file);
  EXPECT_EQ(base.name(), "c17");
  Session session = make_session(file);
  EXPECT_FALSE(session.is_protected());
  const CampaignResult result = session.run(file.campaign);
  EXPECT_TRUE(result.passed());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace retscan
