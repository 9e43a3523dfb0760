#include "atpg/atpg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <string>
#include <vector>

#include "atpg/scan_test.hpp"
#include "scan/scan_insert.hpp"
#include "circuits/fifo.hpp"
#include "circuits/generators.hpp"
#include "netlist/verilog_reader.hpp"
#include "random_frame.hpp"
#include "retscan/session.hpp"
#include "scan/scan_io.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

TEST(Fault, EnumerationSkipsDanglingNets) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId y = nl.n_not(a);
  nl.add_output("y", y);
  nl.add_input("unused");  // no readers -> no faults
  const auto faults = enumerate_faults(nl);
  // Nets with faults: a (read by Not), y (read by Output). SA0+SA1 each.
  EXPECT_EQ(faults.size(), 4u);
}

TEST(Fault, NamesAreReadable) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output("y", nl.n_buf(a));
  const auto faults = enumerate_faults(nl);
  EXPECT_EQ(fault_name(nl, faults[0]), "a/SA0");
  EXPECT_EQ(fault_name(nl, faults[1]), "a/SA1");
}

TEST(Fault, CollapseThroughBufAndNot) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.n_buf(a);
  const NetId c = nl.n_not(b);
  nl.add_output("y", c);
  const auto faults = enumerate_faults(nl);   // a, b, c -> 6 faults
  const auto collapsed = collapse_faults(nl, faults);
  // b/SAv collapses onto a/SAv; c/SAv collapses onto a/SA(!v):
  // only a/SA0 and a/SA1 remain.
  EXPECT_EQ(faults.size(), 6u);
  ASSERT_EQ(collapsed.size(), 2u);
  EXPECT_EQ(collapsed[0].net, a);
  EXPECT_EQ(collapsed[1].net, a);
  EXPECT_NE(collapsed[0].stuck_at, collapsed[1].stuck_at);
}

TEST(CombinationalFrame, GoodResponseMatchesSimulatorSemantics) {
  Netlist nl = make_registered_adder(4);
  const CombinationalFrame frame(nl);
  EXPECT_EQ(frame.pi_nets().size(), 9u);   // a0..3, b0..3, cin
  EXPECT_EQ(frame.flops().size(), 14u);    // 4+4+1 input regs, 4+1 output regs
  Rng rng(1);
  // Cross-check one pattern against the cycle simulator.
  const BitVec pattern = frame.random_pattern(rng);
  const BitVec response = frame.good_response(pattern);
  Simulator sim(nl);
  for (std::size_t i = 0; i < frame.pi_nets().size(); ++i) {
    sim.set_input(frame.pi_nets()[i], pattern.get(i));
  }
  for (std::size_t i = 0; i < frame.flops().size(); ++i) {
    sim.set_flop_state(frame.flops()[i], pattern.get(frame.pi_nets().size() + i));
  }
  sim.eval();
  for (std::size_t i = 0; i < frame.po_nets().size(); ++i) {
    EXPECT_EQ(sim.net_value(frame.po_nets()[i]), response.get(i));
  }
  sim.step();
  for (std::size_t i = 0; i < frame.flops().size(); ++i) {
    EXPECT_EQ(sim.flop_state(frame.flops()[i]),
              response.get(frame.po_nets().size() + i));
  }
}

TEST(CombinationalFrame, LoadBatchMatchesPerBitReference) {
  // The tile-transposing loader against a per-bit reference load of every
  // pattern source slot (PIs, then flop Qs; constrained PIs broadcast to
  // every lane; Const1 sources set in every lane; unused lanes zero), at
  // pattern widths around the 64-bit word and batch sizes around the lane
  // word and the lane block.
  Rng rng(31);
  for (const std::size_t width : {1, 63, 64, 65, 130}) {
    const std::size_t flops = width / 3;
    Netlist nl;
    std::vector<NetId> inputs;
    for (std::size_t i = 0; i + flops < width; ++i) {
      inputs.push_back(nl.add_input("i" + std::to_string(i)));
    }
    for (std::size_t f = 0; f < flops; ++f) {
      nl.n_dff(inputs[f % inputs.size()]);
    }
    nl.add_output("y", nl.n_and(inputs[0], nl.n_const(true)));
    nl.add_output("z", nl.n_or(inputs.back(), nl.n_const(false)));
    CombinationalFrame frame(nl);
    if (inputs.size() > 2) {
      frame.constrain("i1", true);
      frame.constrain("i2", false);
    }
    ASSERT_EQ(frame.pattern_width(), width);
    const CompiledNetlist& compiled = frame.compiled();
    std::vector<std::uint32_t> sources;
    for (const NetId net : frame.pi_nets()) {
      sources.push_back(compiled.slot(net));
    }
    for (const CellId flop : frame.flops()) {
      sources.push_back(compiled.slot(nl.cell(flop).out));
    }
    for (const std::size_t count : {1, 63, 64, 65, 255, 256}) {
      std::vector<BitVec> patterns;
      for (std::size_t p = 0; p < count; ++p) {
        patterns.push_back(rng.next_bits(width));  // unconstrained bits too
      }
      const auto batch = frame.load_batch(patterns);
      std::vector<LaneBlock> expected(sources.size());
      for (std::size_t p = 0; p < count; ++p) {
        for (std::size_t i = 0; i < width; ++i) {
          if (patterns[p].get(i)) {
            expected[i].w[p / kLaneCount] |= std::uint64_t{1} << (p % kLaneCount);
          }
        }
      }
      for (const auto& [index, value] : frame.constraints()) {
        expected[index] = block_broadcast(value);
      }
      for (std::size_t i = 0; i < width; ++i) {
        ASSERT_EQ(batch.settled[sources[i]], expected[i])
            << "width " << width << " count " << count << " bit " << i;
      }
      for (CellId id = 0; id < nl.cell_count(); ++id) {
        if (nl.cell(id).type == CellType::Const1) {
          ASSERT_EQ(batch.settled[compiled.slot(nl.cell(id).out)], block_broadcast(true));
        }
      }
    }
  }
}

TEST(FaultSim, SingleFaultDetection) {
  // y = a AND b; a/SA0 detected by pattern a=1,b=1 only.
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  nl.add_output("y", nl.n_and(a, b));
  const CombinationalFrame frame(nl);
  std::vector<BitVec> patterns;
  for (int p = 0; p < 4; ++p) {
    BitVec pat(2);
    pat.set(0, p & 1);
    pat.set(1, (p >> 1) & 1);
    patterns.push_back(pat);
  }
  const auto loaded = frame.load_batch(patterns);
  CombinationalFrame::Workspace workspace;
  const std::uint64_t mask = frame.detect_block(Fault{a, false}, loaded, workspace).w[0];
  EXPECT_EQ(mask, 0b1000u);  // only pattern 3 (a=1, b=1)
  const std::uint64_t mask_sa1 = frame.detect_block(Fault{a, true}, loaded, workspace).w[0];
  EXPECT_EQ(mask_sa1, 0b0100u);  // only pattern 2 (a=0, b=1)
}

TEST(FaultSim, RejectsBatchOfAnotherShape) {
  // Every detection path checks that the batch fits the frame, the early
  // exits that never read its good responses included.
  Netlist nl;
  const NetId a = nl.add_input("a");
  nl.add_output("y", nl.n_not(a));
  Netlist wider;
  const NetId b = wider.add_input("b");
  wider.add_output("z", wider.n_and(b, wider.add_input("c")));
  const CombinationalFrame frame(nl);
  const auto foreign = CombinationalFrame(wider).load_batch({BitVec(2)});
  CombinationalFrame::Workspace workspace;
  EXPECT_THROW(frame.detect_block(Fault{a, false}, foreign, workspace), Error);
  EXPECT_THROW(
      frame.detect_site(frame.fault_site(a), false, LaneBlock{}, foreign, workspace), Error);
}

TEST(FaultSim, ConeSimulationMatchesFullSimulationCoverage) {
  // The cone-incremental fault simulator must report exactly the coverage
  // of the retained full-circuit reference path — same detected set, same
  // first-detecting pattern per fault.
  Netlist nl = make_counter(10);
  ScanInsertionOptions options;
  options.chain_count = 2;
  insert_scan(nl, options);
  CombinationalFrame frame(nl);
  frame.constrain("se", false);
  frame.constrain("retain", false);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Rng rng(12);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 100; ++i) {  // two batches, second partial
    patterns.push_back(frame.random_pattern(rng));
  }
  constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> reference(faults.size(), npos);
  std::size_t reference_detected = 0;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    const auto good = frame.good_response_words(batch);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (reference[fi] != npos) {
        continue;
      }
      const std::uint64_t mask = frame.detect_mask_full(faults[fi], batch, good);
      if (mask != 0) {
        reference[fi] = base + static_cast<std::size_t>(std::countr_zero(mask));
        ++reference_detected;
      }
    }
  }
  const FaultSimResult result = fault_simulate(frame, faults, patterns);
  EXPECT_EQ(result.detected_by, reference);
  EXPECT_EQ(result.detected, reference_detected);
  EXPECT_GT(result.detected, 0u);
}

TEST(FaultSim, ExhaustivePatternsDetectAllAdderFaults) {
  Netlist nl = make_registered_adder(2);
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Rng rng(2);
  std::vector<BitVec> patterns;
  for (int i = 0; i < 256; ++i) {
    patterns.push_back(frame.random_pattern(rng));
  }
  const FaultSimResult result = fault_simulate(frame, faults, patterns);
  // The adder frame is fully testable; 256 random patterns over a handful
  // of inputs saturate it.
  EXPECT_EQ(result.detected, result.total_faults);
}

TEST(Podem, GeneratesTestsCrossCheckedByFaultSim) {
  Netlist nl = make_registered_adder(4);
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Podem podem(frame);
  Rng rng(3);
  CombinationalFrame::Workspace workspace;
  std::size_t generated = 0;
  for (const Fault& fault : faults) {
    const PodemResult result = podem.generate(fault, rng);
    ASSERT_FALSE(result.aborted) << fault_name(nl, fault);
    if (result.success) {
      ++generated;
      // The generated pattern must actually detect the fault.
      const auto loaded = frame.load_batch({result.pattern});
      EXPECT_NE(frame.detect_block(fault, loaded, workspace).w[0], 0u)
          << fault_name(nl, fault);
    }
  }
  EXPECT_EQ(generated, faults.size());  // adder has no redundant faults
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  // y = b OR (a AND NOT a): the AND output is constant 0, so its SA0 is
  // untestable (classic redundancy).
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId and_out = nl.n_and(a, nl.n_not(a));
  nl.add_output("y", nl.n_or(b, and_out));
  const CombinationalFrame frame(nl);
  Podem podem(frame);
  Rng rng(4);
  const PodemResult sa0 = podem.generate(Fault{and_out, false}, rng);
  EXPECT_FALSE(sa0.success);
  EXPECT_TRUE(sa0.untestable);
  // SA1 on the same net is testable (set b=0, observe 1 instead of 0).
  const PodemResult sa1 = podem.generate(Fault{and_out, true}, rng);
  EXPECT_TRUE(sa1.success);
}

TEST(Podem, LatchOutputsAreZeroSources) {
  // The frame loads a latch output like every source that is not a PI or
  // PPI: as 0. So y = q AND a is constant 0 — y stuck-at-0 is redundant and
  // stuck-at-1 is detected — and no backtrace may walk into the latch.
  const Netlist nl = read_verilog_text(
      "module latch_and(d, en, a, y);\n"
      "  input d, en, a;\n"
      "  output y;\n"
      "  wire q;\n"
      "  TLATX1 l0 (.D(d), .EN(en), .Q(q));\n"
      "  AND2X1 g0 (.A(q), .B(a), .Y(y));\n"
      "endmodule\n");
  const CombinationalFrame frame(nl);
  const NetId y = nl.output_net("y");
  Podem podem(frame);
  Rng rng(5);
  EXPECT_TRUE(podem.generate(Fault{y, false}, rng).untestable);
  const PodemResult sa1 = podem.generate(Fault{y, true}, rng);
  ASSERT_TRUE(sa1.success);
  const auto loaded = frame.load_batch({sa1.pattern});
  CombinationalFrame::Workspace workspace;
  EXPECT_NE(frame.detect_block(Fault{y, true}, loaded, workspace).w[0], 0u);

  const AtpgResult result =
      run_atpg(frame, collapse_faults(nl, enumerate_faults(nl)), AtpgOptions{});
  EXPECT_EQ(result.aborted, 0u);
  EXPECT_EQ(result.detected() + result.untestable, result.total_faults);
}

TEST(Atpg, FullFlowReachesFullCoverageOnAdder) {
  Netlist nl = make_registered_adder(4);
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions options;
  options.random_patterns = 64;
  const AtpgResult result = run_atpg(frame, faults, options);
  EXPECT_EQ(result.detected() + result.untestable, result.total_faults);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
  EXPECT_GT(result.patterns.size(), 0u);
  EXPECT_LT(result.patterns.size(), 80u);  // compaction keeps only useful ones
}

TEST(Atpg, RandomResistantFaultsNeedPodem) {
  // A wide AND tree's output SA0 needs the all-ones input — random-pattern
  // resistant at 16 inputs (p = 2^-16 per pattern).
  Netlist nl;
  std::vector<NetId> ins;
  for (int i = 0; i < 16; ++i) {
    ins.push_back(nl.add_input("i" + std::to_string(i)));
  }
  nl.add_output("y", nl.n_and_tree(ins));
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions options;
  options.random_patterns = 128;
  options.seed = 5;
  const AtpgResult result = run_atpg(frame, faults, options);
  EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
  EXPECT_GT(result.detected_podem, 0u);
}

/// Manufacturing test through real scan chains: ATPG patterns applied
/// serially to the simulated scanned design must all pass.
TEST(ScanTest, PatternsPassThroughPlainChains) {
  Netlist nl = make_counter(12);
  ScanInsertionOptions options;
  options.chain_count = 3;
  const ScanChains chains = insert_scan(nl, options);
  CombinationalFrame frame(nl);
  frame.constrain("se", false);
  frame.constrain("retain", false);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  AtpgOptions atpg_options;
  atpg_options.random_patterns = 128;
  const AtpgResult atpg = run_atpg(frame, faults, atpg_options);
  EXPECT_GT(atpg.coverage(), 0.95);

  Simulator sim(nl);
  const ScanTestResult applied =
      deliver_scan_test(sim, ScanPorts::full_width(chains), frame, atpg.patterns);
  EXPECT_EQ(applied.patterns_applied, atpg.patterns.size());
  EXPECT_TRUE(applied.all_passed());
}

/// Section III end-to-end: the same ATPG pattern set passes when delivered
/// through the Fig. 5(b) test-mode concatenation of a protected design —
/// the monitoring architecture does not disturb manufacturing test.
TEST(ScanTest, PatternsPassThroughTestModeConcatenation) {
  ProtectionConfig config;
  config.kind = CodeKind::HammingPlusCrc;
  config.chain_count = 8;
  config.test_width = 4;
  const ProtectedDesign design(make_fifo(FifoSpec{32, 2}), config);

  CombinationalFrame frame(design.netlist());
  for (const char* name :
       {"se", "retain", "mon_en", "mon_decode", "mon_clear", "sig_capture",
        "sig_compare", "test_mode"}) {
    frame.constrain(name, false);
  }
  const auto faults = collapse_faults(design.netlist(), enumerate_faults(design.netlist()));
  AtpgOptions atpg_options;
  atpg_options.random_patterns = 128;
  atpg_options.run_podem = false;  // random phase is enough for delivery check
  const AtpgResult atpg = run_atpg(frame, faults, atpg_options);
  EXPECT_GT(atpg.patterns.size(), 0u);

  RetentionSession session(design);
  const ScanTestResult via_test_ports = deliver_scan_test(
      session.sim(), ScanPorts::test_mode_of(design), frame, atpg.patterns);
  EXPECT_EQ(via_test_ports.patterns_applied, atpg.patterns.size());
  EXPECT_TRUE(via_test_ports.all_passed());

  // Oracle: delivering the same patterns by writing flop states directly
  // gives the same verdict — the concatenation plumbing is transparent.
  // (Per-chain si ports do not exist on a protected design: Fig. 2 rewires
  // them into the mode muxes, so tsi/tso is the only external scan access.)
  RetentionSession session2(design);
  Simulator& sim2 = session2.sim();
  std::size_t direct_mismatches = 0;
  for (const BitVec& pattern : atpg.patterns) {
    const BitVec good = frame.good_response(pattern);
    for (std::size_t i = 0; i < frame.pi_nets().size(); ++i) {
      sim2.set_input(frame.pi_nets()[i], pattern.get(i));
    }
    for (std::size_t i = 0; i < frame.flops().size(); ++i) {
      sim2.set_flop_state(frame.flops()[i], pattern.get(frame.pi_nets().size() + i));
    }
    sim2.eval();
    bool ok = true;
    for (std::size_t i = 0; i < frame.po_nets().size(); ++i) {
      ok = ok && sim2.net_value(frame.po_nets()[i]) == good.get(i);
    }
    sim2.step();
    for (std::size_t i = 0; i < frame.flops().size(); ++i) {
      ok = ok &&
           sim2.flop_state(frame.flops()[i]) == good.get(frame.po_nets().size() + i);
    }
    if (!ok) {
      ++direct_mismatches;
    }
  }
  EXPECT_EQ(direct_mismatches, 0u);
}

// --- run_atpg pinned ---------------------------------------------------------

std::string circuit_path(const char* file) {
  return std::string(RETSCAN_CIRCUITS_DIR) + "/" + file;
}

/// A whole AtpgResult in seven numbers: the coverage accounting plus FNV-1a
/// over every pattern's words, in pattern order.
struct AtpgPin {
  std::size_t total, detected_random, detected_podem, untestable, aborted, patterns;
  std::uint64_t digest;
};

AtpgPin pin_of(const AtpgResult& result) {
  Fnv1a h;
  for (const BitVec& pattern : result.patterns) {
    for (const std::uint64_t word : pattern.words()) {
      h.add(word);
    }
  }
  return {result.total_faults, result.detected_random, result.detected_podem,
          result.untestable,   result.aborted,         result.patterns.size(),
          h.hash};
}

/// Random budgets of 100 and 600 patterns (neither a multiple of 64, so the
/// last random batch is partial), each with PODEM off and on. The pins were
/// recorded before the random phase moved from 64-pattern batches onto the
/// fault-simulation driver's lane blocks: a fault's first detecting pattern
/// does not depend on the batch width, so neither does the pattern set.
void expect_atpg_pinned(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                        const std::string& name, const AtpgPin (&golden)[4]) {
  std::size_t row = 0;
  for (const std::size_t budget : {std::size_t{100}, std::size_t{600}}) {
    for (const bool podem : {false, true}) {
      AtpgOptions options;
      options.random_patterns = budget;
      options.run_podem = podem;
      options.max_backtracks = 50;
      options.seed = 17;
      const AtpgPin pin = pin_of(run_atpg(frame, faults, options));
      const AtpgPin& want = golden[row++];
      const std::string at = name + " random " + std::to_string(budget) +
                             (podem ? " + podem" : "");
      EXPECT_EQ(pin.total, want.total) << at;
      EXPECT_EQ(pin.detected_random, want.detected_random) << at;
      EXPECT_EQ(pin.detected_podem, want.detected_podem) << at;
      EXPECT_EQ(pin.untestable, want.untestable) << at;
      EXPECT_EQ(pin.aborted, want.aborted) << at;
      EXPECT_EQ(pin.patterns, want.patterns) << at;
      EXPECT_EQ(pin.digest, want.digest) << at;
    }
  }
}

void expect_import_pinned(const char* file, const AtpgPin (&golden)[4]) {
  const Netlist nl = Netlist::from_verilog(circuit_path(file));
  const CombinationalFrame frame(nl);
  expect_atpg_pinned(frame, collapse_faults(nl, enumerate_faults(nl)), file, golden);
}

TEST(AtpgPinned, C17) {
  // Every fault falls to the first six patterns, so PODEM never runs and the
  // budget changes nothing.
  const AtpgPin all_random{22, 22, 0, 0, 0, 6, 15683579272210780213ull};
  expect_import_pinned("c17.v", {all_random, all_random, all_random, all_random});
}

TEST(AtpgPinned, Cmp1908) {
  expect_import_pinned("cmp1908.v",
                       {{1388, 1055, 0, 0, 0, 26, 13687611401577526870ull},
                        {1388, 1055, 328, 5, 0, 109, 5908968420237105791ull},
                        {1388, 1070, 0, 0, 0, 32, 16374895556662486756ull},
                        {1388, 1070, 313, 5, 0, 110, 15058854446627367743ull}});
}

TEST(AtpgPinned, Ctrl344) {
  expect_import_pinned("ctrl344.v", {{244, 239, 0, 0, 0, 14, 1330143841040298789ull},
                                     {244, 239, 5, 0, 0, 19, 9687073970710593346ull},
                                     {244, 243, 0, 0, 0, 18, 7586188088714864541ull},
                                     {244, 243, 1, 0, 0, 19, 1536117444005872300ull}});
}

TEST(AtpgPinned, ProtectedFifoSlice) {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 8;
  protection.test_width = 4;
  Session session(FifoSpec{32, 2}, protection);
  expect_atpg_pinned(session.frame(), session.faults(), "fifo32x2",
                     {{1658, 1269, 0, 0, 0, 59, 4993619901423712619ull},
                      {1658, 1269, 50, 157, 182, 70, 9686416392427440565ull},
                      {1658, 1319, 0, 0, 0, 70, 322470271282920412ull},
                      {1658, 1319, 0, 157, 182, 70, 322470271282920412ull}});
}

// --- PODEM per-call pins -----------------------------------------------------

/// Every PODEM call over strided targets among the faults a 128-pattern
/// random phase leaves undetected, one token per call: S(uccess),
/// U(ntestable) or A(borted) followed by its backtrack count. `digest` is
/// FNV-1a over the words of every generated pattern, so it also pins the
/// X-fill draws. AtpgPinned only sees aggregates; these pin the search.
struct PodemPin {
  std::string calls;
  std::uint64_t digest;
};

PodemPin podem_pin(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                   std::size_t stride, std::size_t max_backtracks) {
  Rng rng(23);
  std::vector<BitVec> random;
  for (int i = 0; i < 128; ++i) {
    random.push_back(frame.random_pattern(rng));
  }
  const FaultSimResult first = fault_simulate(frame, faults, random);
  Podem podem(frame, max_backtracks);
  PodemPin pin{};
  Fnv1a h;
  std::size_t left = 0;
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (first.detected_by[fi] != FaultSimResult::npos || left++ % stride != 0) {
      continue;
    }
    const PodemResult result = podem.generate(faults[fi], rng);
    pin.calls += std::string(pin.calls.empty() ? "" : " ") +
                 (result.success ? "S" : result.untestable ? "U" : "A") +
                 std::to_string(result.backtracks);
    for (const std::uint64_t word : result.pattern.words()) {
      h.add(word);
    }
  }
  pin.digest = h.hash;
  return pin;
}

/// Pins at 100 and 300 backtracks, recorded on the interpreted PODEM the
/// compiled one replaced.
void expect_podem_pinned(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                         const std::string& name, std::size_t stride,
                         const PodemPin (&golden)[2]) {
  const std::size_t budgets[2] = {100, 300};
  for (std::size_t row = 0; row < 2; ++row) {
    const PodemPin pin = podem_pin(frame, faults, stride, budgets[row]);
    const std::string at = name + " at " + std::to_string(budgets[row]) + " backtracks";
    EXPECT_EQ(pin.calls, golden[row].calls) << at;
    EXPECT_EQ(pin.digest, golden[row].digest) << at;
  }
}

void expect_podem_import_pinned(const char* file, std::size_t stride,
                                const PodemPin (&golden)[2]) {
  const Netlist nl = Netlist::from_verilog(circuit_path(file));
  const CombinationalFrame frame(nl);
  expect_podem_pinned(frame, collapse_faults(nl, enumerate_faults(nl)), file, stride, golden);
}

TEST(PodemPinned, Cmp1908) {
  expect_podem_import_pinned(
      "cmp1908.v", 20,
      {{"S0 S0 S0 S0 S1 S0 S0 S1 S0 S0 S0 S0 S0 S0 S0 S0", 8945726784160628955ull},
       {"S0 S0 S0 S0 S1 S0 S0 S1 S0 S0 S0 S0 S0 S0 S0 S0", 8945726784160628955ull}});
}

TEST(PodemPinned, EpflMax) {
  expect_podem_import_pinned(
      "epfl_max.v", 40,
      {{"U0 A101 A101 A101 A101 A101 S1 S1 S1 A101 A101 A101 A101 A101 A101 "
        "A101 A101 A101 A101 A101 A101 A101 A101 A101 A101 A101 A101 S1 S0 "
        "S0 S1 S0 S0 S1 S0",
        15969809443690000651ull},
       {"U0 A301 A301 A301 A301 A301 S1 S1 S1 A301 A301 A301 A301 A301 A301 "
        "A301 A301 A301 A301 A301 A301 A301 A301 A301 A301 A301 A301 S1 S0 "
        "S0 S1 S0 S0 S1 S0",
        15969809443690000651ull}});
}

TEST(PodemPinned, Bar5315) {
  expect_podem_import_pinned(
      "bar5315.v", 20,
      {{"S0 S28 S18 S8 S14 S4 U0 S30 S0 S24 S20 S0 S14 S10 S0 S4 S16 S0 S10 "
        "S6 S0 S8 S4 S4 S1 S1 S1 S1 S1 S1 S1 S1 S1 S1 S1 S1",
        7444551994691915726ull},
       {"S0 S28 S18 S8 S14 S4 U0 S30 S0 S24 S20 S0 S14 S10 S0 S4 S16 S0 S10 "
        "S6 S0 S8 S4 S4 S1 S1 S1 S1 S1 S1 S1 S1 S1 S1 S1 S1",
        7444551994691915726ull}});
}

TEST(PodemPinned, ProtectedFifoSlice) {
  ProtectionConfig protection;
  protection.kind = CodeKind::HammingPlusCrc;
  protection.chain_count = 8;
  protection.test_width = 4;
  Session session(FifoSpec{32, 2}, protection);
  expect_podem_pinned(
      session.frame(), session.faults(), "fifo32x2", 20,
      {{"S1 S1 S1 A101 U11 U0 U55 U11 U55 U1 U23 U65 U65 U11 U17 U31 A101 "
        "A101 A101 U1",
        11181108021930453634ull},
       {"S1 S1 S1 A301 U11 U0 U55 U11 U55 U1 U23 U65 U65 U11 U17 U31 A301 "
        "A301 A301 U1",
        11181108021930453634ull}});
}

// --- PODEM instance reuse ----------------------------------------------------

/// What one PODEM call decided.
struct PodemCall {
  bool success = false;
  bool untestable = false;
  bool aborted = false;
  std::size_t backtracks = 0;
  std::vector<std::uint64_t> pattern;
  friend bool operator==(const PodemCall&, const PodemCall&) = default;
};

/// PODEM on every `stride`-th fault, each call's Rng seeded from the fault's
/// index. One Podem serves the targets forward or in reverse, or each
/// target gets a fresh Podem; the calls come back in target order.
std::vector<PodemCall> podem_calls(const CombinationalFrame& frame,
                                   const std::vector<Fault>& faults, std::size_t stride,
                                   bool reverse, bool fresh) {
  constexpr std::size_t kBudget = 100;
  std::vector<std::size_t> targets;
  for (std::size_t fi = 0; fi < faults.size(); fi += stride) {
    targets.push_back(fi);
  }
  if (reverse) {
    std::reverse(targets.begin(), targets.end());
  }
  Podem shared(frame, kBudget);
  std::vector<PodemCall> calls(faults.size());
  for (const std::size_t fi : targets) {
    Rng rng(Rng::derive_stream(0x7e05e, fi));
    const PodemResult result =
        fresh ? Podem(frame, kBudget).generate(faults[fi], rng) : shared.generate(faults[fi], rng);
    calls[fi] = {result.success, result.untestable, result.aborted, result.backtracks,
                 result.pattern.words()};
  }
  return calls;
}

/// A Podem keeps its D-frontier bitmap, D counts and worklist between
/// calls; none of it may leak from one target into the next, in any order.
void expect_reuse_matches_fresh(const CombinationalFrame& frame,
                                const std::vector<Fault>& faults, std::size_t stride,
                                const std::string& name, std::size_t& successes,
                                std::size_t& failures) {
  const std::vector<PodemCall> fresh = podem_calls(frame, faults, stride, false, true);
  const std::vector<PodemCall> forward = podem_calls(frame, faults, stride, false, false);
  const std::vector<PodemCall> reverse = podem_calls(frame, faults, stride, true, false);
  for (std::size_t fi = 0; fi < faults.size(); fi += stride) {
    EXPECT_TRUE(forward[fi] == fresh[fi]) << name << ": fault " << fi << " (forward)";
    EXPECT_TRUE(reverse[fi] == fresh[fi]) << name << ": fault " << fi << " (reverse)";
    (fresh[fi].success ? successes : failures) += 1;
  }
}

TEST(Podem, ReusedInstanceMatchesFreshInstances) {
  std::size_t successes = 0;
  std::size_t failures = 0;  // untestable or aborted
  {
    const Netlist nl = Netlist::from_verilog(circuit_path("cmp1908.v"));
    const CombinationalFrame frame(nl);
    expect_reuse_matches_fresh(frame, collapse_faults(nl, enumerate_faults(nl)), 7, "cmp1908",
                               successes, failures);
  }
  {
    ProtectionConfig protection;
    protection.kind = CodeKind::HammingPlusCrc;
    protection.chain_count = 8;
    protection.test_width = 4;
    Session session(FifoSpec{32, 2}, protection);
    expect_reuse_matches_fresh(session.frame(), session.faults(), 3, "fifo32x2", successes,
                               failures);
  }
  for (std::uint64_t f = 0; f < 8; ++f) {
    Rng rng(Rng::derive_stream(0x7e05e'f00, f));
    const RandomFrame rf = random_frame(rng, {.latches = true});
    CombinationalFrame frame(rf.netlist);
    for (const auto& [input, value] : rf.constraints) {
      frame.constrain(input, value);
    }
    expect_reuse_matches_fresh(frame, collapse_faults(rf.netlist, enumerate_faults(rf.netlist)),
                               1, "random frame " + std::to_string(f), successes, failures);
  }
  // Both kinds of outcome follow a call that leaves Ds behind.
  EXPECT_GT(successes, 100u);
  EXPECT_GT(failures, 10u);
}

}  // namespace
}  // namespace retscan
