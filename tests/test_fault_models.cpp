// Transition-delay, bridging and sequential fault models (atpg/fault_models):
// hand-computed detections on gate-sized circuits, golden coverage
// regressions on the vendored benchmarks (c17 / s27 + two mid-size designs),
// pooled bit-identity at 1, 3 and 8 threads, every
// model (stuck-at included) pinned across shard plans and degenerate inputs,
// and the campaign-kind plumbing (routing, validation, spellings). The
// hand-computed cases run each model as one shard on a one-thread pool.

#include "atpg/fault_models.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "netlist/verilog_reader.hpp"
#include "retscan/campaign.hpp"
#include "retscan/session.hpp"
#include "util/error.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

std::string circuit_path(const char* file) {
  return std::string(RETSCAN_CIRCUITS_DIR) + "/" + file;
}

BitVec make_pattern(std::initializer_list<int> bits) {
  BitVec pattern(bits.size());
  std::size_t i = 0;
  for (const int bit : bits) {
    pattern.set(i++, bit != 0);
  }
  return pattern;
}

std::string error_message(const std::function<void()>& body) {
  try {
    body();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

// --- transition delay: hand-computed --------------------------------------

constexpr const char* kBufModule =
    "module t(a, y);\n"
    "  input a;\n"
    "  output y;\n"
    "  assign y = a;\n"
    "endmodule\n";

TEST(TransitionDelay, BufferHandComputed) {
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const CombinationalFrame frame(nl);
  const NetId a = nl.find_net("a");
  const std::vector<TransitionFault> faults = {{a, true}, {a, false}};

  // Pattern sequence 0, 1, 0 → pair 0 launches a rising edge on `a`, pair 1
  // a falling edge. STR needs launch 0 + SA0 detected at capture (pair 0);
  // STF needs launch 1 + SA1 detected at capture (pair 1).
  const std::vector<BitVec> patterns = {make_pattern({0}), make_pattern({1}),
                                        make_pattern({0})};
  ThreadPool one(1);
  const FaultSimResult result = transition_fault_simulate(frame, faults, patterns, one);
  EXPECT_EQ(result.total_faults, 2u);
  EXPECT_EQ(result.detected, 2u);
  EXPECT_EQ(result.detected_by[0], 0u);  // STR by the 0→1 pair
  EXPECT_EQ(result.detected_by[1], 1u);  // STF by the 1→0 pair
}

TEST(TransitionDelay, ConstantPatternsLaunchNothing) {
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const CombinationalFrame frame(nl);
  const NetId a = nl.find_net("a");
  const std::vector<TransitionFault> faults = {{a, true}, {a, false}};

  // A 1,1 pair would *capture* SA0 on `a`, but the launch value never sets
  // up the rising transition — the launch mask must veto the detection.
  const std::vector<BitVec> ones = {make_pattern({1}), make_pattern({1})};
  ThreadPool one(1);
  const FaultSimResult none = transition_fault_simulate(frame, faults, ones, one);
  EXPECT_EQ(none.detected, 0u);
  EXPECT_EQ(none.detected_by[0], FaultSimResult::npos);
  EXPECT_EQ(none.detected_by[1], FaultSimResult::npos);
}

TEST(TransitionDelay, EnumerationCoversStuckAtUniverse) {
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const std::vector<TransitionFault> faults = enumerate_transition_faults(nl);
  EXPECT_EQ(faults.size(), enumerate_faults(nl).size());
  const std::string name = transition_fault_name(nl, {nl.find_net("a"), true});
  EXPECT_NE(name.find("/STR"), std::string::npos);
  EXPECT_NE(name.find('a'), std::string::npos);
}

// --- bridging: hand-computed ----------------------------------------------

constexpr const char* kBridgeModule =
    "module t(a, b, y, z);\n"
    "  input a;\n"
    "  input b;\n"
    "  output y;\n"
    "  output z;\n"
    "  assign y = a & b;\n"
    "  assign z = a | b;\n"
    "endmodule\n";

TEST(Bridging, GateInputPairHandComputed) {
  const Netlist nl = read_verilog_text(kBridgeModule, "bridge.v");
  const CombinationalFrame frame(nl);

  // Both gates share the same (a, b) input pair; after dedup exactly one
  // pair remains, one wired-AND and one wired-OR fault.
  const std::vector<BridgingFault> faults = enumerate_bridging_faults(nl);
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_TRUE(faults[0].wired_and);
  EXPECT_FALSE(faults[1].wired_and);
  EXPECT_EQ(faults[0].a, faults[1].a);
  EXPECT_EQ(faults[0].b, faults[1].b);

  // a=1, b=0 drives the nets apart: wired-AND forces both to 0 (z drops to
  // 0, good 1); wired-OR forces both to 1 (y rises to 1, good 0).
  const std::vector<BitVec> split = {make_pattern({1, 0})};
  ThreadPool one(1);
  const FaultSimResult detected = bridging_fault_simulate(frame, faults, split, one);
  EXPECT_EQ(detected.detected, 2u);
  EXPECT_EQ(detected.detected_by[0], 0u);
  EXPECT_EQ(detected.detected_by[1], 0u);

  // Patterns that never drive a and b apart cannot expose either dominance.
  const std::vector<BitVec> agree = {make_pattern({0, 0}), make_pattern({1, 1})};
  const FaultSimResult none = bridging_fault_simulate(frame, faults, agree, one);
  EXPECT_EQ(none.detected, 0u);

  const std::string name = bridging_fault_name(nl, faults[0]);
  EXPECT_NE(name.find("/AND"), std::string::npos);
}

// b is driven from a: bridging a and b is a feedback bridge.
constexpr const char* kFeedbackBridgeModule =
    "module t(a, c, b, y);\n"
    "  input a;\n"
    "  input c;\n"
    "  output b;\n"
    "  output y;\n"
    "  assign b = a ^ c;\n"
    "  assign y = a & b;\n"
    "endmodule\n";

TEST(Bridging, FeedbackBridgeRecomputesTheDownstreamNet) {
  const Netlist nl = read_verilog_text(kFeedbackBridgeModule, "feedback.v");
  const CombinationalFrame frame(nl);
  const NetId a = nl.find_net("a");
  const NetId b = nl.find_net("b");
  // The a/b pair is a gate-input bridge of y's AND gate.
  const std::vector<BridgingFault> universe = enumerate_bridging_faults(nl);
  EXPECT_NE(std::find(universe.begin(), universe.end(), BridgingFault{a, b, true}),
            universe.end());

  // Only a, the upstream net, is held at the wired value; b = a ^ c is
  // recomputed from it. Patterns are (a, c); good (b, y) is (1, 0) at (0, 1)
  // and (0, 0) at (1, 1), the two patterns that drive a and b apart.
  //   wired-AND at (1, 1): a drops to 0, so b = 0 ^ 1 = 1: b differs.
  //   wired-AND at (0, 1): a is already 0 and b = 0 ^ 1 stays 1: no
  //     difference (holding b at 0 too would show at b).
  //   wired-OR at (0, 1): a rises to 1, so b = 1 ^ 1 = 0 and y = 1 & 0 = 0:
  //     b differs.
  //   wired-OR at (1, 1): a is already 1 and b stays 0: no difference
  //     (holding b at 1 too would show at b and y).
  const std::vector<BitVec> patterns = {make_pattern({0, 0}), make_pattern({0, 1}),
                                        make_pattern({1, 0}), make_pattern({1, 1})};
  ThreadPool one(1);
  for (const bool a_first : {true, false}) {
    const NetId first = a_first ? a : b;
    const NetId second = a_first ? b : a;
    const std::vector<BridgingFault> faults = {{first, second, true},
                                               {first, second, false}};
    const FaultSimResult result = bridging_fault_simulate(frame, faults, patterns, one);
    EXPECT_EQ(result.detected, 2u);
    EXPECT_EQ(result.detected_by[0], 3u) << "wired-AND, a first: " << a_first;
    EXPECT_EQ(result.detected_by[1], 1u) << "wired-OR, a first: " << a_first;
    const FaultSimResult at_01 =
        bridging_fault_simulate(frame, faults, {make_pattern({0, 1})}, one);
    EXPECT_EQ(at_01.detected_by[0], FaultSimResult::npos);
    EXPECT_EQ(at_01.detected_by[1], 0u);
    const FaultSimResult at_11 =
        bridging_fault_simulate(frame, faults, {make_pattern({1, 1})}, one);
    EXPECT_EQ(at_11.detected_by[0], 0u);
    EXPECT_EQ(at_11.detected_by[1], FaultSimResult::npos);
  }
}

// --- sequential: hand-checked ---------------------------------------------

constexpr const char* kFlopModule =
    "module t(CK, d, q);\n"
    "  input CK;\n"
    "  input d;\n"
    "  output q;\n"
    "  DFFX1 f0 (.D(d), .CK(CK), .Q(q));\n"
    "endmodule\n";

TEST(Sequential, FlopOutputFaultsDetectedThroughCycles) {
  const Netlist nl = Netlist(read_verilog_text(kFlopModule, "flop.v"));
  const NetId q = nl.find_net("q");
  const std::vector<Fault> faults = {{q, false}, {q, true}};

  // From the all-zero state, SA1 on q differs the moment the good machine
  // holds d=0 (cycle after reset at the latest); SA0 needs a 1 to have been
  // clocked through. The random stimulus hits both within a few cycles.
  ThreadPool one(1);
  const FaultSimResult serial = sequential_fault_simulate(nl, faults, 4, 8, 99, one);
  EXPECT_EQ(serial.total_faults, 2u);
  EXPECT_EQ(serial.detected, 2u);

  ThreadPool pool(4);
  const FaultSimResult pooled =
      sequential_fault_simulate(nl, faults, 4, 8, 99, pool, 1);
  EXPECT_EQ(pooled.detected, serial.detected);
  EXPECT_EQ(pooled.detected_by, serial.detected_by);
}

TEST(Sequential, CombinationalNetlistDegeneratesToSingleCycle) {
  // No flops: every cycle evaluates the same function of fresh inputs, so
  // the model still runs (degenerate but well-defined) and detects the
  // observable faults.
  const Netlist nl = read_verilog_text(kBufModule, "buf.v");
  const NetId a = nl.find_net("a");
  const std::vector<Fault> faults = {{a, false}, {a, true}};
  ThreadPool one(1);
  const FaultSimResult result = sequential_fault_simulate(nl, faults, 2, 4, 3, one);
  EXPECT_EQ(result.detected, 2u);
}

// --- golden regressions on vendored circuits ------------------------------

/// `threads` = 0 runs on the session's pool, else on a runner of that many.
CampaignResult run_kind(Session& session, CampaignKind kind, unsigned threads = 0) {
  CampaignSpec spec;
  spec.kind = kind;
  spec.seed = 11;
  spec.atpg.random_patterns = 64;
  if (kind == CampaignKind::SequentialCoverage) {
    spec.sequences = 16;
    spec.cycles = 32;
  }
  if (threads == 0) {
    return run(session, spec);
  }
  parallel::CampaignRunner runner(parallel::CampaignOptions{.threads = threads});
  RunHooks hooks;
  hooks.runner = &runner;
  return run(session, spec, hooks);
}

struct Golden {
  std::size_t detected;
  std::size_t total;
};

void expect_golden(const CampaignResult& result, const Golden& golden) {
  EXPECT_EQ(result.faults.detected, golden.detected);
  EXPECT_EQ(result.faults.total_faults, golden.total);
}

TEST(GoldenCoverage, C17AllCombinationalModels) {
  Session session = Session::from_verilog(circuit_path("c17.v"));
  expect_golden(run_kind(session, CampaignKind::FaultCoverage), {22, 22});
  // Transition totals come from the *uncollapsed* stem universe (a buffered
  // stem still delays independently), so they can exceed the stuck-at total.
  expect_golden(run_kind(session, CampaignKind::TransitionDelay), {17, 22});
  expect_golden(run_kind(session, CampaignKind::Bridging), {10, 12});
}

TEST(GoldenCoverage, S27Sequential) {
  Session session =
      Session::unprotected(Netlist::from_verilog(circuit_path("s27.v")));
  expect_golden(run_kind(session, CampaignKind::SequentialCoverage), {30, 30});
}

TEST(GoldenCoverage, Cmp1908MidSizeCombinational) {
  Session session = Session::from_verilog(circuit_path("cmp1908.v"));
  expect_golden(run_kind(session, CampaignKind::FaultCoverage), {1383, 1388});
  expect_golden(run_kind(session, CampaignKind::TransitionDelay), {2229, 2368});
  expect_golden(run_kind(session, CampaignKind::Bridging), {750, 940});
}

TEST(GoldenCoverage, Ctrl344MidSizeSequential) {
  Session session =
      Session::unprotected(Netlist::from_verilog(circuit_path("ctrl344.v")));
  expect_golden(run_kind(session, CampaignKind::SequentialCoverage), {147, 244});
}

// --- invariance: thread counts --------------------------------------------

void expect_identical(const CampaignResult& lhs, const CampaignResult& rhs) {
  EXPECT_EQ(lhs.faults.detected, rhs.faults.detected);
  EXPECT_EQ(lhs.faults.total_faults, rhs.faults.total_faults);
  EXPECT_EQ(lhs.faults.detected_by, rhs.faults.detected_by);
}

TEST(Invariance, TransitionDelayThreads) {
  Session session = Session::from_verilog(circuit_path("cmp1908.v"));
  const CampaignResult serial = run_kind(session, CampaignKind::TransitionDelay, 1);
  const CampaignResult three = run_kind(session, CampaignKind::TransitionDelay, 3);
  const CampaignResult eight = run_kind(session, CampaignKind::TransitionDelay, 8);
  expect_identical(serial, three);
  expect_identical(serial, eight);
}

TEST(Invariance, BridgingThreads) {
  Session session = Session::from_verilog(circuit_path("cmp1908.v"));
  const CampaignResult serial = run_kind(session, CampaignKind::Bridging, 1);
  const CampaignResult eight = run_kind(session, CampaignKind::Bridging, 8);
  expect_identical(serial, eight);
}

TEST(Invariance, SequentialThreads) {
  Session session =
      Session::unprotected(Netlist::from_verilog(circuit_path("s27.v")));
  const CampaignResult serial = run_kind(session, CampaignKind::SequentialCoverage, 1);
  const CampaignResult three = run_kind(session, CampaignKind::SequentialCoverage, 3);
  const CampaignResult eight = run_kind(session, CampaignKind::SequentialCoverage, 8);
  expect_identical(serial, three);
  expect_identical(serial, eight);
}

// --- one driver: pinned results across shard plans ------------------------

/// {detected, FNV-1a of detected_by}: a whole FaultSimResult in two numbers.
struct Pin {
  std::size_t detected;
  std::uint64_t digest;
};

Pin pin_of(const FaultSimResult& result) {
  Fnv1a h;
  for (const std::size_t index : result.detected_by) {
    h.add(index);
  }
  return {result.detected, h.hash};
}

/// `simulate(pooled...)` forwards its trailing (pool[, fault_shard])
/// arguments to a model's pooled entry point. Every shard plan must give
/// `golden`, the serial one (the whole fault list as one shard on one
/// thread) included. `late_detections`: some first detection lies past the
/// first lane block, so the pin also guards the block offset of dropped
/// faults.
template <typename Simulate>
void expect_pinned(const Simulate& simulate, std::size_t total, const Pin& golden,
                   bool late_detections = true) {
  const auto check = [&](const FaultSimResult& result, const std::string& plan) {
    EXPECT_EQ(result.total_faults, total) << plan;
    const Pin pin = pin_of(result);
    EXPECT_EQ(pin.detected, golden.detected) << plan;
    EXPECT_EQ(pin.digest, golden.digest) << plan;
  };
  ThreadPool one(1);
  const FaultSimResult serial = simulate(one, total);
  check(serial, "serial");
  EXPECT_EQ(std::any_of(serial.detected_by.begin(), serial.detected_by.end(),
                        [](std::size_t index) {
                          return index != FaultSimResult::npos && index >= kLaneBlockBits;
                        }),
            late_detections);
  for (const unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    const std::string at = " at " + std::to_string(threads) + " threads";
    for (const std::size_t shard : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
      check(simulate(pool, shard), "fault_shard " + std::to_string(shard) + at);
    }
    check(simulate(pool), "default fault_shard" + at);
  }
}

/// 600 patterns span three 256-lane blocks (the last one partial), so faults
/// drop across blocks. The pins were recorded from the per-model simulators
/// before they shared one driver.
struct Cmp1908Patterns {
  Netlist netlist = Netlist::from_verilog(circuit_path("cmp1908.v"));
  CombinationalFrame frame{netlist};
  std::vector<BitVec> patterns;

  Cmp1908Patterns() {
    Rng rng(13);
    for (int p = 0; p < 600; ++p) {
      patterns.push_back(frame.random_pattern(rng));
    }
  }
};

TEST(OneDriver, StuckAtPinnedAcrossShardPlans) {
  const Cmp1908Patterns c;
  const std::vector<Fault> faults = collapse_faults(c.netlist, enumerate_faults(c.netlist));
  expect_pinned(
      [&](auto&&... pooled) { return fault_simulate(c.frame, faults, c.patterns, pooled...); },
      faults.size(), {1099, 13481544910609953155ull});
  // The serial overload (run_atpg's random phase) loads blocks as it goes.
  const Pin serial = pin_of(fault_simulate(c.frame, faults, c.patterns));
  EXPECT_EQ(serial.detected, 1099u);
  EXPECT_EQ(serial.digest, 13481544910609953155ull);
}

TEST(OneDriver, TransitionPinnedAcrossShardPlans) {
  const Cmp1908Patterns c;
  const std::vector<TransitionFault> faults = enumerate_transition_faults(c.netlist);
  expect_pinned(
      [&](auto&&... pooled) {
        return transition_fault_simulate(c.frame, faults, c.patterns, pooled...);
      },
      faults.size(), {1927, 3839338151312350759ull});
}

TEST(OneDriver, BridgingPinnedAcrossShardPlans) {
  const Cmp1908Patterns c;
  const std::vector<BridgingFault> faults = enumerate_bridging_faults(c.netlist);
  expect_pinned(
      [&](auto&&... pooled) {
        return bridging_fault_simulate(c.frame, faults, c.patterns, pooled...);
      },
      faults.size(), {680, 16053096403585326634ull});
}

TEST(OneDriver, SequentialPinnedAcrossShardPlans) {
  const Netlist nl = Netlist::from_verilog(circuit_path("ctrl344.v"));
  const std::vector<Fault> faults = collapse_faults(nl, enumerate_faults(nl));
  expect_pinned(
      [&](auto&&... pooled) {
        return sequential_fault_simulate(nl, faults, 600, 16, 5, pooled...);
      },
      faults.size(),
      {141, 10512223340127629962ull},
      // ctrl344's faults fall in the first block or never: the later blocks
      // run only the survivors.
      false);
}

/// Degenerate inputs: every model, as one shard on one thread and pooled,
/// reports every fault undetected (or no faults at all) rather than
/// indexing past its input; so does the serial stuck-at overload.
TEST(OneDriver, DegenerateInputsDetectNothing) {
  const Netlist nl = Netlist::from_verilog(circuit_path("c17.v"));
  const CombinationalFrame frame(nl);
  const std::vector<Fault> stuck = collapse_faults(nl, enumerate_faults(nl));
  const std::vector<TransitionFault> transition = enumerate_transition_faults(nl);
  const std::vector<BridgingFault> bridging = enumerate_bridging_faults(nl);
  Rng rng(3);
  const std::vector<BitVec> none;
  const std::vector<BitVec> one = {frame.random_pattern(rng)};
  ThreadPool serial(1);
  ThreadPool pool(4);

  const auto expect_nothing = [](const FaultSimResult& result, std::size_t total,
                                 const std::string& what) {
    EXPECT_EQ(result.total_faults, total) << what;
    EXPECT_EQ(result.detected, 0u) << what;
    EXPECT_EQ(result.detected_by, std::vector<std::size_t>(total, FaultSimResult::npos))
        << what;
  };
  const auto both = [&](const auto& simulate, std::size_t total, const std::string& what) {
    expect_nothing(simulate(serial, total), total, what + ", serial");
    expect_nothing(simulate(pool, std::size_t{3}), total, what + ", pooled");
  };
  expect_nothing(fault_simulate(frame, {}, one), 0, "stuck-at, no faults, serial overload");
  expect_nothing(fault_simulate(frame, stuck, none), stuck.size(),
                 "stuck-at, no patterns, serial overload");

  both([&](auto&&... p) { return fault_simulate(frame, {}, one, p...); }, 0,
       "stuck-at, no faults");
  both([&](auto&&... p) { return transition_fault_simulate(frame, {}, one, p...); }, 0,
       "transition, no faults");
  both([&](auto&&... p) { return bridging_fault_simulate(frame, {}, one, p...); }, 0,
       "bridging, no faults");
  both([&](auto&&... p) { return sequential_fault_simulate(nl, {}, 64, 8, 1, p...); }, 0,
       "sequential, no faults");

  both([&](auto&&... p) { return fault_simulate(frame, stuck, none, p...); }, stuck.size(),
       "stuck-at, no patterns");
  both([&](auto&&... p) { return transition_fault_simulate(frame, transition, none, p...); },
       transition.size(), "transition, no patterns");
  both([&](auto&&... p) { return bridging_fault_simulate(frame, bridging, none, p...); },
       bridging.size(), "bridging, no patterns");
  both([&](auto&&... p) { return transition_fault_simulate(frame, transition, one, p...); },
       transition.size(), "transition, one pattern (zero pairs)");
  both([&](auto&&... p) { return sequential_fault_simulate(nl, stuck, 0, 8, 1, p...); },
       stuck.size(), "sequential, zero sequences");
  both([&](auto&&... p) { return sequential_fault_simulate(nl, stuck, 64, 0, 1, p...); },
       stuck.size(), "sequential, zero cycles");
}

// --- campaign plumbing ----------------------------------------------------

TEST(CampaignKinds, SpellingsRoundTrip) {
  for (const CampaignKind kind :
       {CampaignKind::TransitionDelay, CampaignKind::Bridging,
        CampaignKind::SequentialCoverage}) {
    CampaignKind parsed;
    ASSERT_TRUE(from_string(to_string(kind), parsed)) << to_string(kind);
    EXPECT_EQ(parsed, kind);
  }
  CampaignKind parsed;
  EXPECT_STREQ(to_string(CampaignKind::TransitionDelay), "transition-delay");
  EXPECT_STREQ(to_string(CampaignKind::Bridging), "bridging");
  EXPECT_STREQ(to_string(CampaignKind::SequentialCoverage), "sequential-coverage");
  EXPECT_FALSE(from_string("transition_delay", parsed));
}

TEST(CampaignKinds, ValidationRejectsCyclesMisuse) {
  Session session = Session::from_verilog(circuit_path("c17.v"));

  CampaignSpec stray;
  stray.kind = CampaignKind::FaultCoverage;
  stray.cycles = 8;
  EXPECT_NE(error_message([&] { validate(stray, session); })
                .find("cycles only applies to sequential-coverage"),
            std::string::npos);

  CampaignSpec no_cycles;
  no_cycles.kind = CampaignKind::SequentialCoverage;
  no_cycles.sequences = 16;
  EXPECT_NE(error_message([&] { validate(no_cycles, session); })
                .find("cycles must be > 0"),
            std::string::npos);

  CampaignSpec no_sequences;
  no_sequences.kind = CampaignKind::SequentialCoverage;
  no_sequences.cycles = 32;
  EXPECT_NE(error_message([&] { validate(no_sequences, session); })
                .find("sequences must be > 0"),
            std::string::npos);
}

TEST(CampaignKinds, TransitionDelayRunShape) {
  Session session = Session::from_verilog(circuit_path("c17.v"));
  const CampaignResult result = run_kind(session, CampaignKind::TransitionDelay);
  EXPECT_EQ(result.kind, CampaignKind::TransitionDelay);
  EXPECT_FALSE(result.atpg.patterns.empty());
  EXPECT_GT(result.faults.total_faults, 0u);
  EXPECT_TRUE(result.passed());
  // detected_by indexes launch/capture *pairs*: every value is in range.
  for (const std::size_t pair : result.faults.detected_by) {
    if (pair != FaultSimResult::npos) {
      EXPECT_LT(pair, result.atpg.patterns.size() - 1);
    }
  }
}

}  // namespace
}  // namespace retscan
