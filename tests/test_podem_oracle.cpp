// Exhaustive differential oracle for PODEM: a seeded generator builds small
// random combinational frames (3-10 decision inputs counting flop PPIs, all
// nine gate types, constant cells, constrained inputs, reconvergent fanout,
// every gate output observed; one family adds latches), and PODEM runs on
// every collapsed fault at a backtrack budget the decision tree cannot
// exceed. Each verdict is checked against exhaustive simulation through the
// frame's reference interpreter (detect_mask_full) over every
// constraint-consistent pattern: an `untestable` fault must escape all of
// them, a generated pattern must detect its target and honour the
// constraints, and no call may abort. Seeds are deterministic;
// RETSCAN_FUZZ_SEEDS widens the sweep (default 16 seeds x 64 frames). A
// failure prints the seed, the frame and a netlist dump reduced to the logic
// between the fault and the outputs it reaches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "atpg/podem.hpp"
#include "fuzz_seeds.hpp"
#include "random_frame.hpp"
#include "util/bitvec.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace retscan {
namespace {

/// Every constraint-consistent pattern of the frame, in 64-pattern batches
/// with their good-machine responses.
struct Exhaustive {
  std::vector<std::vector<BitVec>> batches;
  std::vector<std::vector<std::uint64_t>> good;
};

Exhaustive exhaustive_patterns(const CombinationalFrame& frame) {
  std::vector<bool> fixed(frame.pattern_width(), false);
  for (const auto& [index, value] : frame.constraints()) {
    fixed[index] = true;
  }
  std::vector<std::size_t> free;
  for (std::size_t i = 0; i < frame.pattern_width(); ++i) {
    if (!fixed[i]) {
      free.push_back(i);
    }
  }
  Exhaustive all;
  const std::uint64_t count = std::uint64_t{1} << free.size();
  for (std::uint64_t m = 0; m < count; ++m) {
    if (m % 64 == 0) {
      all.batches.emplace_back();
    }
    BitVec pattern(frame.pattern_width());
    for (const auto& [index, value] : frame.constraints()) {
      pattern.set(index, value);
    }
    for (std::size_t b = 0; b < free.size(); ++b) {
      pattern.set(free[b], ((m >> b) & 1) != 0);
    }
    all.batches.back().push_back(std::move(pattern));
  }
  for (const std::vector<BitVec>& batch : all.batches) {
    all.good.push_back(frame.good_response_words(batch));
  }
  return all;
}

bool testable(const CombinationalFrame& frame, const Exhaustive& all, const Fault& fault) {
  for (std::size_t b = 0; b < all.batches.size(); ++b) {
    if (frame.detect_mask_full(fault, all.batches[b], all.good[b]) != 0) {
      return true;
    }
  }
  return false;
}

struct OracleTally {
  std::size_t frames = 0, calls = 0, untestable = 0, backtracks = 0;
  /// FNV-1a over every call's verdict, backtrack count and pattern.
  Fnv1a search;
};

/// What is wrong with one PODEM verdict by the exhaustive oracle, or "".
std::string verdict_error(const CombinationalFrame& frame, const Exhaustive& all,
                          const Fault& fault, const PodemResult& result) {
  if (result.aborted || result.success == result.untestable) {
    return "aborted or inconsistent verdict";
  }
  if (result.untestable) {
    return testable(frame, all, fault)
               ? "untestable verdict, but an exhaustive pattern detects it"
               : "";
  }
  for (const auto& [index, value] : frame.constraints()) {
    if (result.pattern.get(index) != value) {
      return "pattern " + result.pattern.to_string() + " violates an input constraint";
    }
  }
  const std::vector<BitVec> one{result.pattern};
  if ((frame.detect_mask_full(fault, one, frame.good_response_words(one)) & 1) == 0) {
    return "pattern " + result.pattern.to_string() + " misses its target";
  }
  return "";
}

/// Run PODEM on every collapsed fault of 64 random frames per seed and hold
/// each verdict to the exhaustive oracle. Returns false after reporting the
/// first disagreement.
bool run_oracle(std::uint64_t stream, bool with_latches, std::size_t seeds,
                OracleTally& tally) {
  // 2^10 leaves bound the decision tree of the widest frame, so a budget of
  // 2^12 backtracks can never abort a call.
  constexpr std::size_t kBudget = std::size_t{1} << 12;
  constexpr std::size_t kFramesPerSeed = 64;
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    for (std::size_t f = 0; f < kFramesPerSeed; ++f) {
      Rng rng(Rng::derive_stream(stream + seed, f));
      const RandomFrame rf = random_frame(rng, {.latches = with_latches});
      CombinationalFrame frame(rf.netlist);
      for (const auto& [name, value] : rf.constraints) {
        frame.constrain(name, value);
      }
      const Exhaustive all = exhaustive_patterns(frame);
      Podem podem(frame, kBudget);
      ++tally.frames;
      for (const Fault& fault : collapse_faults(rf.netlist, enumerate_faults(rf.netlist))) {
        PodemResult result;
        std::string wrong;
        try {
          result = podem.generate(fault, rng);
          wrong = verdict_error(frame, all, fault, result);
        } catch (const std::exception& error) {
          wrong = std::string("threw: ") + error.what();
        }
        ++tally.calls;
        tally.untestable += result.untestable ? 1 : 0;
        tally.backtracks += result.backtracks;
        tally.search.add(result.success + 2 * result.untestable);
        tally.search.add(result.backtracks);
        for (const std::uint64_t word : result.pattern.words()) {
          tally.search.add(word);
        }
        if (!wrong.empty()) {
          ADD_FAILURE() << "PODEM disagrees with the exhaustive oracle at seed " << seed
                        << ", frame " << f << (with_latches ? " (latch frames)" : "")
                        << ": " << wrong << " (" << result.backtracks
                        << " backtracks)\nreduced frame:\n"
                        << reduced_dump(rf, fault);
          return false;
        }
      }
    }
  }
  return true;
}

TEST(PodemOracle, RandomFramesMatchExhaustiveSimulation) {
  OracleTally tally;
  ASSERT_TRUE(run_oracle(0x90de'0000, false, fuzz_seed_count(), tally));
  // The generator must keep producing the cases the oracle exists for:
  // proven-redundant faults and searches that backtrack.
  EXPECT_GT(tally.untestable, tally.frames / 4);
  EXPECT_GT(tally.backtracks, tally.frames);
  RecordProperty("frames", static_cast<int>(tally.frames));
  RecordProperty("calls", static_cast<int>(tally.calls));
  RecordProperty("untestable", static_cast<int>(tally.untestable));
  RecordProperty("backtracks", static_cast<int>(tally.backtracks));
}

TEST(PodemOracle, LatchFramesMatchExhaustiveSimulation) {
  // Latch outputs are frame sources held at 0: PODEM must model them as the
  // loader does, force faults on them, and never backtrace into a latch.
  OracleTally tally;
  ASSERT_TRUE(run_oracle(0x1a7c'0000, true, fuzz_seed_count(), tally));
  EXPECT_GT(tally.untestable, tally.frames / 4);
  RecordProperty("frames", static_cast<int>(tally.frames));
  RecordProperty("calls", static_cast<int>(tally.calls));
  RecordProperty("untestable", static_cast<int>(tally.untestable));
}

TEST(PodemOracle, SearchPinnedOnRandomFrames) {
  // The oracle checks verdicts, not the search: the objective and backtrace
  // heuristics (e.g. steering a mux select toward its D input) can change
  // without a wrong verdict. This digest over the first four seeds' calls
  // was recorded on the interpreted PODEM the compiled one replaced.
  OracleTally tally;
  ASSERT_TRUE(run_oracle(0x90de'0000, false, 4, tally));
  EXPECT_EQ(tally.search.hash, 1769684361707094218ull);
}

}  // namespace
}  // namespace retscan
