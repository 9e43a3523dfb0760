// Differential oracle for fanout-free-region (FFR) fault simulation. The
// shared generator (random_frame.hpp) builds small random frames with the
// FFR edge cases switched on — Const0/Const1 sources, an undriven net,
// constrained inputs, latch outputs, gates reading one net on two pins,
// single-reader nets that are also POs or PPOs, and unread outputs left
// dangling — and every collapsed fault is held to the frame's reference
// interpreter (detect_mask_full), lane by lane, over a full 256-pattern
// block plus a partial one (of 1, 64, 65 or a drawn 1-255 patterns):
//   - detect_block (one fault, its memo cleared) must equal the reference;
//   - detect_site must equal it restricted to a random care set, with one
//     workspace alternating between the two batches so a memo entry that
//     outlives its batch shows;
//   - the stuck-at and transition drivers must report the reference's first
//     detections serially and at fault_shard 0, 1, 7 and 128 on a pool;
//   - so must the bridging driver, over the gate-input bridges plus random
//     net pairs (feedback bridges among them), against a per-Cell sweep
//     that holds each bridged net at the wired value unless the other net
//     reaches it; and CombinationalFrame::reaches must agree with a walk
//     of the cell fanouts for every pair of nets.
// Seeds are deterministic; RETSCAN_FUZZ_SEEDS widens the sweep (default 16
// seeds x 32 frames). A failure prints the seed, the frame and the netlist
// reduced to the failing fault's logic.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "atpg/fault_models.hpp"
#include "atpg/fault_sim.hpp"
#include "fuzz_seeds.hpp"
#include "random_frame.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/eval_kernel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace retscan {
namespace {

constexpr std::size_t kFramesPerSeed = 32;
constexpr std::uint64_t kStream = 0xff20'0000;

/// One generated frame with its constraints applied and 257-511 random
/// patterns: a full lane block and a partial one. A quarter of the frames
/// each take 257, 320 or 321 patterns instead of the drawn count, so the
/// partial block holds one pattern (what run_atpg loads per PODEM pattern),
/// exactly one lane word, or one lane of a second word.
struct Case {
  /// The patterns from `offset` on in 64-pattern words, with their good
  /// responses: the reference's view of lane blocks starting at `offset`.
  struct Words {
    std::vector<std::vector<BitVec>> patterns;
    std::vector<std::vector<std::uint64_t>> good;
  };

  RandomFrame rf;
  CombinationalFrame frame;
  std::vector<Fault> faults;
  std::vector<BitVec> patterns;
  Words from[2];  // offset 0: stuck-at blocks; offset 1: transition captures

  Case(Rng& rng, RandomFrame generated)
      : rf(std::move(generated)),
        frame(rf.netlist),
        faults(collapse_faults(rf.netlist, enumerate_faults(rf.netlist))) {
    for (const auto& [name, value] : rf.constraints) {
      frame.constrain(name, value);
    }
    const std::size_t shapes[] = {kLaneBlockBits + 1, kLaneBlockBits + kLaneCount,
                                  kLaneBlockBits + kLaneCount + 1,
                                  kLaneBlockBits + 1 + rng.next_below(kLaneBlockBits - 1)};
    const std::size_t count = shapes[rng.next_below(std::size(shapes))];
    for (std::size_t p = 0; p < count; ++p) {
      patterns.push_back(frame.random_pattern(rng));
    }
    for (std::size_t offset = 0; offset < 2; ++offset) {
      for (std::size_t first = offset; first < count; first += kLaneCount) {
        from[offset].patterns.emplace_back(
            patterns.begin() + first,
            patterns.begin() + std::min(count, first + kLaneCount));
        from[offset].good.push_back(frame.good_response_words(from[offset].patterns.back()));
      }
    }
  }
  Case(const Case&) = delete;  // the frame points into rf.netlist

  std::vector<BitVec> block(std::size_t b) const {
    const std::size_t first = b * kLaneBlockBits;
    return {patterns.begin() + first,
            patterns.begin() + std::min(patterns.size(), first + kLaneBlockBits)};
  }
};

/// The reference interpreter's detection mask of `fault` over lane block
/// `b` of the patterns from `offset` on, one detect_mask_full per word.
LaneBlock reference_block(const Case& c, const Fault& fault, std::size_t b,
                          std::size_t offset = 0) {
  const Case::Words& words = c.from[offset];
  LaneBlock mask{};
  for (std::size_t w = 0; w < kLaneWords; ++w) {
    const std::size_t index = b * kLaneWords + w;
    if (index < words.patterns.size()) {
      mask.w[w] = c.frame.detect_mask_full(fault, words.patterns[index], words.good[index]);
    }
  }
  return mask;
}

/// NetId-indexed source values of patterns [first, first + count), count
/// at most 64: inputs, PPIs, constraints and Const1 nets, nothing evaluated.
std::vector<LaneWord> reference_sources(const Case& c, std::size_t first, std::size_t count) {
  const Netlist& nl = c.rf.netlist;
  std::vector<LaneWord> by_net(nl.net_count(), 0);
  for (std::size_t p = 0; p < count; ++p) {
    const BitVec& pattern = c.patterns[first + p];
    for (std::size_t i = 0; i < c.frame.pattern_width(); ++i) {
      const NetId source = i < c.frame.pi_nets().size()
                               ? c.frame.pi_nets()[i]
                               : nl.cell(c.frame.flops()[i - c.frame.pi_nets().size()]).out;
      by_net[source] |= LaneWord{pattern.get(i)} << p;
    }
  }
  for (const auto& [index, value] : c.frame.constraints()) {
    by_net[c.frame.pi_nets()[index]] = lane_broadcast(value);
  }
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    if (nl.cell(id).type == CellType::Const1) {
      by_net[nl.cell(id).out] = kAllLanes;
    }
  }
  return by_net;
}

/// Good value of `net` under every pattern, through the reference
/// interpreter over NetId-indexed values (the transition launch condition).
std::vector<bool> reference_values(const Case& c, NetId net) {
  std::vector<bool> values;
  for (std::size_t first = 0; first < c.patterns.size(); first += kLaneCount) {
    const std::size_t count = std::min(kLaneCount, c.patterns.size() - first);
    std::vector<LaneWord> by_net = reference_sources(c, first, count);
    CompiledNetlist::reference_eval(c.rf.netlist, by_net);
    for (std::size_t p = 0; p < count; ++p) {
      values.push_back(((by_net[net] >> p) & 1) != 0);
    }
  }
  return values;
}

LaneBlock random_block(Rng& rng) {
  LaneBlock block;
  for (LaneWord& word : block.w) {
    word = rng.next_u64();
  }
  return block;
}

std::string where(std::size_t seed, std::size_t f, const Case& c, const Fault& fault) {
  return "seed " + std::to_string(seed) + ", frame " + std::to_string(f) + ", fault " +
         fault_name(c.rf.netlist, fault) + "\nreduced frame:\n" + reduced_dump(c.rf, fault);
}

/// Run `check(seed, frame index, case, rng)` over the FFR-edge family;
/// `check` returns false after reporting a failure, which stops the sweep.
template <typename Check>
void for_each_case(std::size_t frames_per_seed, const Check& check) {
  for (std::size_t seed = 0; seed < fuzz_seed_count(); ++seed) {
    for (std::size_t f = 0; f < frames_per_seed; ++f) {
      Rng rng(Rng::derive_stream(kStream + seed, f));
      RandomFrame rf = random_frame(rng, {.latches = true, .ffr_edges = true});
      const Case c(rng, std::move(rf));
      if (!check(seed, f, c, rng)) {
        return;
      }
    }
  }
}

TEST(FfrOracle, DetectionMatchesReferenceOnRandomFrames) {
  std::size_t faults = 0;
  std::size_t detected_lanes = 0;
  for_each_case(kFramesPerSeed, [&](std::size_t seed, std::size_t f, const Case& c,
                                    Rng& rng) {
    const std::size_t blocks = 2;
    std::vector<CombinationalFrame::LoadedPatternBatch> loaded;
    std::vector<LaneBlock> care;
    for (std::size_t b = 0; b < blocks; ++b) {
      loaded.push_back(c.frame.load_batch(c.block(b)));
      care.push_back(random_block(rng));
    }
    std::vector<std::vector<LaneBlock>> reference(c.faults.size());
    CombinationalFrame::Workspace workspace;
    for (std::size_t i = 0; i < c.faults.size(); ++i) {
      for (std::size_t b = 0; b < blocks; ++b) {
        reference[i].push_back(reference_block(c, c.faults[i], b));
        const LaneBlock mask = c.frame.detect_block(c.faults[i], loaded[b], workspace);
        if (mask != reference[i][b]) {
          ADD_FAILURE() << "detect_block differs from the reference in block " << b
                        << " at " << where(seed, f, c, c.faults[i]);
          return false;
        }
        for (const LaneWord word : mask.w) {
          detected_lanes += static_cast<std::size_t>(std::popcount(word));
        }
      }
    }
    faults += c.faults.size();
    // One memo workspace visits block 0, 1, 0, 1: every visit re-syncs it.
    CombinationalFrame::Workspace memo;
    for (std::size_t visit = 0; visit < 2 * blocks; ++visit) {
      const std::size_t b = visit % blocks;
      for (std::size_t i = 0; i < c.faults.size(); ++i) {
        const Fault& fault = c.faults[i];
        const LaneBlock mask = c.frame.detect_site(c.frame.fault_site(fault.net),
                                                   fault.stuck_at, care[b], loaded[b], memo);
        if (mask != (reference[i][b] & care[b])) {
          ADD_FAILURE() << "detect_site differs from the reference in block " << b
                        << " (visit " << visit << ") at " << where(seed, f, c, fault);
          return false;
        }
      }
    }
    return true;
  });
  // The sweep must keep exercising detection, not just agree on zeros.
  EXPECT_GT(faults, fuzz_seed_count() * kFramesPerSeed);
  EXPECT_GT(detected_lanes, faults * 16);
}

/// First detection per fault from a per-pattern predicate, npos if none.
template <typename Detects>
std::vector<std::size_t> first_detections(std::size_t faults, std::size_t stimuli,
                                          const Detects& detects) {
  std::vector<std::size_t> first(faults, FaultSimResult::npos);
  for (std::size_t i = 0; i < faults; ++i) {
    for (std::size_t p = 0; p < stimuli && first[i] == FaultSimResult::npos; ++p) {
      if (detects(i, p)) {
        first[i] = p;
      }
    }
  }
  return first;
}

bool lane(const LaneBlock& block, std::size_t p) {
  return ((block.w[p / kLaneCount] >> (p % kLaneCount)) & 1) != 0;
}

TEST(FfrOracle, DriversMatchReferenceAtEveryShardPlan) {
  ThreadPool one(1);  // the serial plan: one shard on one thread
  ThreadPool pool(3);
  const std::size_t shards[] = {0, 1, 7, 128};
  for_each_case(kFramesPerSeed / 4, [&](std::size_t seed, std::size_t f, const Case& c,
                                        Rng&) {
    const std::string at = "seed " + std::to_string(seed) + ", frame " + std::to_string(f);
    // Stuck-at: the reference's first detecting pattern.
    std::vector<std::vector<LaneBlock>> masks(c.faults.size());
    for (std::size_t i = 0; i < c.faults.size(); ++i) {
      for (std::size_t b = 0; b * kLaneBlockBits < c.patterns.size(); ++b) {
        masks[i].push_back(reference_block(c, c.faults[i], b));
      }
    }
    const std::vector<std::size_t> stuck = first_detections(
        c.faults.size(), c.patterns.size(), [&](std::size_t i, std::size_t p) {
          return lane(masks[i][p / kLaneBlockBits], p % kLaneBlockBits);
        });
    const FaultSimResult serial = fault_simulate(c.frame, c.faults, c.patterns);
    EXPECT_EQ(serial.detected_by, stuck) << "stuck-at, serial, " << at;
    for (const std::size_t shard : shards) {
      EXPECT_EQ(fault_simulate(c.frame, c.faults, c.patterns, pool, shard).detected_by,
                stuck)
          << "stuck-at, fault_shard " << shard << ", " << at;
    }

    // Transition: pair k launches with pattern k and captures with k + 1.
    const std::vector<TransitionFault> transition = enumerate_transition_faults(c.rf.netlist);
    std::vector<std::vector<LaneBlock>> capture(transition.size());
    std::vector<std::vector<bool>> launch(transition.size());
    for (std::size_t i = 0; i < transition.size(); ++i) {
      const Fault alias{transition[i].net, !transition[i].slow_to_rise};
      for (std::size_t b = 0; b * kLaneBlockBits + 1 < c.patterns.size(); ++b) {
        capture[i].push_back(reference_block(c, alias, b, 1));
      }
      launch[i] = reference_values(c, transition[i].net);
    }
    const std::vector<std::size_t> delay = first_detections(
        transition.size(), c.patterns.size() - 1, [&](std::size_t i, std::size_t k) {
          return launch[i][k] == !transition[i].slow_to_rise &&
                 lane(capture[i][k / kLaneBlockBits], k % kLaneBlockBits);
        });
    EXPECT_EQ(transition_fault_simulate(c.frame, transition, c.patterns, one, transition.size())
                  .detected_by,
              delay)
        << "transition, serial, " << at;
    for (const std::size_t shard : shards) {
      EXPECT_EQ(
          transition_fault_simulate(c.frame, transition, c.patterns, pool, shard).detected_by,
          delay)
          << "transition, fault_shard " << shard << ", " << at;
    }
    return !::testing::Test::HasFailure();
  });
}

/// Nets a change of `from` reaches, by a breadth-first walk over cell
/// fanouts: Output cells drive nothing and sequential cells end a path.
std::vector<bool> reached_from(const Netlist& nl, NetId from) {
  std::vector<bool> reached(nl.net_count(), false);
  std::vector<NetId> queue = {from};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (const CellId reader : nl.fanouts()[queue[head]]) {
      const Cell& cell = nl.cell(reader);
      if (cell.type != CellType::Output && !cell_is_sequential(cell.type) &&
          !reached[cell.out]) {
        reached[cell.out] = true;
        queue.push_back(cell.out);
      }
    }
  }
  return reached;
}

/// The reference's first detection of a bridge: a per-Cell sweep per
/// 64-pattern word, like detect_mask_full, holding each bridged net at the
/// wired value of the good values unless the other net reaches it (then the
/// net's own driver recomputes it).
std::size_t reference_bridge(const Case& c, const BridgingFault& fault, bool a_held,
                             bool b_held) {
  const Netlist& nl = c.rf.netlist;
  std::vector<NetId> observed = c.frame.po_nets();
  for (const CellId flop : c.frame.flops()) {
    observed.push_back(nl.cell(flop).fanin[0]);
  }
  for (std::size_t first = 0; first < c.patterns.size(); first += kLaneCount) {
    const std::size_t count = std::min(kLaneCount, c.patterns.size() - first);
    const std::vector<LaneWord> sources = reference_sources(c, first, count);
    std::vector<LaneWord> good = sources;
    CompiledNetlist::reference_eval(nl, good);
    const LaneWord wired =
        fault.wired_and ? good[fault.a] & good[fault.b] : good[fault.a] | good[fault.b];
    std::vector<LaneWord> values = sources;
    const auto hold = [&](NetId net) {
      if ((net == fault.a && a_held) || (net == fault.b && b_held)) {
        values[net] = wired;
      }
    };
    hold(fault.a);  // a source net keeps the held value through the sweep
    hold(fault.b);
    for (const CellId id : nl.combinational_order()) {
      const Cell& cell = nl.cell(id);
      if (cell.type != CellType::Output) {
        values[cell.out] = eval_comb_word(cell, values);
        hold(cell.out);
      }
    }
    LaneWord mask = 0;
    for (const NetId net : observed) {
      mask |= values[net] ^ good[net];
    }
    mask &= lane_mask(count);
    if (mask != 0) {
      return first + static_cast<std::size_t>(std::countr_zero(mask));
    }
  }
  return FaultSimResult::npos;
}

TEST(FfrOracle, BridgingMatchesReferenceOnRandomFrames) {
  ThreadPool one(1);  // the serial plan: one shard on one thread
  ThreadPool pool(3);
  const std::size_t shards[] = {0, 1, 7, 128};
  std::vector<std::size_t> feedback(fuzz_seed_count(), 0);
  std::size_t total = 0;
  std::size_t detected = 0;
  for_each_case(kFramesPerSeed / 2, [&](std::size_t seed, std::size_t f, const Case& c,
                                        Rng& rng) {
    const std::string at = "seed " + std::to_string(seed) + ", frame " + std::to_string(f);
    const Netlist& nl = c.rf.netlist;
    std::vector<std::vector<bool>> reached;
    for (NetId net = 0; net < nl.net_count(); ++net) {
      reached.push_back(reached_from(nl, net));
    }
    CombinationalFrame::Workspace workspace;
    for (NetId from = 0; from < nl.net_count(); ++from) {
      const CombinationalFrame::FaultSite site = c.frame.fault_site(from);
      for (NetId to = 0; to < nl.net_count(); ++to) {
        if (to != from && c.frame.reaches(site, to, workspace) != reached[from][to]) {
          ADD_FAILURE() << "reaches(" << net_label(nl, from) << ", " << net_label(nl, to)
                        << ") differs from the fanout walk at " << at;
          return false;
        }
      }
    }
    // The gate-input universe plus random pairs of distinct nets, in drawn
    // order, so that one net often reaches the other.
    std::vector<BridgingFault> faults = enumerate_bridging_faults(nl);
    for (std::size_t k = 0; k < 16; ++k) {
      const NetId a = static_cast<NetId>(rng.next_below(nl.net_count()));
      const NetId b = static_cast<NetId>(rng.next_below(nl.net_count()));
      if (a != b) {
        faults.push_back({a, b, true});
        faults.push_back({a, b, false});
      }
    }
    std::vector<std::size_t> want;
    for (const BridgingFault& fault : faults) {
      const bool a_reaches_b = reached[fault.a][fault.b];
      const bool b_reaches_a = reached[fault.b][fault.a];
      feedback[seed] += a_reaches_b || b_reaches_a ? 1 : 0;
      want.push_back(reference_bridge(c, fault, !b_reaches_a, !a_reaches_b));
      detected += want.back() != FaultSimResult::npos ? 1 : 0;
    }
    total += faults.size();
    const auto matches = [&](const FaultSimResult& got, const std::string& plan) {
      for (std::size_t i = 0; i < faults.size(); ++i) {
        if (got.detected_by[i] != want[i]) {
          ADD_FAILURE() << "bridging, " << plan << ", " << at << ", fault "
                        << bridging_fault_name(nl, faults[i]) << ": detected_by "
                        << got.detected_by[i] << ", reference " << want[i]
                        << "\nthe frame reduced to each net's logic:\n"
                        << reduced_dump(c.rf, Fault{faults[i].a, false})
                        << reduced_dump(c.rf, Fault{faults[i].b, false});
          return false;
        }
      }
      return true;
    };
    if (!matches(bridging_fault_simulate(c.frame, faults, c.patterns, one, faults.size()),
                 "serial")) {
      return false;
    }
    for (const std::size_t shard : shards) {
      if (!matches(bridging_fault_simulate(c.frame, faults, c.patterns, pool, shard),
                   "fault_shard " + std::to_string(shard))) {
        return false;
      }
    }
    return true;
  });
  if (::testing::Test::HasFailure()) {
    return;  // the sweep stopped at the first mismatch
  }
  // The sweep must keep exercising detection, and every seed the feedback
  // rule, not only independent nets.
  EXPECT_GT(detected, total / 4);
  for (std::size_t seed = 0; seed < feedback.size(); ++seed) {
    EXPECT_GT(feedback[seed], 0u) << "no feedback bridge at seed " << seed;
  }
}

}  // namespace
}  // namespace retscan
