// Equivalence tests of the compiled simulation core against the retained
// reference interpreter path: the compiled flat-instruction sweep must match
// the per-Cell walk gate-for-gate on randomized netlists (including LatchL,
// Rdff and power-gating sequences), and fanout-cone incremental fault
// simulation must produce bit-identical detect masks and coverage to the
// full-circuit reference.

#include "sim/compiled_netlist.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "circuits/fifo.hpp"
#include "circuits/generators.hpp"
#include "core/protected_design.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace retscan {
namespace {

/// Random layered netlist with every compilable gate type, two flop ranks
/// (some converted to retention scan flops in the gated domain), always-on
/// parity-style latches, and gated combinational logic.
struct RandomDesign {
  Netlist nl;
  std::vector<NetId> data_inputs;
  NetId en = kNullNet;
  std::vector<CellId> rdffs;
};

RandomDesign random_design(Rng& rng) {
  RandomDesign d;
  Netlist& nl = d.nl;
  const NetId se = nl.add_input("se");
  const NetId retain = nl.add_input("retain");
  d.en = nl.add_input("en");
  std::vector<NetId> pool;
  for (int i = 0; i < 5; ++i) {
    const NetId in = nl.add_input("a" + std::to_string(i));
    d.data_inputs.push_back(in);
    pool.push_back(in);
  }
  pool.push_back(nl.n_const(true));
  pool.push_back(nl.n_const(false));
  auto random_gate = [&]() {
    const NetId a = pool[rng.next_below(pool.size())];
    const NetId b = pool[rng.next_below(pool.size())];
    switch (rng.next_below(9)) {
      case 0: return nl.n_and(a, b);
      case 1: return nl.n_or(a, b);
      case 2: return nl.n_xor(a, b);
      case 3: return nl.n_nand(a, b);
      case 4: return nl.n_nor(a, b);
      case 5: return nl.n_xnor(a, b);
      case 6: return nl.n_not(a);
      case 7: return nl.n_buf(a);
      default: return nl.n_mux(a, b, pool[rng.next_below(pool.size())]);
    }
  };
  for (int layer = 0; layer < 3; ++layer) {
    for (int g = 0; g < 15; ++g) {
      pool.push_back(random_gate());
    }
    NetId scan_prev = se;
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
    // Always-on transparent latch (parity-storage style).
    const CellId latch = nl.add_cell(
        CellType::LatchL, {pool[rng.next_below(pool.size())], d.en});
    pool.push_back(nl.cell(latch).out);
  }
  // Combinational cells in the gated domain (isolation clamps).
  for (int g = 0; g < 6; ++g) {
    const NetId y = random_gate();
    nl.set_domain(nl.driver(y), 1);
    pool.push_back(y);
  }
  nl.add_output("y0", pool[pool.size() - 1]);
  nl.add_output("y1", nl.n_xor_tree({pool[5], pool[9], pool[pool.size() - 3]}));
  return d;
}

TEST(CompiledNetlist, SlotRenumberingIsTopological) {
  Rng rng(11);
  for (int trial = 0; trial < 3; ++trial) {
    const RandomDesign d = random_design(rng);
    const auto compiled = d.nl.compiled();
    ASSERT_EQ(compiled->slot_count(), d.nl.net_count());
    // Slot mapping is a bijection.
    std::vector<bool> seen(compiled->slot_count(), false);
    for (NetId net = 0; net < d.nl.net_count(); ++net) {
      const std::uint32_t slot = compiled->slot(net);
      EXPECT_FALSE(seen[slot]);
      seen[slot] = true;
      EXPECT_EQ(compiled->net_of_slot(slot), net);
    }
    // Every instruction reads only slots below the one it writes, and the
    // stream writes strictly ascending slots — the locality invariant.
    std::uint32_t prev_out = 0;
    for (const CompiledInstr& in : compiled->instrs()) {
      EXPECT_LT(in.in0, in.out);
      EXPECT_LT(in.in1, in.out);
      EXPECT_LT(in.in2, in.out);
      EXPECT_GE(in.out, prev_out);
      prev_out = in.out;
    }
  }
}

TEST(CompiledNetlist, SweepMatchesReferenceInterpreterOnRandomNetlists) {
  Rng rng(22);
  for (int trial = 0; trial < 5; ++trial) {
    const RandomDesign d = random_design(rng);
    const auto compiled = d.nl.compiled();
    for (int sweep = 0; sweep < 10; ++sweep) {
      // Arbitrary source values (including ones unreachable in a real
      // simulation — the kernel must agree regardless).
      std::vector<LaneWord> by_net(d.nl.net_count());
      for (LaneWord& word : by_net) {
        word = rng.next_u64();
      }
      std::vector<LaneWord> by_slot(compiled->slot_count());
      for (NetId net = 0; net < d.nl.net_count(); ++net) {
        by_slot[compiled->slot(net)] = by_net[net];
      }
      CompiledNetlist::reference_eval(d.nl, by_net);
      compiled->eval_full(by_slot.data());
      for (NetId net = 0; net < d.nl.net_count(); ++net) {
        ASSERT_EQ(by_slot[compiled->slot(net)], by_net[net])
            << "trial " << trial << " sweep " << sweep << " net " << net;
      }
    }
  }
}

/// Every combinational net of a live PackedSim must equal the reference
/// interpreter re-run over the engine's own source values, with domain
/// clamps applied — through per-lane stimulus, RETAIN traffic, latch-enable
/// traffic and power cycles.
void expect_comb_matches_reference(const Netlist& nl, PackedSim& sim) {
  DomainId max_domain = 0;
  for (CellId id = 0; id < nl.cell_count(); ++id) {
    max_domain = std::max(max_domain, nl.cell(id).domain);
  }
  std::vector<LaneWord> clamp(static_cast<std::size_t>(max_domain) + 1);
  for (DomainId dom = 0; dom <= max_domain; ++dom) {
    clamp[dom] = sim.domain_powered(dom) ? kAllLanes : 0;
  }
  std::vector<LaneWord> values(nl.net_count());
  for (NetId net = 0; net < nl.net_count(); ++net) {
    values[net] = sim.net_lanes(net);
  }
  // Interpreted per-Cell walk with isolation clamps applied in propagation
  // order — a domain-0 gate fed by a clamped domain-1 net must see the
  // clamped value, exactly as the engine evaluates it.
  for (const CellId id : nl.combinational_order()) {
    const Cell& c = nl.cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    values[c.out] = eval_comb_word(c, values) & clamp[c.domain];
    ASSERT_EQ(values[c.out], sim.net_lanes(c.out)) << "cell " << id;
  }
}

TEST(CompiledNetlist, EngineMatchesReferenceThroughPowerAndRetention) {
  Rng build_rng(33);
  for (int trial = 0; trial < 3; ++trial) {
    const RandomDesign d = random_design(build_rng);
    PackedSim sim(d.nl);
    Rng stim(900 + trial);
    sim.set_input_all("se", false);
    sim.set_input_all("retain", false);
    for (int cycle = 0; cycle < 40; ++cycle) {
      for (const NetId in : d.data_inputs) {
        sim.set_input(in, stim.next_u64());
      }
      sim.set_input(d.en, stim.next_u64());
      sim.step();
      expect_comb_matches_reference(d.nl, sim);

      if (cycle % 10 == 9 && !d.rdffs.empty()) {
        sim.set_input_all("retain", true);
        sim.step();  // save edge
        Rng garbage(4000 + cycle);
        sim.power_off(1, &garbage);
        expect_comb_matches_reference(d.nl, sim);  // clamped while off
        sim.power_on(1);
        sim.set_input_all("retain", false);
        sim.step();  // restore edge
        expect_comb_matches_reference(d.nl, sim);
      }
    }
  }
}

TEST(CompiledNetlist, CacheInvalidatedOnStructuralMutation) {
  Netlist nl;
  const NetId a = nl.add_input("a");
  const NetId b = nl.add_input("b");
  const NetId y = nl.n_and(a, b);
  nl.add_output("y", y);
  const auto first = nl.compiled();
  EXPECT_EQ(first.get(), nl.compiled().get());  // cached
  const std::size_t order_size = nl.combinational_order().size();

  const NetId z = nl.n_xor(a, y);  // structural mutation
  nl.add_output("z", z);
  const auto second = nl.compiled();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second->slot_count(), nl.net_count());
  EXPECT_GT(nl.combinational_order().size(), order_size);
  // The old instance stays valid for holders (self-contained).
  EXPECT_EQ(first->instrs().size(), 1u);
}

/// Cone-incremental detect masks must be bit-identical to the full-circuit
/// reference for every fault and every batch, including when one shared
/// workspace is re-synced across interleaved batches.
TEST(FaultCone, DetectMasksMatchFullReferenceOnRandomNetlists) {
  Rng rng(44);
  for (int trial = 0; trial < 3; ++trial) {
    const RandomDesign d = random_design(rng);
    const CombinationalFrame frame(d.nl);
    const auto faults = collapse_faults(d.nl, enumerate_faults(d.nl));
    ASSERT_GT(faults.size(), 0u);
    std::vector<std::vector<BitVec>> batches(2);
    for (auto& batch : batches) {
      for (int p = 0; p < 64; ++p) {
        batch.push_back(frame.random_pattern(rng));
      }
    }
    std::vector<CombinationalFrame::LoadedPatternBatch> loaded;
    for (const auto& batch : batches) {
      loaded.push_back(frame.load_batch(batch));
    }
    std::vector<std::vector<std::uint64_t>> good_words;
    for (const auto& batch : batches) {
      good_words.push_back(frame.good_response_words(batch));
    }
    CombinationalFrame::Workspace workspace;
    for (const Fault& fault : faults) {
      // Alternate batches fault-major so the workspace resync path runs.
      for (std::size_t b = 0; b < batches.size(); ++b) {
        const std::uint64_t cone_mask = frame.detect_block(fault, loaded[b], workspace).w[0];
        const std::uint64_t full_mask =
            frame.detect_mask_full(fault, batches[b], good_words[b]);
        ASSERT_EQ(cone_mask, full_mask)
            << "trial " << trial << " fault " << fault_name(d.nl, fault)
            << " batch " << b;
      }
    }
  }
}

TEST(FaultCone, DetectMasksMatchFullReferenceOnProtectedFifo) {
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
  Rng rng(55);
  std::vector<BitVec> patterns;
  for (int p = 0; p < 64; ++p) {
    patterns.push_back(frame.random_pattern(rng));
  }
  const auto loaded = frame.load_batch(patterns);
  const auto good_words = frame.good_response_words(patterns);
  CombinationalFrame::Workspace workspace;
  for (const Fault& fault : faults) {
    ASSERT_EQ(frame.detect_block(fault, loaded, workspace).w[0],
              frame.detect_mask_full(fault, patterns, good_words))
        << fault_name(design.netlist(), fault);
  }
}

/// fault_simulate (cone path, serial and pooled) must report exactly the
/// coverage and first-detecting-pattern indices of a reference simulator
/// built on full-circuit interpreted evaluation. 600 patterns span three
/// 256-lane blocks (the last one partial), and the AND chains' faults need
/// up to 12 ones at once, so some first detections land past the first
/// block and detected faults must drop across block boundaries.
TEST(FaultCone, FaultSimulateMatchesReferenceCoverage) {
  Netlist nl = make_registered_adder(4);
  for (int c = 0; c < 3; ++c) {
    const std::string tag = std::to_string(c) + "_";
    NetId chain = nl.add_input("r" + tag + "0");
    for (int k = 1; k < 12; ++k) {
      chain = nl.n_and(chain, nl.add_input("r" + tag + std::to_string(k)));
      nl.add_output("t" + tag + std::to_string(k), chain);
    }
  }
  const CombinationalFrame frame(nl);
  const auto faults = collapse_faults(nl, enumerate_faults(nl));
  Rng rng(66);
  std::vector<BitVec> patterns;
  for (int p = 0; p < 600; ++p) {
    patterns.push_back(frame.random_pattern(rng));
  }

  constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> reference(faults.size(), npos);
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t count = std::min<std::size_t>(64, patterns.size() - base);
    const std::vector<BitVec> batch(patterns.begin() + base,
                                    patterns.begin() + base + count);
    const auto good_words = frame.good_response_words(batch);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      if (reference[fi] != npos) {
        continue;
      }
      const std::uint64_t mask = frame.detect_mask_full(faults[fi], batch, good_words);
      if (mask != 0) {
        reference[fi] = base + static_cast<std::size_t>(std::countr_zero(mask));
      }
    }
  }

  ASSERT_TRUE(std::any_of(reference.begin(), reference.end(), [](std::size_t index) {
    return index != npos && index >= kLaneBlockBits;
  }));
  const auto detected = static_cast<std::size_t>(
      std::count_if(reference.begin(), reference.end(),
                    [](std::size_t index) { return index != npos; }));

  const FaultSimResult serial = fault_simulate(frame, faults, patterns);
  EXPECT_EQ(serial.detected_by, reference);
  EXPECT_EQ(serial.detected, detected);
  for (const unsigned threads : {1u, 8u}) {
    ThreadPool pool(threads);
    for (const std::size_t shard : {std::size_t{1}, std::size_t{7}}) {
      const FaultSimResult pooled = fault_simulate(frame, faults, patterns, pool, shard);
      EXPECT_EQ(pooled.detected_by, reference) << threads << " threads, shard " << shard;
      EXPECT_EQ(pooled.detected, detected) << threads << " threads, shard " << shard;
    }
  }
}

/// The lane-block kernel must agree with the single-word kernel and the
/// reference interpreter on every word of every block, with independent
/// stimulus in all kLaneWords words.
TEST(LaneBlock, BlockSweepMatchesWordSweepAndReference) {
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    const RandomDesign d = random_design(rng);
    const auto compiled = d.nl.compiled();
    for (int sweep = 0; sweep < 5; ++sweep) {
      std::vector<LaneBlock> blocks(compiled->slot_count(), LaneBlock{});
      for (LaneBlock& block : blocks) {
        for (std::size_t w = 0; w < kLaneWords; ++w) {
          block.w[w] = rng.next_u64();
        }
      }
      // Word-kernel and interpreter copies of each block word's stimulus.
      std::vector<std::vector<LaneWord>> by_slot(
          kLaneWords, std::vector<LaneWord>(compiled->slot_count()));
      std::vector<std::vector<LaneWord>> by_net(
          kLaneWords, std::vector<LaneWord>(d.nl.net_count()));
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        for (std::uint32_t slot = 0; slot < compiled->slot_count(); ++slot) {
          by_slot[w][slot] = blocks[slot].w[w];
          by_net[w][compiled->net_of_slot(slot)] = blocks[slot].w[w];
        }
      }
      compiled->eval_full(blocks.data());
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        compiled->eval_full(by_slot[w].data());
        CompiledNetlist::reference_eval(d.nl, by_net[w]);
        for (NetId net = 0; net < d.nl.net_count(); ++net) {
          const std::uint32_t slot = compiled->slot(net);
          ASSERT_EQ(blocks[slot].w[w], by_slot[w][slot])
              << "trial " << trial << " sweep " << sweep << " word " << w
              << " net " << net << " (block vs word kernel)";
          ASSERT_EQ(blocks[slot].w[w], by_net[w][net])
              << "trial " << trial << " sweep " << sweep << " word " << w
              << " net " << net << " (block kernel vs interpreter)";
        }
      }
    }
  }
}

/// detect_block over kLaneBlockBits-wide batches (shared workspace, cone
/// replay + undo) must reproduce the full-circuit reference word-for-word,
/// including partial last blocks at pattern counts that are not multiples
/// of the block width — lanes beyond the count must read zero.
TEST(LaneBlock, DetectBlockMatchesFullReferenceAtPartialCounts) {
  Rng rng(79);
  const RandomDesign d = random_design(rng);
  const CombinationalFrame frame(d.nl);
  const auto faults = collapse_faults(d.nl, enumerate_faults(d.nl));
  ASSERT_GT(faults.size(), 0u);
  std::vector<BitVec> all_patterns;
  for (int p = 0; p < 300; ++p) {
    all_patterns.push_back(frame.random_pattern(rng));
  }
  CombinationalFrame::Workspace workspace;
  for (const std::size_t count : {std::size_t{100}, std::size_t{150},
                                  std::size_t{300}}) {
    const std::vector<BitVec> patterns(all_patterns.begin(),
                                       all_patterns.begin() + count);
    for (std::size_t base = 0; base < patterns.size(); base += kLaneBlockBits) {
      const std::size_t chunk =
          std::min<std::size_t>(kLaneBlockBits, patterns.size() - base);
      const std::vector<BitVec> block_patterns(patterns.begin() + base,
                                               patterns.begin() + base + chunk);
      const auto loaded = frame.load_batch(block_patterns);
      ASSERT_EQ(loaded.count, chunk);
      for (const Fault& fault : faults) {
        const LaneBlock mask = frame.detect_block(fault, loaded, workspace);
        for (std::size_t w = 0; w < kLaneWords; ++w) {
          const std::size_t word_base = w * kLaneCount;
          if (word_base >= chunk) {
            // Lanes past the batch count must be silenced.
            ASSERT_EQ(mask.w[w], 0u) << "count " << count << " word " << w;
            continue;
          }
          const std::size_t word_count =
              std::min<std::size_t>(kLaneCount, chunk - word_base);
          const std::vector<BitVec> word_patterns(
              block_patterns.begin() + word_base,
              block_patterns.begin() + word_base + word_count);
          const auto good_words = frame.good_response_words(word_patterns);
          ASSERT_EQ(mask.w[w],
                    frame.detect_mask_full(fault, word_patterns, good_words))
              << "count " << count << " base " << base << " word " << w
              << " fault " << fault_name(d.nl, fault);
        }
      }
    }
  }
}

/// Block primitive semantics: lane masks, emptiness and first-lane index
/// across word boundaries.
TEST(LaneBlock, PrimitiveSemantics) {
  EXPECT_EQ(block_lane_mask(0), LaneBlock{});
  const LaneBlock full = block_lane_mask(kLaneBlockBits);
  for (std::size_t w = 0; w < kLaneWords; ++w) {
    EXPECT_EQ(full.w[w], kAllLanes);
  }
  // A partial mask fills whole words then a partial word, then zeros.
  const std::size_t cut = kLaneCount + kLaneCount / 2;
  const LaneBlock partial = block_lane_mask(cut);
  for (std::size_t w = 0; w < kLaneWords; ++w) {
    const std::size_t lo = w * kLaneCount;
    if (cut >= lo + kLaneCount) {
      EXPECT_EQ(partial.w[w], kAllLanes) << "word " << w;
    } else if (cut <= lo) {
      EXPECT_EQ(partial.w[w], 0u) << "word " << w;
    } else {
      EXPECT_EQ(partial.w[w], (std::uint64_t{1} << (cut - lo)) - 1) << "word " << w;
    }
  }
  EXPECT_FALSE(block_any(LaneBlock{}));
  EXPECT_EQ(block_first_lane(LaneBlock{}), kLaneBlockBits);
  for (const std::size_t lane :
       {std::size_t{0}, std::size_t{5}, kLaneBlockBits - 1}) {
    LaneBlock one{};
    one.w[lane / kLaneCount] = std::uint64_t{1} << (lane % kLaneCount);
    EXPECT_TRUE(block_any(one));
    EXPECT_EQ(block_first_lane(one), lane) << "lane " << lane;
    // With a later lane also set, the first one still wins.
    one.w[kLaneWords - 1] |= std::uint64_t{1} << (kLaneCount - 1);
    EXPECT_EQ(block_first_lane(one), lane) << "lane " << lane;
  }
}

}  // namespace
}  // namespace retscan
