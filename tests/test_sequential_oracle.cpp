// Differential oracle for sequential multi-cycle stuck-at fault simulation
// (sequential_fault_simulate). An interpreted reference over NetId-indexed
// lane words runs every fault's faulty machine cycle by cycle from the
// all-zero state: primary inputs and Const1 nets loaded, the fault forced at
// a source net, one per-Cell eval_comb_word sweep over combinational_order()
// with the fault forced again after its driver evaluates, the primary
// outputs captured before the flops latch. Stimulus is drawn as the model
// draws it: lane block b from its own stream (Rng::derive_stream(seed, b)),
// kLaneWords words per primary input per cycle at index t * pi_count + i.
// The driver's detected_by must equal the reference's first detecting
// sequence for every fault, on random frames from random_frame.hpp (no
// latches) and on s27 and ctrl344, at 1, 64 and 257 sequences (the last
// crosses a lane block), at fault_shard 1 and 64 on 1- and 4-thread pools.
// Seeds are deterministic; RETSCAN_FUZZ_SEEDS widens the sweep (default 16
// seeds x 8 frames). A failure prints the seed, the frame and the netlist
// reduced to the failing fault's logic.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "atpg/fault_models.hpp"
#include "fuzz_seeds.hpp"
#include "random_frame.hpp"
#include "sim/eval_kernel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef RETSCAN_CIRCUITS_DIR
#define RETSCAN_CIRCUITS_DIR "bench/circuits"
#endif

namespace retscan {
namespace {

constexpr std::size_t kFramesPerSeed = 8;
constexpr std::uint64_t kStream = 0x5e90'0000;
constexpr std::size_t kSequenceCounts[] = {1, 64, kLaneBlockBits + 1};

/// The reference machine: one 64-sequence word of a lane block at a time,
/// every net's value in one lane word.
struct Reference {
  const Netlist& nl;
  std::vector<NetId> inputs;   // netlist.inputs() order, the stimulus layout
  std::vector<NetId> outputs;  // the nets the primary outputs read
  std::vector<CellId> flops;
  std::vector<NetId> ones;     // Const1 nets, loaded every cycle

  explicit Reference(const Netlist& netlist) : nl(netlist), flops(netlist.flops()) {
    for (const CellId id : nl.inputs()) {
      inputs.push_back(nl.cell(id).out);
    }
    for (const CellId id : nl.outputs()) {
      outputs.push_back(nl.cell(id).fanin[0]);
    }
    for (CellId id = 0; id < nl.cell_count(); ++id) {
      if (nl.cell(id).type == CellType::Const1) {
        ones.push_back(nl.cell(id).out);
      }
    }
  }

  /// Primary-output words of every cycle, [t * outputs.size() + p], of the
  /// machine with `fault` forced (none when null) under `stimulus`, whose
  /// word [t * inputs.size() + i] drives input i at cycle t.
  std::vector<LaneWord> run(const std::vector<LaneWord>& stimulus, std::size_t cycles,
                            const Fault* fault) const {
    std::vector<LaneWord> values(nl.net_count(), 0);
    std::vector<LaneWord> po(cycles * outputs.size());
    std::vector<LaneWord> next(flops.size());
    const LaneWord forced = fault != nullptr && fault->stuck_at ? kAllLanes : 0;
    for (std::size_t t = 0; t < cycles; ++t) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        values[inputs[i]] = stimulus[t * inputs.size() + i];
      }
      for (const NetId net : ones) {
        values[net] = kAllLanes;
      }
      if (fault != nullptr) {
        values[fault->net] = forced;  // a source net holds it through the sweep
      }
      for (const CellId id : nl.combinational_order()) {
        const Cell& cell = nl.cell(id);
        if (cell.type == CellType::Output) {
          continue;
        }
        values[cell.out] = eval_comb_word(cell, values);
        if (fault != nullptr && cell.out == fault->net) {
          values[cell.out] = forced;
        }
      }
      for (std::size_t p = 0; p < outputs.size(); ++p) {
        po[t * outputs.size() + p] = values[outputs[p]];
      }
      for (std::size_t f = 0; f < flops.size(); ++f) {
        next[f] = values[nl.cell(flops[f]).fanin[0]];
      }
      for (std::size_t f = 0; f < flops.size(); ++f) {
        values[nl.cell(flops[f]).out] = next[f];
      }
    }
    return po;
  }

  /// Every fault's first detecting sequence, npos when none does.
  std::vector<std::size_t> first_detections(const std::vector<Fault>& faults,
                                            std::size_t sequences, std::size_t cycles,
                                            std::uint64_t seed) const {
    std::vector<std::size_t> first(faults.size(), FaultSimResult::npos);
    if (cycles == 0) {
      return first;
    }
    const std::size_t entries = cycles * inputs.size();
    for (std::size_t base = 0; base < sequences; base += kLaneBlockBits) {
      Rng rng(Rng::derive_stream(seed, base / kLaneBlockBits));
      std::vector<LaneWord> block(entries * kLaneWords);
      for (LaneWord& word : block) {
        word = rng.next_u64();
      }
      for (std::size_t w = 0; w < kLaneWords && base + w * kLaneCount < sequences; ++w) {
        const std::size_t lanes = std::min(kLaneCount, sequences - base - w * kLaneCount);
        std::vector<LaneWord> stimulus(entries);
        for (std::size_t e = 0; e < entries; ++e) {
          stimulus[e] = block[e * kLaneWords + w];
        }
        const std::vector<LaneWord> good = run(stimulus, cycles, nullptr);
        for (std::size_t i = 0; i < faults.size(); ++i) {
          if (first[i] != FaultSimResult::npos) {
            continue;
          }
          const std::vector<LaneWord> faulty = run(stimulus, cycles, &faults[i]);
          LaneWord diff = 0;
          for (std::size_t k = 0; k < good.size(); ++k) {
            diff |= good[k] ^ faulty[k];
          }
          diff &= lane_mask(lanes);
          if (diff != 0) {
            first[i] = base + w * kLaneCount + static_cast<std::size_t>(std::countr_zero(diff));
          }
        }
      }
    }
    return first;
  }
};

/// The two pools every plan runs on.
struct Pools {
  ThreadPool one{1};
  ThreadPool four{4};
};

struct Tally {
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t past_lane_zero = 0;  // first detections at a sequence above 0
};

/// Check every fault of `nl` against the reference at each sequence count,
/// shard size and pool; false after reporting the first mismatch.
bool matches_reference(const Netlist& nl, std::size_t cycles, std::uint64_t seed,
                       const std::string& at, const RandomFrame* rf, Pools& pools,
                       Tally& tally) {
  const std::vector<Fault> faults = enumerate_faults(nl);
  const Reference reference(nl);
  for (const std::size_t sequences : kSequenceCounts) {
    const std::vector<std::size_t> want =
        reference.first_detections(faults, sequences, cycles, seed);
    for (const std::size_t index : want) {
      tally.detected += index != FaultSimResult::npos ? 1 : 0;
      tally.past_lane_zero += index != FaultSimResult::npos && index > 0 ? 1 : 0;
    }
    tally.faults += faults.size();
    const auto detected = static_cast<std::size_t>(std::count_if(
        want.begin(), want.end(), [](std::size_t i) { return i != FaultSimResult::npos; }));
    for (ThreadPool* pool : {&pools.one, &pools.four}) {
      for (const std::size_t shard : {std::size_t{1}, std::size_t{64}}) {
        const FaultSimResult got =
            sequential_fault_simulate(nl, faults, sequences, cycles, seed, *pool, shard);
        const std::string plan = at + ", " + std::to_string(sequences) + " sequences x " +
                                 std::to_string(cycles) + " cycles, " +
                                 std::to_string(pool->size()) + " threads, fault_shard " +
                                 std::to_string(shard);
        EXPECT_EQ(got.detected, detected) << plan;
        for (std::size_t i = 0; i < faults.size(); ++i) {
          if (got.detected_by[i] != want[i]) {
            ADD_FAILURE() << "fault " << fault_name(nl, faults[i]) << ": detected_by "
                          << got.detected_by[i] << ", reference " << want[i] << " at "
                          << plan
                          << (rf != nullptr ? "\nreduced frame:\n" + reduced_dump(*rf, faults[i])
                                            : std::string());
            return false;
          }
        }
      }
    }
  }
  return !::testing::Test::HasFailure();
}

TEST(SequentialOracle, MatchesReferenceOnRandomFrames) {
  Pools pools;
  Tally tally;
  for (std::size_t seed = 0; seed < fuzz_seed_count(); ++seed) {
    for (std::size_t f = 0; f < kFramesPerSeed; ++f) {
      Rng rng(Rng::derive_stream(kStream + seed, f));
      const RandomFrame rf = random_frame(rng, {.latches = false, .ffr_edges = true});
      const std::size_t cycles = 1 + rng.next_below(8);
      const std::string at = "seed " + std::to_string(seed) + ", frame " + std::to_string(f);
      if (!matches_reference(rf.netlist, cycles, rng.next_u64(), at, &rf, pools, tally)) {
        return;
      }
    }
  }
  // The sweep must keep exercising detection, and detection past lane 0,
  // not just agree on zeros.
  EXPECT_GT(tally.detected, tally.faults / 4);
  EXPECT_GT(tally.past_lane_zero, tally.detected / 16);
}

TEST(SequentialOracle, MatchesReferenceOnVendoredCircuits) {
  Pools pools;
  for (const char* file : {"s27.v", "ctrl344.v"}) {
    const Netlist nl =
        Netlist::from_verilog(std::string(RETSCAN_CIRCUITS_DIR) + "/" + file);
    Tally tally;
    if (!matches_reference(nl, 16, 5, file, nullptr, pools, tally)) {
      return;
    }
    EXPECT_GT(tally.detected, 0u) << file;
  }
}

}  // namespace
}  // namespace retscan
