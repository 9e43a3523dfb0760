#include "atpg/fault_sim.hpp"

#include <atomic>
#include <bit>
#include <limits>

#include "atpg/fault_sim_driver.hpp"
#include "sim/eval_kernel.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {

inline constexpr std::uint32_t kNoObs = ~std::uint32_t{0};

/// Batch identity for Workspace sync tracking: unique per load_batch, never
/// reused, so a stale workspace can never masquerade as settled.
std::uint64_t next_batch_tag() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

CombinationalFrame::CombinationalFrame(const Netlist& netlist)
    : netlist_(&netlist), compiled_(netlist.compiled()) {
  for (const CellId input : netlist.inputs()) {
    pi_nets_.push_back(netlist.cell(input).out);
  }
  flops_ = netlist.flops();
  for (const CellId output : netlist.outputs()) {
    po_nets_.push_back(netlist.cell(output).fanin[0]);
  }
  // Constant cells are sources (not in the instruction stream) and must be
  // initialized explicitly on every load.
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    if (netlist.cell(id).type == CellType::Const1) {
      const1_nets_.push_back(netlist.cell(id).out);
      const1_slots_.push_back(compiled_->slot(netlist.cell(id).out));
    }
  }
  for (const NetId net : pi_nets_) {
    pi_slots_.push_back(compiled_->slot(net));
  }
  for (const CellId flop : flops_) {
    ppi_slots_.push_back(compiled_->slot(netlist.cell(flop).out));
  }
  // Observation points: POs first, then flop D captures (functional path,
  // se = 0) — the good_words layout.
  for (const NetId po : po_nets_) {
    obs_slots_.push_back(compiled_->slot(po));
  }
  for (const CellId flop : flops_) {
    obs_slots_.push_back(compiled_->slot(netlist.cell(flop).fanin[0]));
  }
  obs_word_of_slot_.assign(compiled_->slot_count(), kNoObs);
  for (std::uint32_t word = 0; word < obs_slots_.size(); ++word) {
    // Duplicate observables on one net carry identical good words, so
    // keeping the first mapping preserves the detect mask.
    if (obs_word_of_slot_[obs_slots_[word]] == kNoObs) {
      obs_word_of_slot_[obs_slots_[word]] = word;
    }
  }
}

void CombinationalFrame::constrain(const std::string& input_name, bool value) {
  const NetId net = netlist_->find_net(input_name);
  for (std::size_t i = 0; i < pi_nets_.size(); ++i) {
    if (pi_nets_[i] == net) {
      constraints_.emplace_back(i, value);
      return;
    }
  }
  RETSCAN_CHECK(false, "CombinationalFrame::constrain: not a primary input: " + input_name);
}

BitVec CombinationalFrame::random_pattern(Rng& rng) const {
  BitVec pattern = rng.next_bits(pattern_width());
  for (const auto& [index, value] : constraints_) {
    pattern.set(index, value);
  }
  return pattern;
}

void CombinationalFrame::load(std::vector<LaneBlock>& slot_values,
                              const std::vector<BitVec>& patterns) const {
  RETSCAN_CHECK(patterns.size() <= kLaneBlockBits,
                "CombinationalFrame: batch larger than kLaneBlockBits");
  std::fill(slot_values.begin(), slot_values.end(), LaneBlock{});
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    RETSCAN_CHECK(patterns[p].size() == pattern_width(),
                  "CombinationalFrame: pattern width mismatch");
    const std::size_t word = p / kLaneCount;
    const std::uint64_t bit = std::uint64_t{1} << (p % kLaneCount);
    for (std::size_t i = 0; i < pi_slots_.size(); ++i) {
      if (patterns[p].get(i)) {
        slot_values[pi_slots_[i]].w[word] |= bit;
      }
    }
    for (std::size_t i = 0; i < ppi_slots_.size(); ++i) {
      if (patterns[p].get(pi_slots_.size() + i)) {
        slot_values[ppi_slots_[i]].w[word] |= bit;
      }
    }
  }
  for (const auto& [index, value] : constraints_) {
    slot_values[pi_slots_[index]] = block_broadcast(value);
  }
  for (const std::uint32_t slot : const1_slots_) {
    slot_values[slot] = block_broadcast(true);
  }
}

CombinationalFrame::LoadedPatternBatch CombinationalFrame::load_batch(
    const std::vector<BitVec>& patterns) const {
  LoadedPatternBatch batch;
  batch.settled.resize(compiled_->slot_count());
  batch.count = patterns.size();
  batch.tag = next_batch_tag();
  load(batch.settled, patterns);
  compiled_->eval_full(batch.settled.data());
  batch.good.reserve(obs_slots_.size());
  for (const std::uint32_t slot : obs_slots_) {
    batch.good.push_back(batch.settled[slot]);
  }
  return batch;
}

BitVec CombinationalFrame::good_response(const BitVec& pattern) const {
  return unpack_lanes(good_response_words({pattern}), 1)[0];
}

std::vector<std::uint64_t> CombinationalFrame::good_response_words(
    const std::vector<BitVec>& patterns) const {
  RETSCAN_CHECK(patterns.size() <= kLaneCount,
                "CombinationalFrame::good_response_words: more than 64 patterns");
  const LoadedPatternBatch batch = load_batch(patterns);
  std::vector<std::uint64_t> words;
  words.reserve(batch.good.size());
  for (const LaneBlock& block : batch.good) {
    words.push_back(block.w[0]);
  }
  return words;
}

const CombinationalFrame::FaultCone& CombinationalFrame::fault_cone(NetId net) const {
  const std::lock_guard<std::mutex> lock(cone_mutex_);
  auto it = cones_.find(net);
  if (it == cones_.end()) {
    auto fault_cone = std::make_unique<FaultCone>();
    fault_cone->cone = compiled_->build_cone(net);
    for (const std::uint32_t slot : fault_cone->cone.touched_slots) {
      const std::uint32_t word = obs_word_of_slot_[slot];
      if (word != kNoObs) {
        fault_cone->observables.emplace_back(word, slot);
      }
    }
    it = cones_.emplace(net, std::move(fault_cone)).first;
  }
  return *it->second;
}

CombinationalFrame::FaultCone CombinationalFrame::dirty_cone(
    const std::vector<NetId>& sources) const {
  FaultCone fc;
  fc.cone = compiled_->build_cone(sources);
  for (const std::uint32_t slot : fc.cone.touched_slots) {
    const std::uint32_t word = obs_word_of_slot_[slot];
    if (word != kNoObs) {
      fc.observables.emplace_back(word, slot);
    }
  }
  return fc;
}

void CombinationalFrame::warm_cones(const std::vector<Fault>& faults) const {
  for (const Fault& fault : faults) {
    (void)fault_cone(fault.net);
  }
}

LaneBlock CombinationalFrame::detect_block(
    const Fault& fault, const LoadedPatternBatch& batch,
    const std::vector<LaneBlock>& good_blocks) const {
  return detect_block(fault, batch, good_blocks, scratch_);
}

LaneBlock CombinationalFrame::detect_block(
    const Fault& fault, const LoadedPatternBatch& batch,
    const std::vector<LaneBlock>& good_blocks, Workspace& workspace) const {
  return detect_block(fault, fault_cone(fault.net), batch, good_blocks, workspace);
}

LaneBlock CombinationalFrame::detect_block(
    const Fault& fault, const FaultCone& fc, const LoadedPatternBatch& batch,
    const std::vector<LaneBlock>& good_blocks, Workspace& workspace) const {
  // Single-source specialization of the dirty-set replay; the forced value
  // lives on the stack so the per-fault hot loop stays allocation-free.
  const LaneBlock forced = block_broadcast(fault.stuck_at);
  return replay_span(fc, &forced, 1, batch, good_blocks, workspace);
}

LaneBlock CombinationalFrame::replay_dirty(
    const FaultCone& fc, const std::vector<LaneBlock>& forced,
    const LoadedPatternBatch& batch, const std::vector<LaneBlock>& good_blocks,
    Workspace& workspace) const {
  RETSCAN_CHECK(forced.size() == fc.cone.source_slots.size(),
                "CombinationalFrame::replay_dirty: one forced value per source");
  return replay_span(fc, forced.data(), forced.size(), batch, good_blocks, workspace);
}

LaneBlock CombinationalFrame::replay_span(
    const FaultCone& fc, const LaneBlock* forced, std::size_t forced_count,
    const LoadedPatternBatch& batch, const std::vector<LaneBlock>& good_blocks,
    Workspace& workspace) const {
  RETSCAN_CHECK(good_blocks.size() == response_width(),
                "CombinationalFrame::detect_block: good responses missing");
  // Sync the workspace to this batch's good machine once; every cone pass
  // below leaves it settled again, so consecutive faults pay no copy.
  if (workspace.synced_tag != batch.tag) {
    workspace.values = batch.settled;
    workspace.synced_tag = batch.tag;
  }
  LaneBlock* v = workspace.values.data();
  for (std::size_t s = 0; s < forced_count; ++s) {
    v[fc.cone.source_slots[s]] = forced[s];
  }
  const CompiledInstr* instrs = compiled_->instrs().data();
  for (const std::uint32_t i : fc.cone.instrs) {
    const CompiledInstr& in = instrs[i];
    v[in.out] = CompiledNetlist::eval_instr(in, v);
  }
  // Block-wide good/faulty XOR over the reachable observables only: lane p
  // of the result is set iff pattern p sees a difference somewhere.
  LaneBlock mask{};
  for (const auto& [word, slot] : fc.observables) {
    mask = mask | (v[slot] ^ good_blocks[word]);
  }
  // Undo: restore exactly the touched slots to the good-machine values.
  for (const std::uint32_t slot : fc.cone.touched_slots) {
    v[slot] = batch.settled[slot];
  }
  return mask & block_lane_mask(batch.count);
}

std::uint64_t CombinationalFrame::detect_mask_full(
    const Fault& fault, const std::vector<BitVec>& patterns,
    const std::vector<std::uint64_t>& good_words) const {
  RETSCAN_CHECK(good_words.size() == response_width(),
                "CombinationalFrame::detect_mask_full: good responses missing");
  RETSCAN_CHECK(patterns.size() <= 64, "CombinationalFrame: batch larger than 64");
  // NetId-indexed load, exactly the seed's layout.
  std::vector<std::uint64_t> values(netlist_->net_count(), 0);
  for (std::size_t p = 0; p < patterns.size(); ++p) {
    RETSCAN_CHECK(patterns[p].size() == pattern_width(),
                  "CombinationalFrame: pattern width mismatch");
    const std::uint64_t bit = std::uint64_t{1} << p;
    for (std::size_t i = 0; i < pi_nets_.size(); ++i) {
      if (patterns[p].get(i)) {
        values[pi_nets_[i]] |= bit;
      }
    }
    for (std::size_t i = 0; i < flops_.size(); ++i) {
      if (patterns[p].get(pi_nets_.size() + i)) {
        values[netlist_->cell(flops_[i]).out] |= bit;
      }
    }
  }
  for (const auto& [index, value] : constraints_) {
    values[pi_nets_[index]] = value ? ~std::uint64_t{0} : 0;
  }
  for (const NetId net : const1_nets_) {
    values[net] = ~std::uint64_t{0};
  }
  // Full interpreted sweep with the fault forced at its site (PIs and flop
  // outputs may themselves be the fault site, and the forced value must
  // survive its driver's evaluation).
  const std::uint64_t fault_value = fault.stuck_at ? ~std::uint64_t{0} : 0;
  values[fault.net] = fault_value;
  for (const CellId id : netlist_->combinational_order()) {
    const Cell& c = netlist_->cell(id);
    if (c.type == CellType::Output) {
      continue;
    }
    values[c.out] = eval_comb_word(c, values);
    if (c.out == fault.net) {
      values[c.out] = fault_value;
    }
  }
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < po_nets_.size(); ++i) {
    mask |= values[po_nets_[i]] ^ good_words[i];
  }
  for (std::size_t i = 0; i < flops_.size(); ++i) {
    const NetId d = netlist_->cell(flops_[i]).fanin[0];
    mask |= values[d] ^ good_words[po_nets_.size() + i];
  }
  return mask & lane_mask(patterns.size());
}

namespace {

/// Stuck-at faults: a forced-value replay of the fault site's cached cone.
struct StuckAtModel : detail::PatternBlocks {
  using Site = const CombinationalFrame::FaultCone*;
  using Scratch = CombinationalFrame::Workspace;

  Site site(const Fault& fault) const { return &frame.fault_cone(fault.net); }
  Scratch scratch() const { return {}; }
  LaneBlock detect(const Fault& fault, Site cone, const Batch& batch,
                   Scratch& workspace) const {
    return frame.detect_block(fault, *cone, batch, batch.good, workspace);
  }
};

}  // namespace

FaultSimResult fault_simulate(const CombinationalFrame& frame,
                              const std::vector<Fault>& faults,
                              const std::vector<BitVec>& patterns) {
  return detail::simulate_faults(StuckAtModel{{frame, patterns}}, faults, nullptr, 0);
}

FaultSimResult fault_simulate(const CombinationalFrame& frame,
                              const std::vector<Fault>& faults,
                              const std::vector<BitVec>& patterns,
                              ThreadPool& pool, std::size_t fault_shard) {
  return detail::simulate_faults(StuckAtModel{{frame, patterns}}, faults, &pool,
                                 fault_shard);
}

}  // namespace retscan
