#include "atpg/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>

#include "atpg/fault_sim_driver.hpp"
#include "sim/eval_kernel.hpp"
#include "util/error.hpp"

namespace retscan {

namespace {

inline constexpr std::uint32_t kNoObs = ~std::uint32_t{0};
inline constexpr std::uint32_t kNoReader = ~std::uint32_t{0};
inline constexpr std::uint32_t kManyReaders = kNoReader - 1;

/// Batch identity for Workspace sync tracking: unique per load_batch, never
/// reused, so a stale workspace can never masquerade as settled.
std::uint64_t next_batch_tag() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// In-place transpose of a 64 x 64 bit tile: afterwards bit p of tile[j]
/// is what bit j of tile[p] was. Six rounds of block swaps (each round
/// exchanges the off-diagonal quarters of every 2j x 2j sub-tile).
void transpose64(std::uint64_t* tile) {
  std::uint64_t mask = 0x0000'0000'FFFF'FFFFull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((tile[k] >> j) ^ tile[k | j]) & mask;
      tile[k] ^= t << j;
      tile[k | j] ^= t;
    }
  }
}

/// The memo entry of `slot` in the workspace's sparse set, or nullptr.
const LaneBlock* memo_find(const CombinationalFrame::Workspace& ws, std::uint32_t slot) {
  const std::uint32_t i = ws.memo_index[slot];
  return i < ws.memo.size() && ws.memo[i].slot == slot ? &ws.memo[i].lanes : nullptr;
}

const LaneBlock& memo_put(CombinationalFrame::Workspace& ws, std::uint32_t slot,
                          const LaneBlock& lanes) {
  ws.memo_index[slot] = static_cast<std::uint32_t>(ws.memo.size());
  ws.memo.push_back({lanes, slot});
  return ws.memo.back().lanes;
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
    pattern_slots_.push_back(compiled_->slot(net));
  }
  for (const CellId flop : flops_) {
    pattern_slots_.push_back(compiled_->slot(netlist.cell(flop).out));
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
  // Fanout-free regions. Count each slot's distinct reading instructions (a
  // gate reading one net on two pins is one reader), then walk the slots
  // downward: a reader's output slot always sits above its operands, so the
  // stem of a single-reader, unobserved slot is already known when the walk
  // reaches it.
  const std::vector<CompiledInstr>& instrs = compiled_->instrs();
  const std::size_t slots = compiled_->slot_count();
  reader_of_slot_.assign(slots, kNoReader);
  for (std::uint32_t i = 0; i < instrs.size(); ++i) {
    const CompiledInstr& in = instrs[i];
    for (std::size_t pin = 0; pin < operand_count(in.op); ++pin) {
      std::uint32_t& reader = reader_of_slot_[in.operand(pin)];
      reader = reader == kNoReader || reader == i ? i : kManyReaders;
    }
  }
  stem_of_slot_.resize(slots);
  for (std::uint32_t s = static_cast<std::uint32_t>(slots); s-- > 0;) {
    std::uint32_t& reader = reader_of_slot_[s];
    if (reader == kManyReaders || obs_word_of_slot_[s] != kNoObs) {
      reader = kNoReader;
    }
    if (reader == kNoReader) {
      stem_of_slot_[s] = s;
    } else {
      RETSCAN_CHECK(instrs[reader].out > s, "CombinationalFrame: reader below its operand");
      stem_of_slot_[s] = stem_of_slot_[instrs[reader].out];
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
  const std::size_t width = pattern_width();
  for (const BitVec& pattern : patterns) {
    RETSCAN_CHECK(pattern.size() == width, "CombinationalFrame: pattern width mismatch");
  }
  std::fill(slot_values.begin(), slot_values.end(), LaneBlock{});
  // Lane word w holds patterns [64w, 64w + 64): each 64-bit column of their
  // storage words is one tile, and its transpose is one lane word per
  // pattern bit.
  std::uint64_t tile[kLaneCount];
  for (std::size_t w = 0; w * kLaneCount < patterns.size(); ++w) {
    const std::size_t first = w * kLaneCount;
    const std::size_t rows = std::min(kLaneCount, patterns.size() - first);
    for (std::size_t column = 0; column * kLaneCount < width; ++column) {
      for (std::size_t p = 0; p < rows; ++p) {
        tile[p] = patterns[first + p].words()[column];
      }
      std::fill(tile + rows, tile + kLaneCount, 0);
      transpose64(tile);
      const std::size_t base = column * kLaneCount;
      const std::size_t bits = std::min(kLaneCount, width - base);
      for (std::size_t j = 0; j < bits; ++j) {
        slot_values[pattern_slots_[base + j]].w[w] |= tile[j];
      }
    }
  }
  for (const auto& [index, value] : constraints_) {
    slot_values[pattern_slots_[index]] = block_broadcast(value);
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

CombinationalFrame::FaultSite CombinationalFrame::fault_site(NetId net) const {
  const std::uint32_t slot = compiled_->slot(net);
  return {slot, stem_of_slot_[slot]};
}

void CombinationalFrame::size_pending(Workspace& workspace) const {
  const std::size_t words = (compiled_->instrs().size() + 63) / 64;
  if (workspace.pending.size() != words) {
    workspace.pending.assign(words, 0);
  }
}

bool CombinationalFrame::reaches(const FaultSite& from, NetId to, Workspace& workspace) const {
  const std::uint32_t target = compiled_->slot(to);
  if (target <= from.slot) {
    return false;  // every reader sits above its operands
  }
  // The chain's slots ascend to the stem.
  std::uint32_t s = from.slot;
  while (s < target && reader_of_slot_[s] != kNoReader) {
    s = compiled_->instrs()[reader_of_slot_[s]].out;
  }
  if (s >= target) {
    return s == target;
  }
  // From the stem: a slot at or above the target cannot lead back down to
  // it, so the walk marks readers only below the target, and none once the
  // target is reached.
  size_pending(workspace);
  bool reached = false;
  compiled_->propagate(std::span(&s, 1), workspace.pending, [&](const CompiledInstr& in) {
    reached = reached || in.out == target;
    return !reached && in.out < target;
  });
  return reached;
}

void CombinationalFrame::sync(const LoadedPatternBatch& batch, Workspace& workspace) const {
  RETSCAN_CHECK(batch.settled.size() == compiled_->slot_count() &&
                    batch.good.size() == response_width(),
                "CombinationalFrame: batch not loaded by this frame");
  if (workspace.synced_tag != batch.tag) {
    workspace.values = batch.settled;
    workspace.synced_tag = batch.tag;
    workspace.memo.clear();
  }
  if (workspace.memo_index.size() != stem_of_slot_.size()) {
    workspace.memo_index.assign(stem_of_slot_.size(), 0);
  }
  size_pending(workspace);
}

LaneBlock CombinationalFrame::flip_sensitivity(std::uint32_t slot,
                                               LaneBlock* values) const {
  // The reader re-evaluated with `slot` inverted on every pin that reads it,
  // against its good output; `values` must mirror the batch's good machine.
  const CompiledInstr& in = compiled_->instrs()[reader_of_slot_[slot]];
  values[slot] = ~values[slot];
  const LaneBlock flipped = CompiledNetlist::eval_instr(in, values);
  values[slot] = ~values[slot];
  return flipped ^ values[in.out];
}

LaneBlock CombinationalFrame::observe_stem(std::uint32_t stem,
                                           const LoadedPatternBatch& batch,
                                           Workspace& workspace) const {
  const LaneBlock live = block_lane_mask(batch.count);
  if (obs_word_of_slot_[stem] != kNoObs) {
    return live;  // the stem itself shows every flip
  }
  // Lane p of the result is set iff pattern p sees a difference at some
  // observation point; only slots the flip changes are written, and undo
  // restores exactly those, so the workspace stays synced and consecutive
  // faults pay no copy.
  LaneBlock* v = workspace.values.data();
  std::vector<std::uint32_t>& undo = workspace.undo;
  undo.clear();
  LaneBlock mask{};
  v[stem] = ~v[stem];
  compiled_->propagate_change(stem, v, live, workspace.pending,
                              [&](std::uint32_t slot, const LaneBlock& diff) {
                                undo.push_back(slot);
                                if (obs_word_of_slot_[slot] != kNoObs) {
                                  mask = mask | diff;
                                }
                              });
  v[stem] = batch.settled[stem];
  for (const std::uint32_t slot : undo) {
    v[slot] = batch.settled[slot];
  }
  return mask;
}

LaneBlock CombinationalFrame::detect_block(const Fault& fault, const LoadedPatternBatch& batch,
                                           Workspace& workspace) const {
  workspace.memo.clear();
  return detect_site(fault_site(fault.net), fault.stuck_at, block_broadcast(true), batch,
                     workspace);
}

LaneBlock CombinationalFrame::detect_site(const FaultSite& site, bool stuck_at,
                                          const LaneBlock& care,
                                          const LoadedPatternBatch& batch,
                                          Workspace& workspace) const {
  sync(batch, workspace);
  LaneBlock* v = workspace.values.data();
  LaneBlock reach = care & (v[site.slot] ^ block_broadcast(stuck_at)) &
                    block_lane_mask(batch.count);
  if (!block_any(reach)) {
    return reach;
  }
  if (reader_of_slot_[site.slot] != kNoReader) {
    // Path of the site to its stem: climb the chain to the stem or to the
    // first slot already memoised, then memoise the climbed slots top-down.
    const CompiledInstr* instrs = compiled_->instrs().data();
    std::vector<std::uint32_t>& chain = workspace.chain;
    chain.clear();
    const LaneBlock* path = nullptr;
    for (std::uint32_t s = site.slot;
         reader_of_slot_[s] != kNoReader && (path = memo_find(workspace, s)) == nullptr;
         s = instrs[reader_of_slot_[s]].out) {
      chain.push_back(s);
    }
    LaneBlock acc = path != nullptr ? *path : block_broadcast(true);
    for (std::size_t i = chain.size(); i-- > 0;) {
      acc = acc & flip_sensitivity(chain[i], v);
      path = &memo_put(workspace, chain[i], acc);
    }
    reach = reach & *path;
    if (!block_any(reach)) {
      return reach;
    }
  }
  const LaneBlock* observed = memo_find(workspace, site.stem);
  if (observed == nullptr) {
    observed = &memo_put(workspace, site.stem, observe_stem(site.stem, batch, workspace));
  }
  return reach & *observed;
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

/// Stuck-at faults: both polarities of every net in a region share the
/// shard's memoised chain paths and one stem observation per batch.
struct StuckAtModel : detail::PatternBlocks {
  using Site = CombinationalFrame::FaultSite;
  using Scratch = CombinationalFrame::Workspace;

  Site site(const Fault& fault, Scratch&) const { return frame.fault_site(fault.net); }
  Scratch scratch() const { return {}; }
  LaneBlock detect(const Fault& fault, const Site& site, const Batch& batch,
                   Scratch& workspace) const {
    return frame.detect_site(site, fault.stuck_at, block_broadcast(true), batch, workspace);
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
