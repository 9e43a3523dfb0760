#include "atpg/fault_models.hpp"

#include <algorithm>
#include <memory>
#include <unordered_set>

#include "atpg/fault_sim_driver.hpp"
#include "sim/compiled_netlist.hpp"
#include "util/rng.hpp"

namespace retscan {

// --- transition-delay faults ------------------------------------------------

std::vector<TransitionFault> enumerate_transition_faults(const Netlist& netlist) {
  // Same stem universe as stuck-at: SA0 site ↔ slow-to-rise, SA1 ↔
  // slow-to-fall, so coverage numbers are comparable across models.
  std::vector<TransitionFault> faults;
  for (const Fault& fault : enumerate_faults(netlist)) {
    faults.push_back({fault.net, !fault.stuck_at});
  }
  return faults;
}

std::string transition_fault_name(const Netlist& netlist, const TransitionFault& fault) {
  const std::string& name = netlist.net_name(fault.net);
  return (name.empty() ? "net" + std::to_string(fault.net) : name) +
         (fault.slow_to_rise ? "/STR" : "/STF");
}

namespace {

/// Transition faults over launch/capture pattern pairs: lane k of block b
/// is pair b * kLaneBlockBits + k. Capture must detect the stuck-at alias
/// (the net frozen at the transition's initial value) AND the launch
/// pattern must set the net to that value; the launch condition is the care
/// set of the capture detection, so lanes it rules out never cost an observation.
struct TransitionModel {
  struct Batch {
    CombinationalFrame::LoadedPatternBatch launch;
    CombinationalFrame::LoadedPatternBatch capture;
  };
  using Site = CombinationalFrame::FaultSite;
  using Scratch = CombinationalFrame::Workspace;

  const CombinationalFrame& frame;
  const std::vector<BitVec>& patterns;

  std::size_t pairs() const { return patterns.empty() ? 0 : patterns.size() - 1; }
  std::size_t batch_count() const { return detail::lane_blocks(pairs()); }
  Batch load(std::size_t b) const {
    const std::size_t first = b * kLaneBlockBits;
    const std::size_t count = detail::lane_block_size(pairs(), b);
    return {detail::load_patterns(frame, patterns, first, count),
            detail::load_patterns(frame, patterns, first + 1, count)};
  }
  Site site(const TransitionFault& fault, Scratch&) const {
    return frame.fault_site(fault.net);
  }
  Scratch scratch() const { return {}; }
  LaneBlock detect(const TransitionFault& fault, const Site& site, const Batch& batch,
                   Scratch& workspace) const {
    const LaneBlock& launch_vals = batch.launch.settled[site.slot];
    const LaneBlock launched = fault.slow_to_rise ? ~launch_vals : launch_vals;
    return frame.detect_site(site, !fault.slow_to_rise, launched, batch.capture, workspace);
  }
};

}  // namespace

FaultSimResult transition_fault_simulate(const CombinationalFrame& frame,
                                         const std::vector<TransitionFault>& faults,
                                         const std::vector<BitVec>& patterns,
                                         ThreadPool& pool, std::size_t fault_shard) {
  return detail::simulate_faults(TransitionModel{frame, patterns}, faults, &pool,
                                 fault_shard);
}

// --- bridging faults --------------------------------------------------------

std::vector<BridgingFault> enumerate_bridging_faults(const Netlist& netlist) {
  std::vector<BridgingFault> faults;
  std::unordered_set<std::uint64_t> seen;
  for (CellId id = 0; id < netlist.cell_count(); ++id) {
    const Cell& cell = netlist.cell(id);
    if (cell.type == CellType::Output) {
      continue;
    }
    for (std::size_t i = 0; i < cell.fanin.size(); ++i) {
      for (std::size_t j = i + 1; j < cell.fanin.size(); ++j) {
        const NetId a = std::min(cell.fanin[i], cell.fanin[j]);
        const NetId b = std::max(cell.fanin[i], cell.fanin[j]);
        if (a == b) {
          continue;
        }
        const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
        if (!seen.insert(key).second) {
          continue;
        }
        faults.push_back({a, b, true});
        faults.push_back({a, b, false});
      }
    }
  }
  return faults;
}

std::string bridging_fault_name(const Netlist& netlist, const BridgingFault& fault) {
  const auto label = [&](NetId net) {
    const std::string& name = netlist.net_name(net);
    return name.empty() ? "net" + std::to_string(net) : name;
  };
  return label(fault.a) + "+" + label(fault.b) +
         (fault.wired_and ? "/AND" : "/OR");
}

namespace {

/// Bridging faults as two conditional stuck-ats. In any lane the bridge
/// flips at most one net: a wired-AND pulls a net from 1 to 0 where the
/// other net is 0, a wired-OR from 0 to 1 where it is 1. A net the other one
/// reaches is recomputed from the flipped net rather than held, so its own
/// term drops out. Both terms share the shard's memoised chain paths and
/// stem observations with every other fault of the shard.
struct BridgingModel : detail::PatternBlocks {
  struct Site {
    CombinationalFrame::FaultSite a;
    CombinationalFrame::FaultSite b;
    bool a_reaches_b = false;
    bool b_reaches_a = false;
  };
  /// The shard's workspace and the last site it resolved: the universe
  /// lists each pair's wired-AND and wired-OR bridges back to back, so the
  /// second one reuses the first one's reaches walks.
  struct Scratch {
    CombinationalFrame::Workspace workspace;
    NetId a = kNullNet;
    NetId b = kNullNet;
    Site site;
  };

  Site site(const BridgingFault& fault, Scratch& s) const {
    if (fault.a != s.a || fault.b != s.b) {
      const CombinationalFrame::FaultSite a = frame.fault_site(fault.a);
      const CombinationalFrame::FaultSite b = frame.fault_site(fault.b);
      s.site = {a, b, frame.reaches(a, fault.b, s.workspace),
                frame.reaches(b, fault.a, s.workspace)};
      s.a = fault.a;
      s.b = fault.b;
    }
    return s.site;
  }
  Scratch scratch() const { return {}; }
  LaneBlock detect(const BridgingFault& fault, const Site& site, const Batch& batch,
                   Scratch& s) const {
    CombinationalFrame::Workspace& workspace = s.workspace;
    const LaneBlock& va = batch.settled[site.a.slot];
    const LaneBlock& vb = batch.settled[site.b.slot];
    const bool pulled_to = !fault.wired_and;
    LaneBlock lanes{};
    if (!site.b_reaches_a) {
      lanes = frame.detect_site(site.a, pulled_to, fault.wired_and ? ~vb : vb, batch,
                                workspace);
    }
    if (!site.a_reaches_b) {
      lanes = lanes | frame.detect_site(site.b, pulled_to, fault.wired_and ? ~va : va,
                                        batch, workspace);
    }
    return lanes;
  }
};

}  // namespace

FaultSimResult bridging_fault_simulate(const CombinationalFrame& frame,
                                       const std::vector<BridgingFault>& faults,
                                       const std::vector<BitVec>& patterns,
                                       ThreadPool& pool, std::size_t fault_shard) {
  return detail::simulate_faults(BridgingModel{{frame, patterns}}, faults, &pool,
                                 fault_shard);
}

// --- sequential multi-cycle stuck-at ----------------------------------------

namespace {

/// Sequential stuck-at faults on a free-running machine. Lane block b holds
/// sequences [b * kLaneBlockBits, ...): random primary-input stimulus from
/// its own derived stream plus the good machine's primary-output trajectory,
/// both a pure function of (netlist, cycles, seed, b). A fault is a
/// faulty-machine re-simulation of the block with its net clamped, which
/// ends once lane 0 detects it: the driver reads only the first detecting
/// lane, and no later cycle can set a lane below 0.
struct SequentialModel {
  struct Batch {
    std::vector<LaneBlock> stimulus;  ///< [t * pi_count + i]: PI i at cycle t
    std::vector<LaneBlock> good_po;   ///< [t * po_count + p]: good PO p at cycle t
    std::size_t lanes = 0;
  };
  using Site = std::uint32_t;  ///< the fault net's value slot
  struct Scratch {
    std::vector<LaneBlock> values;  ///< slot values; flop Q slots carry state
    std::vector<LaneBlock> po;
    std::vector<LaneBlock> d;
    std::vector<std::uint64_t> pending;  ///< propagate's instruction bitmap
  };

  std::shared_ptr<const CompiledNetlist> compiled;
  std::vector<std::uint32_t> pi_slots;
  std::vector<std::uint32_t> q_slots;    // flop outputs (state)
  std::vector<std::uint32_t> d_slots;    // flop D inputs (next state)
  std::vector<std::uint32_t> one_slots;  // Const1 sources, forced every cycle
  std::vector<std::uint32_t> po_slots;
  std::size_t sequences = 0;
  std::size_t cycles = 0;
  std::uint64_t seed = 0;

  SequentialModel(const Netlist& netlist, std::size_t sequences_, std::size_t cycles_,
                  std::uint64_t seed_)
      : compiled(netlist.compiled()), sequences(sequences_), cycles(cycles_), seed(seed_) {
    for (const CellId id : netlist.inputs()) {
      pi_slots.push_back(compiled->slot(netlist.cell(id).out));
    }
    for (const CellId id : netlist.flops()) {
      q_slots.push_back(compiled->slot(netlist.cell(id).out));
      d_slots.push_back(compiled->slot(netlist.cell(id).fanin[0]));
    }
    for (CellId id = 0; id < netlist.cell_count(); ++id) {
      if (netlist.cell(id).type == CellType::Const1) {
        one_slots.push_back(compiled->slot(netlist.cell(id).out));
      }
    }
    for (const CellId id : netlist.outputs()) {
      po_slots.push_back(compiled->slot(netlist.cell(id).fanin[0]));
    }
  }

  std::size_t batch_count() const { return cycles == 0 ? 0 : detail::lane_blocks(sequences); }

  Batch load(std::size_t b) const {
    Batch batch;
    batch.lanes = detail::lane_block_size(sequences, b);
    Rng rng(Rng::derive_stream(seed, b));
    batch.stimulus.resize(cycles * pi_slots.size());
    for (LaneBlock& block : batch.stimulus) {
      for (std::size_t w = 0; w < kLaneWords; ++w) {
        block.w[w] = rng.next_u64();
      }
    }
    // Good-machine trajectory from the all-zero state.
    const std::size_t po_count = po_slots.size();
    batch.good_po.resize(cycles * po_count);
    Scratch s = scratch();
    for (std::size_t t = 0; t < cycles; ++t) {
      step(s, batch, t, nullptr, LaneBlock{}, batch.good_po.data() + t * po_count);
    }
    return batch;
  }

  Site site(const Fault& fault, Scratch&) const { return compiled->slot(fault.net); }

  Scratch scratch() const {
    return {std::vector<LaneBlock>(compiled->slot_count()),
            std::vector<LaneBlock>(po_slots.size()), std::vector<LaneBlock>(d_slots.size()),
            std::vector<std::uint64_t>((compiled->instrs().size() + 63) / 64, 0)};
  }

  /// Per-lane OR of PO differences across the cycles, up to the first cycle
  /// in which lane 0 differs.
  LaneBlock detect(const Fault& fault, const Site& site, const Batch& batch,
                   Scratch& s) const {
    s.values.assign(s.values.size(), LaneBlock{});
    const LaneBlock clamp = block_broadcast(fault.stuck_at);
    const std::size_t po_count = po_slots.size();
    LaneBlock diff{};
    for (std::size_t t = 0; t < cycles && (diff.w[0] & 1) == 0; ++t) {
      step(s, batch, t, &site, clamp, s.po.data());
      for (std::size_t p = 0; p < po_count; ++p) {
        diff = diff | (s.po[p] ^ batch.good_po[t * po_count + p]);
      }
    }
    return diff & block_lane_mask(batch.lanes);
  }

  /// Advance one machine by one cycle: load the cycle's PIs and constants,
  /// settle, optionally clamp a fault slot and propagate what the clamp
  /// changes, record the cycle's primary outputs into `po_out`, then latch
  /// next state. POs must be captured before the latch — a PO fed straight
  /// by a flop Q shares that Q's slot, and latching first would overwrite
  /// the settled (possibly faulty) output with the fault-free next state.
  void step(Scratch& s, const Batch& batch, std::size_t t, const Site* clamp_slot,
            const LaneBlock& clamp_value, LaneBlock* po_out) const {
    std::vector<LaneBlock>& values = s.values;
    const std::size_t pi_count = pi_slots.size();
    for (std::size_t i = 0; i < pi_count; ++i) {
      values[pi_slots[i]] = batch.stimulus[t * pi_count + i];
    }
    const LaneBlock ones = block_broadcast(true);
    for (const std::uint32_t slot : one_slots) {
      values[slot] = ones;
    }
    if (clamp_slot != nullptr) {
      values[*clamp_slot] = clamp_value;  // source-slot faults must be in before settle
    }
    compiled->eval_full(values.data());
    if (clamp_slot != nullptr) {
      // An instruction-driven fault site was recomputed by the sweep: clamp
      // it again and re-evaluate only what the clamp changes.
      values[*clamp_slot] = clamp_value;
      compiled->propagate_change(*clamp_slot, values.data(), block_lane_mask(batch.lanes),
                                 s.pending, [](std::uint32_t, const LaneBlock&) {});
    }
    for (std::size_t p = 0; p < po_slots.size(); ++p) {
      po_out[p] = values[po_slots[p]];
    }
    // Latch: snapshot every D before writing any Q (flop-to-flop paths).
    for (std::size_t f = 0; f < d_slots.size(); ++f) {
      s.d[f] = values[d_slots[f]];
    }
    for (std::size_t f = 0; f < q_slots.size(); ++f) {
      values[q_slots[f]] = s.d[f];
    }
  }
};

}  // namespace

FaultSimResult sequential_fault_simulate(const Netlist& netlist,
                                         const std::vector<Fault>& faults,
                                         std::size_t sequences, std::size_t cycles,
                                         std::uint64_t seed, ThreadPool& pool,
                                         std::size_t fault_shard) {
  return detail::simulate_faults(SequentialModel(netlist, sequences, cycles, seed), faults,
                                 &pool, fault_shard);
}

}  // namespace retscan
