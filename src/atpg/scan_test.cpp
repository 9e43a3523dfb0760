#include "atpg/scan_test.hpp"

#include <bit>
#include <string>

namespace retscan {

ScanPorts ScanPorts::full_width(const ScanChains& chains) {
  ScanPorts ports;
  ports.chains = &chains;
  ports.inputs = chains.si;
  for (std::size_t c = 0; c < chains.chain_count(); ++c) {
    ports.groups.push_back({c});
  }
  return ports;
}

ScanPorts ScanPorts::test_mode_of(const ProtectedDesign& design) {
  const Netlist& netlist = design.netlist();
  ScanPorts ports;
  ports.chains = &design.chains();
  ports.test_mode = netlist.find_net("test_mode");
  ports.groups = design.test_config().groups;
  for (std::size_t g = 0; g < ports.groups.size(); ++g) {
    ports.inputs.push_back(netlist.find_net("tsi" + std::to_string(g)));
  }
  return ports;
}

namespace {

/// Lane-word views of the two simulators (lane p = pattern p of a batch).
/// The scalar simulator carries a single pattern, in lane 0.
struct ScalarLanes {
  Simulator& sim;
  void drive(NetId net, LaneWord word) { sim.set_input(net, (word & 1u) != 0); }
  void load_flops(const std::vector<std::pair<CellId, LaneWord>>& flops) {
    std::vector<std::pair<CellId, bool>> states;
    for (const auto& [flop, word] : flops) {
      states.emplace_back(flop, (word & 1u) != 0);
    }
    sim.set_flop_states(states);
  }
  LaneWord net(NetId net) const { return sim.net_value(net) ? 1u : 0u; }
  LaneWord flop(CellId flop) const { return sim.flop_state(flop) ? 1u : 0u; }
};

struct PackedLanes {
  PackedSim& sim;
  void drive(NetId net, LaneWord word) { sim.set_input(net, word); }
  void load_flops(const std::vector<std::pair<CellId, LaneWord>>& flops) {
    for (const auto& [flop, word] : flops) {
      sim.set_flop_lanes(flop, word);
    }
    sim.refresh();
  }
  LaneWord net(NetId net) const { return sim.net_lanes(net); }
  LaneWord flop(CellId flop) const { return sim.flop_lanes(flop); }
};

/// Deliver up to 64 patterns and return the lanes whose response differs
/// from the good machine. Chain flops load serially through the ports;
/// flops outside the chains (monitor storage) are written directly. POs are
/// read pre-capture, flop PPOs from the captured states.
template <typename Lanes>
LaneWord deliver_batch(Lanes& lanes, const ScanPorts& ports, const CombinationalFrame& frame,
                       const std::vector<BitVec>& batch) {
  const ScanChains& chains = *ports.chains;
  const std::vector<std::uint64_t> good = frame.good_response_words(batch);
  const std::vector<LaneWord> words = pack_lanes(batch);  // PIs first, then PPIs

  // Split the PPI section: chain_words[c][p] loads chain c, position p.
  const std::size_t l = chains.length();
  std::vector<std::vector<LaneWord>> chain_words(chains.chain_count(),
                                                 std::vector<LaneWord>(l, 0));
  std::vector<std::pair<CellId, LaneWord>> other_flops;
  const std::size_t pi_count = frame.pi_nets().size();
  const auto& flops = frame.flops();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    const auto it = chains.position_of.find(flops[i]);
    if (it != chains.position_of.end()) {
      chain_words[it->second.first][it->second.second] = words[pi_count + i];
    } else {
      other_flops.emplace_back(flops[i], words[pi_count + i]);
    }
  }

  // Shift phase: stream index j of input g is chain groups[g][j / l],
  // position j % l; the bit for the largest index enters first.
  lanes.drive(chains.se, kAllLanes);
  if (ports.test_mode != kNullNet) {
    lanes.drive(ports.test_mode, kAllLanes);
  }
  if (chains.retain != kNullNet) {
    lanes.drive(chains.retain, 0);
  }
  for (std::size_t j = ports.groups.front().size() * l; j-- > 0;) {
    for (std::size_t g = 0; g < ports.inputs.size(); ++g) {
      lanes.drive(ports.inputs[g], chain_words[ports.groups[g][j / l]][j % l]);
    }
    lanes.sim.step();
  }
  lanes.load_flops(other_flops);

  // Capture phase: functional inputs from the patterns, se released.
  const auto& pis = frame.pi_nets();
  for (std::size_t i = 0; i < pis.size(); ++i) {
    lanes.drive(pis[i], words[i]);
  }
  lanes.drive(chains.se, 0);
  lanes.sim.eval();
  LaneWord mismatch = 0;
  const auto& pos = frame.po_nets();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    mismatch |= lanes.net(pos[i]) ^ good[i];
  }
  lanes.sim.step();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    mismatch |= lanes.flop(flops[i]) ^ good[pos.size() + i];
  }
  return mismatch & lane_mask(batch.size());
}

}  // namespace

ScanTestResult deliver_scan_test(Simulator& sim, const ScanPorts& ports,
                                 const CombinationalFrame& frame,
                                 const std::vector<BitVec>& patterns) {
  ScalarLanes lanes{sim};
  ScanTestResult result;
  result.patterns_applied = patterns.size();
  for (const BitVec& pattern : patterns) {
    if (deliver_batch(lanes, ports, frame, {pattern}) != 0) {
      ++result.mismatches;
    }
  }
  return result;
}

ScanTestResult deliver_scan_test_packed(const ScanPorts& ports,
                                        const CombinationalFrame& frame,
                                        const std::vector<BitVec>& patterns,
                                        ThreadPool& pool, std::size_t shard_size) {
  const std::size_t width = PackedSim::lane_count();
  const std::size_t shard = scan_test_shard_size(shard_size);
  const std::size_t shard_count = (patterns.size() + shard - 1) / shard;
  std::vector<std::size_t> mismatches(shard_count, 0);
  pool.parallel_for(shard_count, [&](std::size_t s) {
    PackedSim sim(frame.netlist());
    PackedLanes lanes{sim};
    const std::size_t last = std::min(patterns.size(), (s + 1) * shard);
    for (std::size_t base = s * shard; base < last; base += width) {
      const std::vector<BitVec> batch(patterns.begin() + base,
                                      patterns.begin() + std::min(last, base + width));
      mismatches[s] += static_cast<std::size_t>(
          std::popcount(deliver_batch(lanes, ports, frame, batch)));
    }
  });
  ScanTestResult result;
  result.patterns_applied = patterns.size();
  for (const std::size_t count : mismatches) {
    result.mismatches += count;
  }
  return result;
}

}  // namespace retscan
