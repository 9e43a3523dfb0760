#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "util/thread_pool.hpp"

namespace retscan {

/// Transition-delay fault on a net: the 0→1 (slow-to-rise) or 1→0
/// (slow-to-fall) transition never completes within the cycle. Simulated as
/// launch/capture pattern pairs through the CombinationalFrame: pair k is
/// (patterns[k], patterns[k+1]); the fault is detected by pair k iff the
/// launch pattern sets the net to the transition's initial value and the
/// capture pattern detects the corresponding stuck-at fault (the net frozen
/// at its initial value is exactly SA0 for slow-to-rise, SA1 for
/// slow-to-fall during capture).
struct TransitionFault {
  NetId net = kNullNet;
  bool slow_to_rise = false;  ///< true: 0→1 fails (STR); false: 1→0 fails (STF)

  bool operator==(const TransitionFault& other) const {
    return net == other.net && slow_to_rise == other.slow_to_rise;
  }
};

/// One STR and one STF per stuck-at fault site (same stem universe).
std::vector<TransitionFault> enumerate_transition_faults(const Netlist& netlist);

std::string transition_fault_name(const Netlist& netlist, const TransitionFault& fault);

/// Launch/capture transition-delay fault simulation with fault dropping.
/// detected_by[i] is the index of the first detecting pattern *pair*
/// (patterns.size() - 1 pairs exist): the stuck-at alias detected over the
/// capture pattern in the lanes the launch-value condition allows. Sharded
/// across `pool` as the pooled fault_simulate is.
FaultSimResult transition_fault_simulate(const CombinationalFrame& frame,
                                         const std::vector<TransitionFault>& faults,
                                         const std::vector<BitVec>& patterns,
                                         ThreadPool& pool, std::size_t fault_shard = 128);

/// Bridging fault between two nets with wired-AND or wired-OR dominance:
/// where a pattern drives them apart, the net at the dominated value (1
/// under wired-AND, 0 under wired-OR) takes the other's value. When one net
/// reaches the other through logic (a feedback bridge), only the upstream
/// net is held at the wired value: the downstream net is recomputed from
/// it, so it changes only through the upstream flip. Simulated as at most
/// two conditional stuck-at faults through the frame's fanout-free regions
/// (detect_site), one per held net.
struct BridgingFault {
  NetId a = kNullNet;
  NetId b = kNullNet;
  bool wired_and = false;  ///< true: wired-AND; false: wired-OR

  bool operator==(const BridgingFault& other) const {
    return a == other.a && b == other.b && wired_and == other.wired_and;
  }
};

/// Gate-input bridges: every unordered pair of distinct fanin nets of the
/// same cell, deduplicated across the netlist, with one wired-AND and one
/// wired-OR fault per pair (the classic intra-gate bridge universe —
/// quadratic-in-nets universes need a layout, which a netlist doesn't have).
std::vector<BridgingFault> enumerate_bridging_faults(const Netlist& netlist);

std::string bridging_fault_name(const Netlist& netlist, const BridgingFault& fault);

/// Bridging fault simulation with fault dropping; detected_by[i] is the
/// first detecting pattern index.
FaultSimResult bridging_fault_simulate(const CombinationalFrame& frame,
                                       const std::vector<BridgingFault>& faults,
                                       const std::vector<BitVec>& patterns,
                                       ThreadPool& pool, std::size_t fault_shard = 128);

/// Sequential multi-cycle stuck-at fault simulation for '89-class circuits:
/// no scan access — lanes are independent random primary-input sequences of
/// `cycles` cycles from the all-zero flop state, and a fault is detected
/// when any primary output differs from the good machine in any cycle. The
/// good trajectory settles once per lane block; every fault is then a
/// faulty-machine re-simulation with its net clamped (fault effects must
/// propagate through the flops cycle over cycle, which one combinational
/// frame cannot express), cut short once the block's first sequence detects
/// it. detected_by[i] is the first detecting sequence index.
FaultSimResult sequential_fault_simulate(const Netlist& netlist,
                                         const std::vector<Fault>& faults,
                                         std::size_t sequences, std::size_t cycles,
                                         std::uint64_t seed, ThreadPool& pool,
                                         std::size_t fault_shard = 64);

}  // namespace retscan
