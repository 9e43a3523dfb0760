#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "atpg/fault_sim.hpp"
#include "core/protected_design.hpp"
#include "scan/scan_insert.hpp"
#include "sim/packed_sim.hpp"
#include "sim/simulator.hpp"
#include "util/bitvec.hpp"
#include "util/thread_pool.hpp"

namespace retscan {

/// Apply a combinational-frame test pattern set to a live simulated design
/// through its scan chains — the procedure a tester executes — and check
/// each response against the good machine. This is how the library proves
/// the Section III claim: the monitoring chain configuration, concatenated
/// per Fig. 5(b), delivers exactly the same manufacturing test.
///
/// There is one delivery procedure and two ways to run it: the scalar
/// reference (one pattern at a time) and the 64-lane packed delivery. Both
/// shift through a ScanPorts map; Session::run_scan_test and the scan-test
/// campaign kind run the pooled packed delivery, and the scalar one is its
/// oracle.

/// The scan ports a delivery shifts through. Serial input g loads the chains
/// of groups[g] back to back, so one load takes group size x chain length
/// clocks. Full-width access is one chain per si port with no test_mode net.
/// A ProtectedDesign supersedes its si ports with the monitor feedback muxes,
/// so its only external scan access is the Fig. 5(b) concatenation behind
/// the tsi ports, shifted with test_mode asserted.
struct ScanPorts {
  const ScanChains* chains = nullptr;
  NetId test_mode = kNullNet;                    ///< held high while shifting
  std::vector<NetId> inputs;                     ///< one serial input per group
  std::vector<std::vector<std::size_t>> groups;  ///< chain indices, shift order

  /// Per-chain si access of a plain scanned netlist.
  static ScanPorts full_width(const ScanChains& chains);
  /// tsi access of a protected design.
  static ScanPorts test_mode_of(const ProtectedDesign& design);
};

/// Shard geometry of the pooled delivery: `requested` patterns per shard,
/// floored to whole 64-lane batches (minimum one batch), so every shard plan
/// forms the same batches. The delivery and CampaignResult::shard_count both
/// derive their shard plan from this one function.
inline std::size_t scan_test_shard_size(std::size_t requested) {
  const std::size_t lanes = PackedSim::lane_count();
  return std::max<std::size_t>(lanes, requested / lanes * lanes);
}

/// Result of applying a pattern set through scan.
struct ScanTestResult {
  std::size_t patterns_applied = 0;
  std::size_t mismatches = 0;  ///< responses differing from the good machine
  bool all_passed() const { return mismatches == 0; }
};

/// The reference delivery: each pattern is shifted in, captured and checked
/// on a scalar simulator of frame.netlist().
ScanTestResult deliver_scan_test(Simulator& sim, const ScanPorts& ports,
                                 const CombinationalFrame& frame,
                                 const std::vector<BitVec>& patterns);

/// 64-way parallel-pattern delivery: each PackedSim lane shifts, captures and
/// checks a different pattern, so a 64-pattern batch costs one scan load plus
/// one capture cycle. The patterns are cut into shards of
/// scan_test_shard_size(shard_size) across `pool`, each driving its own
/// PackedSim over frame.netlist() (a one-thread pool runs them inline; a
/// shard size of at least the pattern count rounded up to a whole batch
/// makes one shard). Scan loading overwrites every flop, so the result is
/// the reference delivery's at any thread count and shard size.
ScanTestResult deliver_scan_test_packed(const ScanPorts& ports,
                                        const CombinationalFrame& frame,
                                        const std::vector<BitVec>& patterns,
                                        ThreadPool& pool, std::size_t shard_size = 256);

}  // namespace retscan
