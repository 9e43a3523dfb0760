#pragma once

#include <cstddef>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"
#include "util/rng.hpp"

namespace retscan {

/// ATPG configuration.
struct AtpgOptions {
  std::size_t random_patterns = 256;   ///< random phase budget
  std::size_t max_backtracks = 500;    ///< PODEM budget per fault
  bool run_podem = true;               ///< deterministic top-up phase
  std::uint64_t seed = 1;
};

/// Full ATPG outcome: the compacted pattern set plus coverage accounting.
struct AtpgResult {
  std::vector<BitVec> patterns;
  std::size_t total_faults = 0;
  std::size_t detected_random = 0;
  std::size_t detected_podem = 0;
  std::size_t untestable = 0;
  std::size_t aborted = 0;

  std::size_t detected() const { return detected_random + detected_podem; }
  /// Coverage over testable faults (untestable excluded), the number a
  /// test engineer signs off on.
  double coverage() const {
    const std::size_t testable = total_faults - untestable;
    return testable == 0 ? 1.0
                         : static_cast<double>(detected()) / static_cast<double>(testable);
  }
  /// Raw fault efficiency including untestable as resolved.
  double efficiency() const {
    return total_faults == 0
               ? 1.0
               : static_cast<double>(detected() + untestable) /
                     static_cast<double>(total_faults);
  }
};

/// Two-phase ATPG over the combinational frame of a (scan) design:
/// 1. Random phase: the whole random budget through fault_simulate (fault
///    dropping, one lane block per pass); patterns that are no fault's
///    first detection are discarded (reverse compaction).
/// 2. Deterministic phase: PODEM on each remaining fault; successful
///    patterns are fault-simulated to drop collateral detections.
AtpgResult run_atpg(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                    const AtpgOptions& options);

}  // namespace retscan
