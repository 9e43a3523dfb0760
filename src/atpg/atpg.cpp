#include "atpg/atpg.hpp"

namespace retscan {

AtpgResult run_atpg(const CombinationalFrame& frame, const std::vector<Fault>& faults,
                    const AtpgOptions& options) {
  AtpgResult result;
  result.total_faults = faults.size();
  Rng rng(options.seed);

  // --- Phase 1: the random budget through the fault simulator, with fault
  // dropping. A pattern is kept iff it is some fault's first detection
  // (reverse compaction).
  std::vector<BitVec> random;
  random.reserve(options.random_patterns);
  for (std::size_t i = 0; i < options.random_patterns; ++i) {
    random.push_back(frame.random_pattern(rng));
  }
  const FaultSimResult first = fault_simulate(frame, faults, random);
  std::vector<bool> detected(faults.size(), false);
  std::vector<bool> useful(random.size(), false);
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    if (first.detected_by[fi] != FaultSimResult::npos) {
      detected[fi] = true;
      useful[first.detected_by[fi]] = true;
    }
  }
  for (std::size_t i = 0; i < random.size(); ++i) {
    if (useful[i]) {
      result.patterns.push_back(std::move(random[i]));
    }
  }
  result.detected_random = first.detected;
  std::size_t remaining = faults.size() - first.detected;

  // --- Phase 2: PODEM top-up.
  if (options.run_podem && remaining > 0) {
    Podem podem(frame, options.max_backtracks);
    // One workspace memoises each pattern's FFR terms across the survivors.
    CombinationalFrame::Workspace workspace;
    for (std::size_t fi = 0; fi < faults.size() && remaining > 0; ++fi) {
      if (detected[fi]) {
        continue;
      }
      const PodemResult generated = podem.generate(faults[fi], rng);
      if (generated.untestable) {
        ++result.untestable;
        detected[fi] = true;  // resolved, not counted as detected
        --remaining;
        continue;
      }
      if (!generated.success) {
        ++result.aborted;
        continue;
      }
      // Fault-simulate the new pattern against all remaining faults: load
      // and settle it once, then detect each survivor through its region.
      const CombinationalFrame::LoadedPatternBatch loaded =
          frame.load_batch({generated.pattern});
      bool useful = false;
      for (std::size_t fj = 0; fj < faults.size(); ++fj) {
        if (detected[fj]) {
          continue;
        }
        if (block_any(frame.detect_site(frame.fault_site(faults[fj].net),
                                        faults[fj].stuck_at, block_broadcast(true), loaded,
                                        workspace))) {
          detected[fj] = true;
          ++result.detected_podem;
          --remaining;
          useful = true;
        }
      }
      if (useful) {
        result.patterns.push_back(generated.pattern);
      }
    }
  }
  return result;
}

}  // namespace retscan
